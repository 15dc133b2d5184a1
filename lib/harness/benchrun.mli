(** The machine-readable bench trajectory: collection and regression
    comparison behind [bench --json FILE] / [bench --compare OLD.json].

    Promoted from the bench executable into a library so tests can assert
    the parallel harness's core guarantee: {!collect} under any domain
    count produces cycle-identical results to a sequential run.  Every
    (app x mode) simulation is an independent deterministic task; the suite
    fans out over {!Bm_parallel.map_ordered} with one task per app, each
    task owning its metrics registries, span profiler and analysis cache
    (single-domain sinks), and results are collected in suite order. *)

val collect :
  ?apps:(string * (unit -> Bm_gpu.Command.app)) list ->
  ?jobs:int ->
  unit ->
  Bm_metrics.Benchfile.t
(** Run [apps] (default {!Bm_workloads.Suite.all}) under baseline + the
    Fig. 9 modes with metrics and the span profiler attached.  [jobs]
    (default {!Bm_parallel.default_jobs}) sizes the domain pool; every
    simulated quantity — cycles, speedups, high-water marks, memory
    overhead — is identical for every [jobs], only the wall-clock pipeline
    spans vary.  Each app task prepares against its own in-memory
    {!Bm_maestro.Cache}. *)

val write : ?jobs:int -> string -> unit
(** [collect] and save, printing a one-line summary to stdout. *)

val compare_against : ?jobs:int -> threshold_pct:float -> string -> int
(** Re-measure and diff simulated cycles against a saved file.  Returns the
    process exit code: 0 in-threshold, 1 regression beyond
    [threshold_pct], 2 I/O or parse failure on the old file. *)

val cycles_of : Bm_gpu.Config.t -> Bm_gpu.Stats.t -> float
(** Simulated microseconds converted to GPU core cycles. *)
