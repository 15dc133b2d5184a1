(** The fuzzer: generate random apps, differentially validate the scheduler
    and Algorithm 1, shrink any counterexample to a minimal reproducer.

    Per generated app ({!Bm_workloads.Genapp.generate}):

    + every requested mode runs through both [Sim.run] and the reference
      scheduler, asserting cycle-exact agreement ({!Diff.check});
    + the static dependency analysis is checked against the
      interpreter-derived exact graphs ({!Soundness.check_app}), including
      the indexed-vs-naive relate consistency test.

    On failure, the spec is minimized with {!Shrink.minimize} under "the
    same class of failure still occurs" and the shrunk spec is rendered as
    a runnable DSL program.  Exposed on the command line as [bmctl fuzz].
    The co-run axis ({!run_corun}) runs on the same campaign driver. *)

type kind =
  | Scheduler_mismatch  (** Sim (or Multi) vs reference scheduler divergence *)
  | Unsound_analysis    (** static graph missing an exact RAW edge *)
  | Relate_mismatch     (** indexed vs naive Bipartite.relate divergence *)
  | Isolation_breach
      (** a partitioned co-run's per-app stats differ from its solo run on
          a partition-sized machine (co-run fuzzing only) *)
  | Crash of string     (** either engine raised *)

type failure = {
  f_index : int;                      (** which generated app *)
  f_kind : kind;
  f_detail : string;
  f_spec : Bm_workloads.Genapp.spec;  (** the original failing spec *)
  f_shrunk : Bm_workloads.Genapp.spec option;  (** minimized, if shrinking ran *)
  f_shrink_steps : int;
}

type report = {
  r_seed : int;
  r_count : int;                      (** apps generated *)
  r_modes : Bm_maestro.Mode.t list;
  r_pairs_checked : int;              (** kernel pairs soundness-checked *)
  r_precision : (Bm_depgraph.Pattern.t * int * float) list;
      (** per static pattern: pair count, mean static/exact edge ratio
          (pairs with an infinite ratio are excluded from the mean) *)
  r_failures : failure list;
}

val kind_name : kind -> string

val run :
  ?cfg:Bm_gpu.Config.t ->
  ?modes:Bm_maestro.Mode.t list ->
  ?shrink:bool ->
  ?soundness:bool ->
  ?window_bug:int ->
  ?log:(string -> unit) ->
  ?jobs:int ->
  ?chunk:int ->
  seed:int ->
  count:int ->
  unit ->
  report
(** [shrink] (default true) minimizes failures; [soundness] (default
    true) runs the Algorithm 1 oracle; [window_bug] injects a pre-launch-window
    mutation into the reference scheduler (see {!Diff.check}) so the
    harness can prove it catches scheduler bugs.  [log] receives progress
    lines (default: drop them).

    [jobs] (default {!Bm_parallel.default_jobs}) examines and shrinks the
    generated apps on a domain pool.  Spec generation always consumes the
    seeded RNG sequentially in index order, so the report — failure
    indices, kinds, shrunk reproducers, precision statistics — is
    identical for every domain count; with [jobs = 1] the run is exactly
    the historical sequential path.

    [chunk] (default 256) bounds how many generated specs are alive at
    once: specs are generated and examined in bounded sequential chunks,
    and only failing specs are retained, so memory stays flat for huge
    [count].  Generation order, verdicts, shrunk reproducers and log lines
    are identical for every chunk size.

    Each worker domain keeps its own launch-time analysis cache
    ({!Bm_maestro.Cache}, single-domain per DESIGN §8), so structurally
    repeated kernels across generated apps are analyzed once per domain;
    cached preparation is cycle-identical, so verdicts do not depend on
    task-to-domain assignment. *)

val ok : report -> bool

val pp_failure : Format.formatter -> failure -> unit
val pp_report : Format.formatter -> report -> unit

(** {1 Co-run fuzzing}

    The concurrency axis: random two-app co-runs
    ({!Bm_workloads.Genapp.generate_corun}) differenced through
    {!Diff.check_corun} ([Multi] vs the naive [Refsched]) under the
    spec's own submission/spatial policy; partitioned co-runs are
    additionally checked app-by-app against solo [Sim] runs on
    partition-sized machines (the isolation property).  Failures shrink
    to a minimal interfering {e pair} by alternately minimizing each app
    with the other held fixed until neither shrinks further. *)

type corun_failure = {
  cf_index : int;
  cf_kind : kind;
  cf_detail : string;
  cf_corun : Bm_workloads.Genapp.corun;
  cf_shrunk : Bm_workloads.Genapp.corun option;
  cf_shrink_steps : int;
}

type corun_report = {
  cr_seed : int;
  cr_count : int;  (** co-runs generated *)
  cr_modes : Bm_maestro.Mode.t list;
  cr_failures : corun_failure list;
}

val run_corun :
  ?cfg:Bm_gpu.Config.t ->
  ?modes:Bm_maestro.Mode.t list ->
  ?shrink:bool ->
  ?slots_bug:int ->
  ?log:(string -> unit) ->
  ?jobs:int ->
  ?chunk:int ->
  seed:int ->
  count:int ->
  unit ->
  corun_report
(** Same determinism contract as {!run}: co-run generation consumes the
    seeded RNG sequentially in index order, so the report is identical
    for every [jobs] and [chunk] (default 64).  [slots_bug] widens the
    reference engine's TB-slot pools (see {!Diff.check_corun}) so the
    harness can prove it catches concurrency bugs. *)

val corun_ok : corun_report -> bool

val pp_corun_failure : Format.formatter -> corun_failure -> unit
val pp_corun_report : Format.formatter -> corun_report -> unit
