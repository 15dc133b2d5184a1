(** Top-level entry points: analyze an application and simulate it.

    This is the API examples and benchmarks use:
    {[
      let stats = Runner.simulate Mode.Producer_priority app in
      let base = Runner.simulate Mode.Baseline app in
      Printf.printf "speedup: %.2f\n" (Bm_gpu.Stats.speedup ~baseline:base stats)
    ]} *)

val prepare :
  ?cfg:Bm_gpu.Config.t ->
  ?prof:Bm_metrics.Prof.t ->
  ?cache:Cache.t ->
  Mode.t ->
  Bm_gpu.Command.app ->
  Prep.t
(** Launch-time analysis with the mode's reordering policy.  [prof] records
    per-stage wall-clock spans and [cache] memoizes analysis results across
    calls (see {!Prep.prepare}); results are identical with and without a
    cache. *)

val capture :
  ?cfg:Bm_gpu.Config.t ->
  ?prof:Bm_metrics.Prof.t ->
  ?cache:Cache.t ->
  Bm_gpu.Command.app ->
  Graph.t
(** Ahead-of-time capture ({!Graph.capture}): prepare both reorder classes
    and lower them into a persistent compiled graph that {!Replay.run}
    executes without any preparation. *)

val simulate :
  ?cfg:Bm_gpu.Config.t ->
  ?metrics:Bm_metrics.Metrics.t ->
  ?prof:Bm_metrics.Prof.t ->
  ?cache:Cache.t ->
  ?trace:Bm_gpu.Stats.sink ->
  Mode.t ->
  Bm_gpu.Command.app ->
  Bm_gpu.Stats.t
(** Prepare with the mode's reordering policy and simulate ({!Sim.run}).
    [metrics] and [trace] are forwarded to the engine, [prof] to the
    preparation.  Pass [Bm_report.Trace.sink] as [trace] to record
    structured events: the sink gets kernel, copy and spill events one at
    a time and each kernel's TB columns once ({!Sim.run}).  A captured graph replays through the same engine
    ({!Replay.run}); test/test_graph.ml differences the decoded graph
    against this path. *)

val simulate_all :
  ?cfg:Bm_gpu.Config.t ->
  ?modes:Mode.t list ->
  ?cache:Cache.t ->
  Bm_gpu.Command.app ->
  (Mode.t * Bm_gpu.Stats.t) list
(** Run the Fig. 9 mode set (or [modes]) over one application, preparing
    each reorder class once. *)

val deadline :
  ?cfg:Bm_gpu.Config.t ->
  ?metrics:Bm_metrics.Metrics.t ->
  ?cache:Cache.t ->
  ?optimistic_bound:bool ->
  deadline_us:float ->
  Mode.t ->
  Bm_gpu.Command.app ->
  Deadline.report * Bm_gpu.Stats.t
(** Simulate under [mode] and judge the outcome against [deadline_us] and
    the response-time analysis ({!Deadline.bound_of_prep}, computed from
    the preparation the run executes).  With [metrics], records the
    [deadline.*] family via {!Deadline.observe}.  [optimistic_bound]
    (default false) deliberately substitutes the analytical {e lower}
    bound — a broken analysis used by self-tests to prove a genuine bound
    violation is detected ([r_rta_violation]). *)

val corun_deadlines :
  ?cfg:Bm_gpu.Config.t ->
  ?submission:Multi.submission ->
  ?spatial:Multi.spatial ->
  ?metrics:Bm_metrics.Metrics.t ->
  ?cache:Cache.t ->
  deadlines:float array ->
  Mode.t ->
  Bm_gpu.Command.app array ->
  Multi.admission array * Deadline.report array * Multi.result
(** Co-run with per-app deadlines: prepare, compute {!Multi.admit}
    verdicts (advisory — every app still runs, so provably-unmeetable
    deadlines can be observed missing), co-run, and report each app's
    outcome.  Each app's RTA bound is its own serial work plus, under
    [Shared], every co-runner's (they may occupy the machine end to end
    first); under [Partitioned] the solo bound stands.  [deadlines] must
    have one entry per app. *)

val corun_interference :
  ?cfg:Bm_gpu.Config.t ->
  ?submission:Multi.submission ->
  ?spatial:Multi.spatial ->
  ?metrics:Bm_metrics.Metrics.t ->
  ?profs:Bm_metrics.Prof.t array ->
  ?cache:Cache.t ->
  Mode.t ->
  Bm_gpu.Command.app array ->
  Multi.result * float array
(** Prepare each app (one shared analysis cache) and co-run them with
    {!Multi.run}; defaults mirror [Multi.run]: FIFO submission on a
    shared machine.  [profs] (one profiler per app, length-checked)
    records each tenant's preparation spans separately.  Returns the
    co-run result and each app's interference ratio: co-run completion time
    over solo completion time {e on the machine the app actually saw}
    (the full device under [Shared], its own slice under [Partitioned]).
    1.0 = no interference; under [Partitioned] the ratio is exactly 1.0
    by the isolation property — the differential suite asserts this. *)

val speedups :
  ?cfg:Bm_gpu.Config.t ->
  ?modes:Mode.t list ->
  ?cache:Cache.t ->
  Bm_gpu.Command.app ->
  (Mode.t * float) list
(** Speedups over [Mode.Baseline] of every other mode in [modes], in
    order; the baseline is simulated once. *)
