(** Event-trigger execution of a captured graph.

    {!run} executes a {!Graph.t} under one scheduling mode and produces the
    same {!Bm_gpu.Stats.t} as {!Sim.run} on a fresh preparation —
    cycle-exactly, and byte-identically in trace output (the differential
    suite in test/test_graph.ml enforces both over the benchmark suite,
    every mode, and random apps).  No preparation happens here: the graph
    already carries per-TB costs (expanded once at decode), resolved
    relations and copy dependencies, so a warm replay touches neither the
    PTX analyses nor the {!Cache}.

    There is no second engine: {!run} picks the schedule matching the
    mode's reorder class and hands it to {!Sim.run_schedules}, the same
    event-triggered core {!Sim.run} runs on a freshly lowered preparation.
    What replay adds is the configuration check and its own
    [graph.replay.*] counters. *)

val run :
  ?metrics:Bm_metrics.Metrics.t ->
  ?trace:Bm_gpu.Stats.sink ->
  Bm_gpu.Config.t ->
  Mode.t ->
  Graph.t ->
  Bm_gpu.Stats.t
(** Replays the schedule matching the mode's reorder class
    ([g_reordered] when {!Mode.reorders}, else [g_plain]).

    @raise Invalid_argument if the graph was captured under a different
    machine configuration (its [g_cfg_digest] does not match [cfg]) —
    replaying a graph on the wrong machine would silently produce timings
    for the machine it was captured on — or if its [g_params] differ from
    [cfg]'s {!Bm_gpu.Costmodel.params}, since its cost columns were
    expanded under them.  App-level staleness is checked separately with
    {!Graph.validate}, which needs the original app.

    @raise Invalid_argument if the schedule exceeds the packed-event bound
    of 2{^30} launches, commands or TBs per kernel (see {!Sim}); the
    message names [Replay.run].

    [metrics] receives the same counter families {!Sim.run} publishes
    (copy traffic, launch overhead, window residency, DLB/PCB occupancy
    and spills, TB activity) plus the replay-only [graph.replay.nodes],
    [graph.replay.commands] and [graph.replay.events] counters — and,
    by construction, none of the [prep.*] families: replay performs no
    preparation.  [trace] receives the identical events and TB-column
    hand-offs {!Sim.run} would send.  Neither hook alters results. *)
