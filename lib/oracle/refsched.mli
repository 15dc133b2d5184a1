(** Reference scheduler: the slow-but-obviously-correct twin of the
    event engine ({!Bm_maestro.Sim.run} for one app,
    {!Bm_maestro.Multi.run} for N).

    [run] implements exactly the engine's contracts — per-stream
    pre-launch windows, serial baseline command semantics, producer-/
    consumer-/deadline-priority thread-block scheduling, fine-grain
    parent-counter gating, slot capacity, the copy engine, in-order
    per-stream kernel completion, and for co-runs the submission
    admission gate and the shared or partitioned resource pools — but
    with none of the optimized machinery:

    - no event heap: pending occurrences live in a flat list scanned
      linearly for the minimum (time, insertion) pair;
    - no incremental counters: running-TB counts per slot pool, free
      slots, per-stream residency, kernel drain, producer-priority
      eligibility and admission ranks are all recomputed by scanning
      every app, kernel and thread block each time ([Packed] ranks are
      replayed from the start of the greedy merge on every query);
    - no pending-parent counters: fine-grain readiness re-checks {e all}
      of a TB's parents' finished flags against the bipartite graph;
    - no precomputed EDF keys: the stream-prefix key and its priority
      inheritance over the stream-successor chain are re-derived on every
      dispatch decision.

    The result is O(n²)-ish in events and TBs, which is fine: the oracle
    runs on fuzzer-sized apps.  {!Diff} asserts cycle-exact agreement
    (identical {!Bm_gpu.Stats.t}, including the per-TB timing columns) with the
    engine for every mode, so any divergence — in either — is a bug with
    a concrete reproducer.

    [submission] and [spatial] are {!Bm_maestro.Multi.run}'s policies.
    [host_blocking_copies] is [Sim.run]'s synchronous-copy switch.
    [deadlines] overrides the per-kernel EDF keys, one array per app
    indexed by seq, mirroring [Sim.run ?deadlines]; every other mode
    ignores it.

    Two options inject known scheduler bugs so the differential harness
    can prove it catches and shrinks them: [window_bug] (default 0) adds
    to every mode's pre-launch window bound, and [slots_bug] (default 0)
    widens every TB-slot pool.

    @raise Invalid_argument on an empty app array, a partition list or
    [deadlines] not matching the apps.
    @raise Failure like the engine on a stalled host or a kernel that
    never completes. *)

val run :
  ?submission:Bm_maestro.Multi.submission ->
  ?spatial:Bm_maestro.Multi.spatial ->
  ?slots_bug:int ->
  ?host_blocking_copies:bool ->
  ?deadlines:float array array ->
  ?window_bug:int ->
  Bm_gpu.Config.t ->
  Bm_maestro.Mode.t ->
  Bm_maestro.Prep.t array ->
  Bm_gpu.Stats.t array
(** Per-app statistics in app-local numbering, field-for-field comparable
    with the engine's via {!Diff.diff_stats}. *)
