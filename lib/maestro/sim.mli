(** Event-driven GPU timing simulator.

    Simulates a prepared application under one execution mode and collects
    the paper's metrics.  The machine model: a pool of
    [num_sms * max_tbs_per_sm] concurrent TB slots, a serial kernel-launch
    engine (5 µs per host-side launch), a copy engine, and the BlockMaestro
    TB scheduler enforcing the mode's dependency policy:

    - out-of-order TB execution with {e in-order kernel completion}
      (paper §III-B.1), so only consecutive-kernel graphs are consulted;
    - up to [Mode.window] kernels resident; pre-launched kernels overlap
      their launch overhead with the running kernel;
    - TB readiness per mode: kernel-granular draining, or fine-grain parent
      counters fed by the bipartite graph;
    - producer- or consumer-priority slot allocation, or earliest effective
      deadline first.

    Per-TB fine-grain dependency-satisfaction times are tracked in {e every}
    mode (including the baseline) so Fig. 11's stall distributions compare
    like for like.

    There is one engine, {!run_schedules}, and it executes one or more
    {!Graph.schedule}s on one machine: {!run} lowers its {!Prep.t} with
    {!Graph.schedule_of_prep} (the lowering {!Graph.capture} persists) and
    runs it alone, {!Replay.run} hands it a decoded graph's schedule, and
    {!Multi.run} hands it N lowered apps plus a submission order.  The
    engine reacts only to events, in the style of stream-event-triggered
    CUDA-graph launch:

    - {e active-node lists}: each app's dispatch walks a doubly-linked list
      holding exactly its launched-but-not-drained kernels, sorted by
      dispatch rank — launch order for oldest/newest-first, the static EDF
      order ({!Deadline.order_of_schedule}) for EDF — instead of filtering
      the whole kernel array.  A kernel links in at launch completion (O(1)
      under launch-order ranks: an app's launch events fire in sequence
      order) and unlinks when it drains.  Apps dispatch in index order.
    - {e copy-dependency counters}: each kernel holds a countdown of its
      pending H2D copies and each copy command a reverse list of dependent
      kernels; a copy-completion event decrements the counters, so the
      launch gate is one integer test.
    - {e resources}: the launch engine, copy engine and TB-slot pool are
      one record aliased by every app on a shared machine, or one private
      record per partition slice.  Each app integrates its own running TBs
      on its own clock, advanced only at its own events and dispatches; a
      machine-wide clock integrates all of them.

    Two properties of the co-run path follow from this structure and are
    still tested (test/test_multi.ml): one app on a shared machine {e is}
    a solo run, and a partitioned app sees only its own slice's resources
    and clock, so its statistics and trace equal its solo run on that
    slice.

    {b Packed-event bound.}  Events are immediate ints over one flat
    kernel/command index across apps: the summed launch and command counts
    and every kernel's TB count must each stay below 2{^30}.  Apps beyond
    it are rejected with [Invalid_argument] naming the caller and the
    bound, before any per-TB state is allocated; so is a traced app that
    could emit 2{^31} events (three per TB, six per launch, two per
    command), whose ordinals would not fit {!Bm_gpu.Stats.Tb_columns}. *)

val run :
  ?host_blocking_copies:bool ->
  ?metrics:Bm_metrics.Metrics.t ->
  ?trace:Bm_gpu.Stats.sink ->
  ?deadlines:float array ->
  Bm_gpu.Config.t ->
  Mode.t ->
  Prep.t ->
  Bm_gpu.Stats.t
(** [host_blocking_copies] (default false) restores the synchronous
    behaviour of host-to-device copies, for ablating BlockMaestro's
    treatment of blocking APIs as non-blocking.

    [deadlines] overrides the per-kernel deadline keys consulted by the
    {!Mode.Deadline_edf} dispatch policy (see {!Deadline.order_of_schedule});
    ignored by every other mode.

    [metrics] receives performance counters over simulated time: DLB/PCB
    occupancy time series with high-water marks ([dlb.occupancy],
    [pcb.occupancy]) and spill traffic ([dlb.spill_bytes],
    [pcb.spill_bytes]) under fine-grain modes; launch-overhead
    microseconds split into masked-by-device-work vs. exposed
    ([launch.masked_us], [launch.exposed_us]); pre-launch window residency
    ([window.resident] gauge, [window.occupancy] histogram sampled at each
    enqueue); copy-engine traffic ([copy.count], [copy.bytes_h2d],
    [copy.bytes_d2h], [copy.busy_us]); and TB activity ([tb.dispatched],
    [tb.exec_us]).  When absent every instrumentation site is one match on
    [None] — no allocation in the hot loops.

    [trace] receives the run's structured events with their timestamps
    (see {!Bm_gpu.Stats.event}): first one {!Bm_gpu.Stats.Tb_columns}
    hand-off per kernel, then every kernel, copy and spill event as it
    happens.  TB dispatches, finishes and dependency satisfactions are
    not sent: the engine stamps each one's emission ordinal into one int
    column per traced app, allocated once, and the hand-offs carry it
    with the [Stats] time columns, so a traced run allocates nothing per
    TB event.  When absent the simulator emits nothing and allocates no
    ordinal column.  Copy-engine [Copy_start] events can be future-dated
    relative to surrounding events — consumers must sort by timestamp
    ([Bm_report.Trace] does).  Neither hook ever alters simulation
    results: cycle counts are bit-identical with and without them.

    @raise Invalid_argument beyond the packed-event bound (message names
    [Sim.run]), or when [deadlines] does not hold one key per launch under
    an EDF mode. *)

(** One app handed to the engine. *)
type app = {
  a_sched : Graph.schedule;
  a_trace : Bm_gpu.Stats.sink option;
      (** receives the app's events, as {!run}'s [trace] does, with
          app-local kernel, stream and command ids; each app has its own
          TB columns and ordinals *)
  a_deadlines : float array option;  (** EDF key overrides, as for {!run} *)
}

type outcome = {
  o_stats : Bm_gpu.Stats.t array;
      (** per app, app-local kernel numbering; the per-TB timing columns
          are the engine's own arrays, which it no longer touches *)
  o_makespan_us : float;  (** completion time of the last app *)
  o_busy_us : float;  (** machine-wide time with >= 1 running TB *)
  o_avg_concurrency : float;  (** machine-wide mean running TBs over the makespan *)
  o_events : int;  (** events the engine processed *)
}

val run_schedules :
  caller:string ->
  ?host_blocking_copies:bool ->
  ?metrics:Bm_metrics.Metrics.t ->
  ?corun_metrics:Bm_metrics.Metrics.t ->
  ?slices:Bm_gpu.Config.t array ->
  ?admission:int array array ->
  Bm_gpu.Config.t ->
  Mode.t ->
  app array ->
  outcome
(** The engine itself.  Without [slices] every app shares the machine
    [cfg] (one slot pool, one copy and one launch engine); with them app
    [i] runs alone on [slices.(i)] with private resources.  [admission],
    when given, holds a global enqueue rank per app per launch: a kernel
    enters the launch queue only when every lower rank has, and host issue
    then runs to a fixpoint across apps.

    [metrics] receives the families {!run} documents and nothing else;
    [corun_metrics] the [multi.*] families {!Multi.run} documents.
    [host_blocking_copies] means what it means for {!run}.  [caller]
    prefixes every failure message (packed-event bound, stalled host,
    kernel that never completed).  Raises [Invalid_argument] on an empty
    app array, or when [slices] or [admission] do not match the apps. *)
