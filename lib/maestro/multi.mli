(** Cross-app concurrent execution (ROADMAP item 4).

    [Multi.run] takes N independently prepared apps and runs them on one
    machine at once:

    - a {e submission policy} decides the order in which kernels from
      different apps may enter the device's launch queue ([Fifo] drains
      whole apps in order, [Round_robin] interleaves one kernel per app,
      [Packed] greedily admits the app whose next kernel has the fewest
      TBs — the small-kernel packing of "Reordering GPU Kernel Launches
      to Enable Efficient Concurrent Execution");
    - a {e spatial policy} decides how SMs are shared: [Shared] is a
      free-for-all over one TB-slot pool, one copy engine and one launch
      engine (MPS-style, contention is real); [Partitioned [|s0;..|]]
      gives app [i] a private slice of [s_i] SMs with its own slot pool,
      engines and proportional DLB/PCB capacity (MIG-style, full
      isolation — see {!Bm_gpu.Config.with_sms}).

    There is no co-run engine here.  [run] validates its input, lowers
    each app with {!Graph.schedule_of_prep}, turns the submission policy
    into global admission ranks and hands everything to
    {!Sim.run_schedules} — the engine {!Sim.run} and {!Replay.run} use for
    one app.  A submission policy is only an admission order; the ranks
    gate kernel enqueue on a shared machine with two or more apps, and
    partition slices skip the gate.

    Two exactness properties are therefore structural, and the
    differential suite (test/test_multi.ml) still checks both:

    - {e degeneracy}: [run [| prep |]] under [Shared] is the same engine
      call as [Sim.run] — cycle-exact and trace-byte-identical;
    - {e partition isolation}: under [Partitioned], each app's stats and
      trace are identical to its solo [Sim.run] on [with_sms cfg s_i].
      Each app owns its slice's resources and a clock advanced only at
      its own events, so even float accumulation follows the solo op
      sequence bit-for-bit.

    Under [Shared], per-app busy/concurrency figures still integrate
    only that app's own running TBs; machine-wide figures are reported
    in the {!result}.  There is no app cap: events index kernels and
    commands flat across apps, bounded only by the packed-event bound of
    2{^30} summed launches or commands (see {!Sim}).

    With [?metrics], the run registers contention instrumentation:
    machine-wide [multi.dlb.occupancy] / [multi.pcb.occupancy] gauges and
    [multi.*.spill_bytes] / [multi.*.evicted_entries] counters (backed by
    {!Hardware.Occupancy}, so release-below-zero is a failure, not a
    skewed metric), plus per-app attribution under [multi.app.<i>.*]
    ([dlb.occupancy], [pcb.occupancy], [dlb.spill_bytes],
    [pcb.spill_bytes], [tb.dispatched], [total_us]).  Per-app counters
    sum to their machine-wide twins by construction. *)

type submission = Fifo | Round_robin | Packed

type spatial =
  | Shared  (** one slot pool, one copy/launch engine, contended tables *)
  | Partitioned of int array
      (** SMs granted to each app (disjoint slices; lengths must match
          the app count, each at least 1, summing to at most
          [cfg.num_sms]) *)

type result = {
  mr_stats : Bm_gpu.Stats.t array;
      (** per-app statistics, app-local kernel numbering — directly
          comparable to that app's solo [Sim.run] result *)
  mr_makespan_us : float;  (** completion time of the last app *)
  mr_busy_us : float;  (** machine-wide time with >= 1 running TB *)
  mr_avg_concurrency : float;  (** machine-wide mean running TBs *)
  mr_slots : int array;
      (** TB-slot budget visible to each app: the shared pool size, or
          its partition's capacity *)
}

val submission_name : submission -> string
val submission_of_string : string -> submission option

val spatial_name : spatial -> string
(** ["shared"] or ["partitioned:14+14"]-style. *)

type admission = {
  adm_app : int;
  adm_deadline_us : float;
  adm_lower_us : float;
      (** provable lower bound on the app's makespan under any policy
          ({!Deadline.min_makespan_us} on the slots it would be granted) *)
  adm_admitted : bool;  (** false iff [adm_deadline_us < adm_lower_us] *)
}

val partition_error : Bm_gpu.Config.t -> napps:int -> int array -> string option
(** Why [Partitioned slices] is malformed for [napps] apps on [cfg] — a
    slice count other than [napps], an empty slice, or slices summing past
    [cfg.num_sms] — or [None] when it is well formed.  {!admit} and {!run}
    raise [Invalid_argument] with this reason after their own name. *)

val admit :
  ?spatial:spatial -> Bm_gpu.Config.t -> deadlines:float array -> Prep.t array -> admission array
(** Deadline admission control: reject every app whose deadline is
    provably unmeetable — below the analytical lower bound on its
    makespan.  Under [Partitioned] the bound is computed on each app's
    slice; under [Shared] on the whole machine (optimistic, hence still a
    sound rejection).  Raises [Invalid_argument] when [deadlines] does not
    have one entry per app or on a malformed partition. *)

val run :
  ?submission:submission ->
  ?spatial:spatial ->
  ?metrics:Bm_metrics.Metrics.t ->
  ?traces:Bm_gpu.Stats.sink option array ->
  Bm_gpu.Config.t ->
  Mode.t ->
  Prep.t array ->
  result
(** [run cfg mode preps] co-runs the prepared apps to completion.
    Defaults: [~submission:Fifo], [~spatial:Shared].  [?traces], when
    given, must have one (optional) sink per app; each sink receives what
    [Sim.run ~trace] sends — its app's kernel, copy and spill events and
    one TB-column hand-off per kernel, the app's own columns — with
    app-local kernel/stream/command ids, so a per-app trace is directly
    comparable to the solo trace.  Raises [Invalid_argument] on malformed
    partitions (the {!partition_error} reason) or beyond the packed-event
    bound, and [Failure] on scheduler deadlock (host stalled) or an app
    that never completes — the same loud-failure contract as [Sim.run]. *)
