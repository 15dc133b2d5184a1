(** Exact stall attribution over an event trace.

    Decomposes every cycle of the makespan, on every resource class, into
    exclusive buckets derived purely from the event stream ({!Trace}
    entries recorded from [Sim.run ~trace] or [Replay.run ~trace] — the
    two emit byte-identical streams, so attribution does not depend on
    which ran).  The resources:

    - [Slots]: the TB-slot pool ([num_sms * max_tbs_per_sm] units) — the
      machine's compute capacity at the paper's scheduling granularity;
    - [Copy_engine], [Launch_engine]: one unit each.

    {b Conservation theorem.}  Timestamps are quantized to integer ticks
    (2^20 per microsecond) and each inter-event segment assigns
    every resource unit to exactly one bucket, so for every resource the
    bucket row sums to [makespan_ticks * weight] {e exactly} — an integer
    identity, checked by {!conservation} and enforced over the whole
    suite x mode matrix in test/test_attrib.ml and in CI.

    Free-slot classification priority (first match wins): ready TBs held
    back by dispatch policy ([Slot_starved]) > launched TBs waiting on
    dependencies ([Dep_wait]) > kernels mid-launch ([Launch_overhead]) >
    full stream windows with pending launches ([Window_blocked]) > copies
    in flight ([Copy_blocked]) > [Idle] (host-side gaps: mallocs, issue).
    Kernel-granular modes gate a dependent kernel's TBs on its stream
    predecessor's drain; fine-grain modes use per-TB [Dep_satisfied]
    events (see {!Parse.dep_tick}). *)

(** {1 Ticks} *)


val ticks_of_us : float -> int
(** Nearest-tick quantization.  @raise Invalid_argument at or beyond
    2{^58} ticks in magnitude (about 76 simulated hours), the range in
    which {!of_parsed}'s packed (tick, field, sign) deltas fit an [int]. *)

val us_of_ticks : int -> float

(** {1 Buckets and resources} *)

type bucket =
  | Exec             (** resource unit doing useful work *)
  | Dep_wait         (** free while launched TBs wait on dependencies *)
  | Slot_starved     (** free while ready TBs are withheld by policy *)
  | Window_blocked   (** free while a full stream window blocks launches *)
  | Copy_blocked     (** free while only copies are in flight *)
  | Launch_overhead  (** free while kernels are mid-launch *)
  | Idle             (** nothing device-side in flight (host gaps) *)

val buckets : bucket list
val bucket_index : bucket -> int
val bucket_name : bucket -> string

type resource = Slots | Copy_engine | Launch_engine

val resources : resource list
val resource_name : resource -> string

type machine = {
  ma_slots : int;   (** TB-slot pool size ({!Bm_gpu.Config.total_tb_slots},
                        or the app's share under partitioned co-running) *)
  ma_window : int;  (** pre-launch window of the simulated mode *)
  ma_fine : bool;   (** fine-grain dependency resolution? *)
}

val weight : machine -> resource -> int
(** Resource units: [ma_slots] for [Slots], 1 for each engine. *)

(** {1 Event-stream reconstruction}

    Shared with {!Critpath}.  Kernels come from the trace's kernel table
    ({!Trace.kernels}): a kernel is what its [Kernel_enqueue] says, and a
    TB or [Dep_satisfied] event never names one.  One pass over the sorted
    entries and TB finishes ({!Trace.stream}, each timestamp quantized
    once into [p_ticks]) rebuilds copy spans; per-TB
    dispatch/finish/dep ticks are read straight off the trace's TB
    columns ({!Trace.tb_columns}), with no TB event records in between.
    Kernels live in an array indexed by seq, and each kernel's TB stamps
    in [int array]s indexed by TB id.  [-1] marks an unrecorded stamp, so
    a TB with no parents ([-1]) stays distinct from one whose last parent
    finished at tick 0.  Synthetic traces need not be well formed: sparse
    seqs, TB ids beyond the enqueued count, events before
    [Kernel_enqueue] and unmatched copy events are all accepted.  Events
    naming a negative id, and a repeated TB event (which {!Trace.sink}
    keeps as an entry), are ignored.  Memory grows with the largest seq
    and TB id in the trace (the engine numbers both densely from 0). *)
module Parse : sig
  type kernel = {
    k_seq : int;
    k_known : bool;
        (** a [Kernel_*] entry named the seq ({!Trace.named}); an unknown
            seq only holds TB stamps *)
    k_stream : int;  (** from its [Kernel_enqueue]; [0] without one *)
    k_tbs : int;     (** enqueued TB count; [0] without an enqueue *)
    k_enqueue : int;
    k_launched : int;
    k_drained : int;
    k_completed : int;
    k_has_deps : bool;  (** its dep column holds a [Dep_satisfied] *)
    mutable k_prev : int;  (** stream predecessor seq, [-1] for the first *)
    k_dispatch : int array;  (** per TB id *)
    k_finish : int array;
    k_dep : int array;  (** the TB's [Dep_satisfied] tick *)
  }

  type copy = { c_cmd : int; c_d2h : bool; c_blocking : bool; c_start : int; c_finish : int }

  type t = {
    p_trace : Trace.t;
    p_codes : int array;  (** the entries and TB finishes, as {!Trace.stream}: sorted once *)
    p_ticks : int array;  (** [p_codes]' timestamps, quantized; ascending *)
    p_events : int;  (** events in the trace *)
    p_seqs : kernel array;  (** indexed by seq, for every seq up to the largest *)
    p_kernels : kernel array;  (** the known kernels, by stream, then seq *)
    p_copies : copy array;  (** matched start/finish pairs, by (start, cmd) *)
    p_makespan : int;
  }

  val of_trace : Trace.t -> t

  val kernel_of : t -> int -> kernel option
  (** The known kernel with this seq. *)

  val identity : t -> (unit, string) result
  (** [Ok ()] iff every seq with TB columns is a known kernel whose
      enqueued TB count is its column length. *)

  val dep_tick : t -> machine -> kernel -> int -> int
  (** [dep_tick p machine k tb] is the tick TB [tb]'s dependencies
      released it: its own [Dep_satisfied] tick under fine-grain
      resolution, or its stream predecessor's drain tick under
      kernel-granular gating (kernels with no dependency events are
      treated as independent — the relation kind itself is not in the
      stream); [-1] when none. *)

  val ready_tick : t -> machine -> kernel -> int -> int
  (** The tick a TB became schedulable: [max launch (dep_tick ...)], or
      [0] when its seq is not a known kernel. *)
end

(** {1 Attribution} *)

type t = {
  at_machine : machine;
  at_makespan_ticks : int;
  at_cells : int array array;  (** [[resource][bucket_index]] ticks, resources in {!resources} order *)
  at_kernel_exec : (int * int) array;
      (** per-kernel exec slot-ticks, descending (ties by seq) *)
  at_series : (int * int array) array;
      (** slot-pool bucket counts per segment (start tick, one count per
          bucket) — the Chrome counter-track series; empty unless
          [~series:true] *)
}

val of_trace : ?series:bool -> machine -> Trace.t -> t
val of_parsed : ?series:bool -> machine -> Parse.t -> t

val makespan_us : t -> float
val cell : t -> resource -> bucket -> int
val exec_ticks : t -> int
(** Busy slot-ticks: equals the quantized sum of per-TB execution times
    (cross-checked against the [Stats] TB columns in the tests). *)

val conservation : t -> (unit, string) result
(** [Ok ()] iff every resource row sums to [makespan x weight] exactly and
    no cell is negative.  Any divergence reports the offending resources
    and integer tick deltas. *)

val share : t -> resource -> bucket -> float
(** Percentage of the resource's total time in the bucket. *)

val table : ?title:string -> t -> Report.table
