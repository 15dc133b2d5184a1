(** Structured simulation event traces.

    The simulator ({!Bm_maestro.Sim.run}) accepts an optional event sink;
    pass {!sink} on a collector created with {!create} to record every
    kernel/TB/copy lifecycle event with its timestamp.  The collector can
    then be exported (Chrome [trace_event] JSON for chrome://tracing or
    Perfetto, or flat CSV), summarized as report tables, or — the reason
    this module lives in the test story — validated with {!check} against
    the paper's scheduling contracts.

    TB events are held as columns, not records.  The engine hands over
    each kernel's per-TB time and ordinal columns once
    ({!Bm_gpu.Stats.Tb_columns}), and a TB event sent on its own is
    stamped into columns of the same shape; the kernel, copy and spill
    events are kept as entries.  A collector records one run.

    Collection order is not chronological: copy-engine starts are
    future-dated when the copy is scheduled.  {!events} rebuilds the
    stream and stable-sorts it by timestamp, and every consumer in this
    module works on that order. *)

type entry = { ts : float; ev : Bm_gpu.Stats.event }

type t
(** A mutable event collector. *)

val create : unit -> t

val sink : t -> float -> Bm_gpu.Stats.event -> unit
(** [sink t] is a {!Bm_gpu.Stats.sink}; pass it as [Sim.run ~trace].  A
    TB event sent on its own fills its TB's slot in its kernel's columns;
    a repeat of a filled slot, or an event with a negative or
    beyond-2{^30} seq or TB id, is kept as an entry instead: {!events},
    {!check} and the exporters see it, {!tb_columns} does not.  Columns
    grow with the largest seq and TB id.
    @raise Invalid_argument on a second {!Bm_gpu.Stats.Tb_columns}
    hand-off for one kernel. *)

val length : t -> int
(** Events recorded, TB events included. *)

val events : t -> entry array
(** All recorded events, TB events rebuilt from the columns, stable-sorted
    by timestamp: ties keep emission order.
    @raise Invalid_argument when the columns' TB ordinals do not fit the
    events recorded (two runs into one collector). *)

(** {1 The stream without TB records}

    What {!Attrib.Parse} reads instead of {!events}. *)

val stream : ?tb_kinds:int list -> t -> int array * float array * int array
(** The events of {!events}, in its order, as int codes, with their
    timestamps and emission ordinals; with [tb_kinds], of the TB events
    only those kinds.  A TB
    event's code is [kind lor (tb lsl 2) lor (seq lsl 32)], [kind] 0 for
    [Dep_satisfied], 1 [Tb_dispatch], 2 [Tb_finish]; any other event's
    code has both low bits set.  Raises as {!events} does. *)

val entry : t -> int -> entry
(** The entry a code of {!stream} with both low bits set stands for. *)

type columns = private {
  mutable tbs : int;  (** TB ids [0 .. tbs - 1] *)
  mutable times : float array array;
      (** [times.(kind).(tb)]: kind 0 [Dep_satisfied], 1 [Tb_dispatch],
          2 [Tb_finish] *)
  mutable ords : Bytes.t;  (** the ordinals, laid out as {!Bm_gpu.Stats.Tb_columns}'s [order] *)
  at : int;
  engine : bool;  (** the engine's {!Bm_gpu.Stats.Tb_columns}, not grown here *)
}


val stamps : columns -> kind:int -> (float -> int) -> int array
(** [f] of each TB's time for events of that kind, [-1] where none was
    recorded. *)

val tb_columns : t -> columns array
(** Each kernel's TB columns, indexed by seq up to the largest seq with
    any; a seq without them has [tbs = 0].  The arrays are the
    collector's, for an engine run the engine's [Stats] columns. *)

(** {1 The kernel table and derived counters} *)

type kernel_counters = {
  kc_seq : int;
  kc_stream : int;
  kc_tbs : int;
  kc_dispatched : int;
  kc_finished : int;
  kc_deps : int;          (** dependency-satisfaction events observed *)
  kc_enqueue : float;     (** nan when the event was not recorded *)
  kc_launched : float;
  kc_drained : float;
  kc_completed : float;
}

type totals = {
  tot_events : int;
  tot_kernels : int;
  tot_tbs : int;
  tot_copies : int;
  tot_copy_bytes : int;
  tot_dlb_spills : int;
  tot_pcb_spills : int;
  tot_max_running : int;   (** peak concurrently running TBs *)
  tot_max_resident : int;  (** peak resident kernels across streams *)
}

val kernels : t -> kernel_counters array
(** The kernel table, indexed by seq up to the largest seq that a
    [Kernel_*] entry or the TB columns name; the one place a trace says
    what a kernel is.  A kernel's stream and TB count come from its
    [Kernel_enqueue] ([0] without one); each lifecycle stamp is the last
    such event in {!events}' order; the TB counts come from the columns.
    A TB event or a [Dep_satisfied] never names a kernel, and entries
    naming a negative seq, or TB events kept as entries, are not
    counted. *)

val named : kernel_counters -> bool
(** A [Kernel_*] entry named the row's seq: it has a lifecycle stamp. *)

val kernel_counters : t -> kernel_counters array
(** The rows of {!kernels} that are {!named} or have a TB event. *)

val totals : t -> totals

val summary_table : ?title:string -> t -> Report.table
val totals_table : ?title:string -> t -> Report.table

val render : ?width:int -> Bm_gpu.Stats.t -> t -> string
(** Timeline + both tables, for terminal display. *)

(** {1 Invariant checker} *)

val check : window:int -> slots:int -> t -> (unit, string list) result
(** Replay the trace and validate the scheduling contracts:

    - kernel lifecycle: enqueue, launch, drain, complete — in order, each
      exactly once; every TB dispatched and finished exactly once.
    - dependencies: no TB is dispatched before its dependency-satisfaction
      event (the paper's [r_start >= r_dep_ready]).
    - in-order completion: per stream, kernels complete in ascending
      sequence order, and only after fully draining (§III-B.1).
    - window: at most [window] kernels resident per stream at any instant
      ([window] is {!Bm_maestro.Mode.window} of the simulated mode).
    - capacity: at most [slots] TBs running at any instant ([slots] is
      {!Bm_gpu.Config.total_tb_slots}).

    [Error msgs] lists at most 25 violations plus a truncation note. *)

(** {1 Exporters} *)

val to_chrome_json :
  ?meta:(string * string) list ->
  ?counters:(string * (float * (string * float) list) list) list ->
  t ->
  string
(** Chrome [trace_event] JSON (the object variant with a ["traceEvents"]
    array).  Kernels render as complete spans per stream, TBs as spans per
    kernel, copies as spans on the copy-engine track; dependency
    satisfactions and DLB/PCB spills render as instant events.  [meta]
    key/values (e.g. {!Bm_gpu.Config.to_assoc}) land in ["otherData"].
    [counters] adds counter ("C") tracks on a dedicated pid: one
    [(track, samples)] per track, each sample a timestamp with named
    series values — the viewer stacks the series into an area chart
    (used for the {!Attrib} bucket time-series). *)

val to_csv : ?name_of:(int -> string) -> t -> string
(** Flat [ts,event,kernel,tb,stream,cmd,bytes] rows, one per event.
    [name_of] adds a [name] column after [kernel], resolving a kernel
    sequence number to its name.  All textual fields (event names, kernel
    names) go through {!Report.csv_field}, so names containing commas,
    quotes or newlines cannot corrupt a row. *)
