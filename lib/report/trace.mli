(** Structured simulation event traces.

    The simulator ({!Bm_maestro.Sim.run}) accepts an optional event sink;
    pass {!sink} on a collector created with {!create} to record every
    kernel/TB/copy lifecycle event with its timestamp.  The collector can
    then be exported (Chrome [trace_event] JSON for chrome://tracing or
    Perfetto, or flat CSV), summarized as report tables, or — the reason
    this module lives in the test story — validated with {!check} against
    the paper's scheduling contracts.

    Collection order is not chronological: copy-engine starts are
    future-dated when the copy is scheduled.  {!events} stable-sorts by
    timestamp, and every consumer in this module works on that order. *)

type entry = { ts : float; ev : Bm_gpu.Stats.event }

type t
(** A mutable event collector. *)

val create : unit -> t

val sink : t -> float -> Bm_gpu.Stats.event -> unit
(** [sink t] is a {!Bm_gpu.Stats.sink}; pass it as [Sim.run ~trace]. *)

val length : t -> int

val events : t -> entry array
(** All recorded entries, stable-sorted by timestamp (ties keep emission
    order). *)

(** {1 Derived counters} *)

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

val kernel_counters : t -> kernel_counters array
(** Per-kernel lifecycle counters, sorted by sequence number. *)

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
