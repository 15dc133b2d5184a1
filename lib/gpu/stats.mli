(** Simulation outcome metrics.

    Everything the paper's evaluation section reports is derived from these:
    total runtime (Fig. 9 speedups), time-weighted TB concurrency (Fig. 10),
    per-TB dependency-stall timings (Fig. 11), and memory request counts
    (Fig. 13). *)

(** Structured simulation events, emitted by the simulator through an
    optional {!sink} (see [Bm_maestro.Sim.run]'s [?trace] argument).
    Timestamps are passed alongside the event; copy-engine events may be
    future-dated (the engine start time is decided when the copy is
    scheduled), so consumers must order entries by timestamp before
    analysis — [Bm_report.Trace] does this.

    A sink attached to the engine receives the kernel, copy and spill
    events one at a time, and one {!Tb_columns} hand-off per kernel in
    place of that kernel's [Tb_dispatch], [Tb_finish] and [Dep_satisfied]
    events: the engine stamps those into columns instead of sending them.
    The three per-TB constructors remain for collectors that build a trace
    by hand, and for [Bm_report.Trace.events], which rebuilds them from
    the columns. *)
type event =
  | Kernel_enqueue of { seq : int; stream : int; tbs : int }
      (** The host issued the launch; the kernel occupies a slot of its
          stream's pre-launch window from this point. *)
  | Kernel_launched of { seq : int; stream : int }
      (** Launch processing finished; the kernel's TBs may be scheduled. *)
  | Kernel_drained of { seq : int; stream : int }
      (** Every TB of the kernel finished executing. *)
  | Kernel_completed of { seq : int; stream : int }
      (** The kernel retired (drained + stream predecessor completed):
          in-order completion, paper §III-B.1. *)
  | Tb_dispatch of { seq : int; tb : int }  (** TB began executing on an SM slot. *)
  | Tb_finish of { seq : int; tb : int }
  | Dep_satisfied of { seq : int; tb : int }
      (** The TB's last fine-grain parent dependency was satisfied.  Not
          emitted for TBs with no parents (their dependencies are vacuously
          satisfied at time 0). *)
  | Copy_start of { cmd : int; bytes : int; d2h : bool; blocking : bool }
      (** [blocking] marks synchronous host-stalling copies (baseline
          stream semantics); otherwise the copy engine ran it. *)
  | Copy_finish of { cmd : int; bytes : int; d2h : bool; blocking : bool }
  | Dlb_spill of { seq : int; needed : int; capacity : int }
      (** The kernel pair's dependency lists exceed the Dependency List
          Buffer; entries fall back to global memory. *)
  | Pcb_spill of { seq : int; needed : int; capacity : int }
      (** Child TB count exceeds the Parent Counter Buffer. *)
  | Tb_columns of {
      seq : int;
      dep_ready : float array;
      start : float array;
      finish : float array;
      order : Bytes.t;
      order_at : int;
    }
      (** The engine's per-TB columns for kernel [seq], handed over once,
          at time 0, before the run's first event, and filled while it
          runs: read them only after the run returns.  [dep_ready],
          [start] and [finish] are the {!t} columns of the kernel.
          The little-endian 32-bit int at byte
          [4 * (order_at + 3 * tb + i)] of [order] is the emission ordinal
          of the TB's [Dep_satisfied] ([i = 0]), [Tb_dispatch] ([i = 1])
          or [Tb_finish] ([i = 2]) event — the number of events the app
          had emitted before it, counting the ones the columns stand
          for — or [-1] when that event never happened.  One [order] may
          serve every kernel of the app, each at its own [order_at]; the
          engine refuses a traced app that could emit 2{^31} events.  (A
          [Bytes] column, unlike an [int array], is half the size and is
          never scanned by the garbage collector.)  A TB with no parents
          keeps [-1] at [i = 0] and [0.0] in [dep_ready]; a TB whose last
          parent finished at time 0 has an ordinal there.  The hand-off
          itself is not an event of the run and has no ordinal. *)

type sink = float -> event -> unit
(** Receives each event with its timestamp.  From the engine: one
    [Tb_columns] per kernel at time 0, then every [Kernel_*], [Copy_*]
    and [*_spill] event as it happens, and never a [Tb_dispatch],
    [Tb_finish] or [Dep_satisfied] (their times and ordinals are in the
    columns). *)

val event_name : event -> string
(** Stable snake_case tag, used by the CSV exporter and error messages. *)

(** Per-TB timing comes as three columns, each indexed
    [.(kernel).(tb)] with app-local launch sequence numbers: one float
    array per kernel, one entry per thread block of that launch.  The
    engine hands over the arrays it filled during the run without copying
    them, so a consumer must treat them as read-only. *)
type t = {
  total_us : float;
  busy_us : float;                 (** time during which at least one TB was running *)
  tb_dep_ready : float array array;
      (** when each TB's fine-grain data dependencies were satisfied
          (0.0 for a TB with no parents) *)
  tb_start : float array array;    (** when each TB was dispatched *)
  tb_finish : float array array;   (** when each TB finished *)
  avg_concurrency : float;         (** time-weighted mean number of running TBs *)
  base_mem_requests : float;       (** application (data) memory requests *)
  dep_mem_requests : float;        (** extra requests for dependency-list traffic *)
}

val tb_count : t -> int
(** Thread blocks over every kernel: the summed column lengths. *)

val stall_fractions : t -> float array
(** Per TB, kernel-major: (start - dep_ready) / duration — Fig. 11's
    normalized stall.  TBs with zero duration are skipped. *)

val speedup : baseline:t -> t -> float
(** baseline.total / this.total *)

val mem_overhead_pct : t -> float
(** dependency traffic as a percentage of data traffic (Fig. 13). *)

val busy_concurrency : t -> float
(** Mean running-TB count conditional on the device being busy — the
    utilization metric normalized in Fig. 10. *)
