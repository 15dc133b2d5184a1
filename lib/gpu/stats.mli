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
    analysis — [Bm_report.Trace] does this. *)
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

type sink = float -> event -> unit

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
