(** Deadline keys, EDF dispatch order, and response-time analysis.

    The {!Mode.Deadline_edf} family dispatches thread blocks across
    resident kernels in ascending order of a per-kernel {e deadline key}.
    By default the key of kernel [k] is the cumulative TB work of its
    stream prefix — the earliest tick by which that prefix could finish on
    an unbounded machine — which makes the default EDF order independent of
    any user-supplied absolute deadline.  Callers may override the keys
    per-kernel (e.g. a mixed-criticality app with one urgent kernel);
    {!effective} then applies priority inheritance so a producer blocking
    an urgent consumer is promoted to the consumer's key.

    The response-time analysis ({!bound_of_schedule}) computes a
    worst-case completion bound: the sum of every activity's duration
    (launch overheads, mallocs, copies, TB work).  The simulated
    clock only advances to the completion of some executing activity and
    each activity runs exactly once, so every makespan — any mode,
    simulated or replayed — is at most this bound; {!Bm_oracle.Rta} checks that claim
    empirically over the whole suite.  {!min_makespan_us} is the matching
    lower bound used for admission control: a deadline below it is
    provably unmeetable under every policy. *)

val default_keys_of_schedule : Graph.schedule -> float array
(** Cumulative per-stream TB work, indexed by launch seq.  A prep's keys
    are those of its lowering, {!Graph.schedule_of_prep}. *)

val effective : prev_of:int array -> float array -> float array
(** [effective ~prev_of keys] applies priority inheritance: each kernel's
    key becomes the minimum over its own key and every stream successor's
    effective key.  [prev_of.(k)] is [k]'s stream predecessor seq or -1. *)

val order_of_keys : prev_of:int array -> float array -> int array
(** Launch seqs sorted by (effective key ascending, seq ascending). *)

val order_of_schedule : ?deadlines:float array -> Graph.schedule -> int array
(** The static EDF dispatch order of a schedule (default keys).
    [deadlines] (per-kernel, indexed by seq) overrides the default keys;
    raises [Invalid_argument] on a length mismatch. *)

val bound_of_schedule : Bm_gpu.Config.t -> Mode.t -> Graph.schedule -> float
(** Worst-case makespan bound (microseconds): total serial work of every
    activity.  Sound for every mode, simulated or replayed. *)

val bound_of_prep : Bm_gpu.Config.t -> Mode.t -> Prep.t -> float
(** {!bound_of_schedule} of the prep's lowering. *)

val min_makespan_us : Bm_gpu.Config.t -> Prep.t -> float
(** Lower bound on any makespan: max of the widest single TB and total TB
    work divided by the machine's TB slots.  A deadline below this is
    provably unmeetable. *)

type report = {
  r_deadline_us : float;
  r_makespan_us : float;
  r_bound_us : float;        (** RTA bound at the mode the app ran under *)
  r_miss : bool;             (** makespan > deadline *)
  r_tardiness_us : float;    (** max 0 (makespan - deadline) *)
  r_slack_us : float;        (** deadline - makespan (negative on a miss) *)
  r_rta_violation : bool;    (** makespan > bound: the analysis was wrong *)
}

val report : deadline_us:float -> bound_us:float -> makespan_us:float -> report

val observe : Bm_metrics.Metrics.t -> report -> unit
(** Record the deadline outcome: [deadline.miss_count] counter,
    [deadline.tardiness_us] histogram, [deadline.slack_us] and
    [deadline.bound_us] gauges. *)

val pp_report : Format.formatter -> report -> unit
