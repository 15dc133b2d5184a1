(** Typed counter/gauge/histogram registry.

    Subsystems receive an optional registry ([?metrics], mirroring the
    [?trace] sink pattern of {!Bm_maestro.Sim.run}): when absent,
    instrumentation sites reduce to one option match and the hot loops pay
    nothing — no allocation, no sampling.  When present:

    - {e counters} accumulate monotonically (spill bytes, masked launch
      microseconds, copy traffic);
    - {e gauges} keep a last value, a high-water mark and a
      (timestamp, value) time series (DLB/PCB occupancy over simulated
      time);
    - {e histograms} retain every sample, so the percentile summaries
      produced by {!snapshot} are {e exact} (computed with
      {!Bm_report.Report.percentile}), not bucketed approximations.

    Metric handles are found-or-created by name; re-registering a name with
    a different kind raises [Invalid_argument].  Look up a handle once
    outside the hot loop, then mutate it. *)

type t
(** A mutable registry. *)

type counter
type gauge
type histogram

val create : unit -> t

(** {1 Registration (find-or-create by name)} *)

val counter : t -> string -> counter
val gauge : t -> string -> gauge
val histogram : t -> string -> histogram

(** {1 Recording} *)

val incr : counter -> unit
val add : counter -> float -> unit
val counter_value : counter -> float

val set : gauge -> at:float -> float -> unit
(** Record a sample: updates the last value and the high-water mark and
    appends [(at, value)] to the time series.  [at] is whatever clock the
    caller uses (the simulator passes simulated microseconds). *)

val gauge_value : gauge -> float
val high_water : gauge -> float
(** Highest value ever set; [0.0] for a never-set gauge. *)

val observe : histogram -> float -> unit

(** {1 Merging} *)

val merge : into:t -> t -> unit
(** Fold [src] into [into]: counters add, gauges replay their
    (timestamp, value) series in sample order (so the destination's last
    value, high-water mark and series extend deterministically), histograms
    pool samples.  Metrics missing from [into] are registered.  Registries
    are single-domain; parallel sweeps ({!Bm_parallel}) give each task its
    own registry and merge after the pool drains, in task order, so the
    merged registry is identical regardless of domain count.
    @raise Invalid_argument when a name is registered with different kinds
    in the two registries. *)

(** {1 Lookup} *)

val find_counter : t -> string -> counter option
val find_gauge : t -> string -> gauge option
val find_histogram : t -> string -> histogram option

(** {1 Snapshots} *)

type counter_summary = { cs_name : string; cs_value : float }

type gauge_summary = {
  gs_name : string;
  gs_last : float;
  gs_high : float;
  gs_series : (float * float) array;  (** (timestamp, value), sample order *)
}

type histogram_summary = {
  hs_name : string;
  hs_count : int;
  hs_min : float;   (** NaN when empty, like every other summary field *)
  hs_max : float;
  hs_mean : float;
  hs_p25 : float;
  hs_p50 : float;
  hs_p75 : float;
  hs_p90 : float;
  hs_p99 : float;
}

type snapshot = {
  sn_counters : counter_summary array;
  sn_gauges : gauge_summary array;
  sn_histograms : histogram_summary array;
}

val snapshot : t -> snapshot
(** Immutable copy in registration order.  Histogram percentiles are exact
    ({!Bm_report.Report.percentile} over all retained samples). *)

(** {1 Exporters} *)

val to_json : snapshot -> Json.t
(** Every metric, gauges with their full time series. *)

val to_csv : snapshot -> string
(** One row per metric; names quoted with {!Bm_report.Report.csv_field}. *)

val table : ?title:string -> snapshot -> Bm_report.Report.table
