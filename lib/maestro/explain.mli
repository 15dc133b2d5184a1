(** The "explain" layer: why a run took as long as it did.

    Orchestrates {!Bm_report.Attrib} (exact stall attribution) and
    {!Bm_report.Critpath} (critical-path extraction) over an actual
    simulation, and adds what-if sensitivity: re-running the app under a config with one cost zeroed bounds the speedup each
    overhead class could ever buy — an Amdahl-style "fix this first"
    ranking.  This is the engine behind [bmctl explain] and
    [bench/main.exe --explain].

    Every result carries its validation obligations explicitly:
    {!check} enforces the attribution conservation identity and the
    critical path's full [[0, makespan]] coverage; {!check_records}
    cross-checks event-derived busy slot-ticks against the simulator's own
    per-TB timing columns ({!Bm_gpu.Stats.t}'s [tb_start]/[tb_finish]) —
    two independent data paths that must agree
    on the same integer.  CI runs both over the whole suite. *)

type whatif = {
  wi_knob : string;       (** {!knobs} element *)
  wi_total_us : float;    (** makespan with that cost zeroed *)
  wi_speedup : float;     (** baseline total / zeroed total *)
}

type solo = {
  x_app : string;
  x_mode : Mode.t;
  x_total_us : float;  (** the run's [Stats.total_us] *)
  x_attrib : Bm_report.Attrib.t;
  x_critpath : Bm_report.Critpath.t;
  x_whatif : whatif list;  (** empty when what-if was skipped *)
}

val machine : ?slots:int -> Bm_gpu.Config.t -> Mode.t -> Bm_report.Attrib.machine
(** The attribution machine for a config/mode pair.  [slots] overrides
    the TB-slot pool size (an app's partition share under co-running). *)

(** {1 What-if knobs} *)

val knobs : string list
(** ["launch"] (kernel launch latency), ["copy"] (memcpy latency and
    bandwidth), ["malloc"] (allocation cost). *)

val zero_knob : Bm_gpu.Config.t -> string -> Bm_gpu.Config.t
(** The config with that cost zeroed.
    @raise Invalid_argument on an unknown knob. *)

(** {1 Running} *)

val run :
  ?cfg:Bm_gpu.Config.t ->
  ?whatif:bool ->
  ?series:bool ->
  ?cache:Cache.t ->
  Mode.t ->
  name:string ->
  Bm_gpu.Command.app ->
  solo
(** Simulate the app with a trace, attribute every cycle, extract the
    critical path, and (unless [~whatif:false]) re-simulate once per knob.
    The app is prepared once: the knobs are engine costs that the
    launch-time analysis never reads, so every run shares the traced
    run's {!Prep.t}.
    [series] additionally records the slot-pool bucket time-series for
    {!counter_series}. *)

val run_traced :
  ?cfg:Bm_gpu.Config.t ->
  ?whatif:bool ->
  ?series:bool ->
  ?cache:Cache.t ->
  Mode.t ->
  name:string ->
  Bm_gpu.Command.app ->
  solo * Bm_gpu.Stats.t * Bm_report.Trace.t
(** {!run}, also returning the run's statistics (for {!check_records})
    and the recorded trace (for re-export, e.g. Chrome JSON with the
    {!counter_series} tracks). *)

val corun :
  ?cfg:Bm_gpu.Config.t ->
  ?submission:Multi.submission ->
  ?spatial:Multi.spatial ->
  ?cache:Cache.t ->
  ?series:bool ->
  Mode.t ->
  (string * Bm_gpu.Command.app) array ->
  solo array * Multi.result
(** Co-run named apps ({!Multi.run} with per-app trace sinks) and
    attribute each app's own event stream against the slot budget it was
    actually granted ([mr_slots]).  Cross-tenant contention is not visible
    in a per-app stream, so it lands in host/idle time — the honest
    reading under [Shared].  What-if is skipped ([x_whatif = []]). *)

(** {1 Validation} *)

val check : solo -> (unit, string) result
(** Conservation ({!Bm_report.Attrib.conservation}), critical-path
    contiguity over exactly [[0, makespan]], and makespan agreement
    between the two analyses. *)

val check_records : solo -> Bm_gpu.Stats.t -> (unit, string) result
(** Event-derived busy slot-ticks equal the quantized sum of per-TB
    durations read from the [tb_start]/[tb_finish] columns. *)

val check_corun : solo array -> Multi.result -> (unit, string) result
(** {!check} + {!check_records} per app, plus: per-app exec ticks sum to
    the machine-wide total. *)

(** {1 JSON} *)

val to_json : solo -> Bm_metrics.Json.t
(** Stable encoding: exact quantities as integer ticks, display times
    rounded to 1e-4 us so that print → parse → print is byte-identical
    (the [bmctl explain --json] stability contract). *)

(** {1 Rendering and export} *)

val tables : ?top:int -> solo -> Bm_report.Report.table list
(** Attribution, critical-path summary, edge breakdown, top-[top]
    (default 5) contributors, and the what-if ranking when present. *)

val whatif_table : ?title:string -> solo -> Bm_report.Report.table

val export : ?prefix:string -> Bm_metrics.Metrics.t -> solo -> unit
(** Register [attrib.<resource>.<bucket>_us] / [critpath.*] counters and
    [whatif.<knob>.speedup] gauges, names prefixed by [prefix]. *)

val counter_series : solo -> (string * (float * (string * float) list) list) list
(** The slot-pool attribution time-series as Chrome counter tracks for
    {!Bm_report.Trace.to_chrome_json}; empty samples unless the solo was
    built with [~series:true]. *)
