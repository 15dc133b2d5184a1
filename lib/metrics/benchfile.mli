(** Schema-versioned [BENCH_<n>.json] trajectory files.

    [bench --json FILE] snapshots per-(app, mode) simulated results plus the
    host pipeline's wall-clock spans; [bench --compare OLD.json] diffs the
    {e simulated cycles} — deterministic, so any delta is a real behavior
    change rather than timer noise — and exits non-zero past a threshold.
    Wall-clock spans are recorded for trend inspection but never gated on. *)

val schema_version : int
(** Current writer/reader schema ([1]).  {!of_json} rejects other
    versions. *)

type mode_result = {
  mr_mode : string;
  mr_total_us : float;        (** simulated wall time of the app *)
  mr_cycles : float;          (** [mr_total_us] in GPU core cycles *)
  mr_speedup : float;         (** vs. the app's baseline-mode run *)
  mr_dlb_high_water : float;  (** peak DLB entry demand *)
  mr_pcb_high_water : float;  (** peak PCB counter demand *)
  mr_mem_overhead_pct : float;
}

type app_result = {
  ar_app : string;
  ar_pipeline_us : (string * float) list;  (** span path -> wall microseconds *)
  ar_modes : mode_result list;
}

type t = {
  bf_schema : int;
  bf_config : (string * string) list;  (** the GPU config the run used *)
  bf_apps : app_result list;
}

(** {1 Serialization} *)

val to_json : t -> Json.t
val to_string : t -> string
(** Pretty-printed {!to_json}. *)

val of_json : Json.t -> (t, string) result
val of_string : string -> (t, string) result

val load : string -> (t, string) result
(** [Error] covers unreadable files, malformed JSON and schema mismatch. *)

(** {1 Comparison} *)

type delta = {
  d_app : string;
  d_mode : string;
  d_old_cycles : float;
  d_new_cycles : float;
  d_pct : float;
      (** [(new - old) / old * 100]; positive = slower.  When the old record
          is zero cycles (empty app, degenerate mode) the ratio is undefined:
          [d_pct] is [infinity] if the new run has any cycles (a regression
          at every threshold) and [0.] if both are zero. *)
}

val deltas : old:t -> t -> delta list
(** One delta per (app, mode) present in both files (current-file order);
    pairs missing from [old] — e.g. newly added suite apps — are skipped. *)

val regressions : threshold_pct:float -> delta list -> delta list
(** Deltas whose slowdown exceeds the threshold. *)

val delta_table :
  ?title:string -> threshold_pct:float -> delta list -> Bm_report.Report.table
