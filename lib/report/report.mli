(** Formatting and summary statistics for the experiment harness. *)

val geomean : float list -> float
(** Geometric mean over the positive entries; non-positive entries are
    skipped (a zero or negative factor has no geometric-mean
    interpretation).
    @raise Invalid_argument on an empty list, or when no positive entries
    remain — the same empty contract as {!mean}. *)

val mean : float list -> float
(** Arithmetic mean.
    @raise Invalid_argument on an empty list — the same empty contract as
    {!geomean}. *)

val quartiles : float array -> float * float * float
(** (q1, median, q3) by linear interpolation over the entries sorted once;
    NaN entries are skipped.
    @raise Invalid_argument when no non-NaN entries remain. *)

val percentile : float array -> float -> float
(** [percentile xs p] for p in [0, 100] by linear interpolation over the
    sorted non-NaN entries ([compare] would order NaN below every float and
    silently shift ranks, so NaNs are dropped instead).
    @raise Invalid_argument when [p] is outside [0, 100] (or NaN), and when
    no non-NaN entries remain. *)

val percentiles : float array -> float array -> float array
(** [percentiles xs ps] is [Array.map (percentile xs) ps], sorting [xs]
    once.  The sort is [Array.sort compare]'s on unboxed floats, so ties
    such as [0.0] and [-0.0] interpolate exactly as they did through
    [Array.sort]. *)

val utf8_length : string -> int
(** Unicode scalar count of a UTF-8 string (non-continuation bytes);
    invalid bytes count one column each.  {!to_string} aligns columns by
    this measure, not [String.length], so multi-byte cells don't skew
    tables. *)

type table

val table : title:string -> columns:string list -> table
val row : table -> string list -> unit
val to_string : table -> string
(** Render with aligned columns. *)

val print : table -> unit
(** [to_string] to stdout. *)

val pct : float -> string
(** "+51.8%" style formatting of a speedup factor (1.518 -> "+51.8%"). *)

val f2 : float -> string
(** Two-decimal float. *)

val csv_field : string -> string
(** RFC 4180 CSV field quoting: fields containing commas, double quotes or
    newlines are wrapped in double quotes with inner quotes doubled; all
    other fields pass through unchanged.  Shared by every CSV exporter
    ({!Bm_report.Trace}, [Bm_metrics]). *)
