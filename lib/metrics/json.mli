(** Minimal dependency-free JSON tree with a deterministic emitter and a
    strict parser.

    Used by the metrics registry ({!Metrics}), the span profiler ({!Prof})
    and the BENCH trajectory files ({!Benchfile}); kept tiny on purpose —
    the repo carries no third-party JSON dependency. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val to_string : ?pretty:bool -> t -> string
(** Serialize.  Object fields keep insertion order, so output is
    deterministic and diffs cleanly.  Non-finite numbers emit [null]
    (JSON has no NaN); integral floats emit without a decimal point.
    [pretty] adds two-space indentation and a trailing newline. *)

val of_string : string -> (t, string) result
(** Strict parse of a complete JSON document (trailing garbage is an
    error).  [\u] escapes decode to UTF-8.  Numbers follow the RFC 8259
    grammar exactly: OCaml-only literals ([nan], [infinity], [1_000],
    [0x1p3], leading [+], bare [.5] / [5.]) are rejected, so BENCH files
    produced by other tools cannot round-trip garbage. *)

val member : string -> t -> t option
(** Field lookup; [None] on missing field or non-object. *)

val to_float : t -> float option
(** [Num x] gives [x]; [Null] gives [nan] (the emitter's encoding of
    non-finite values); anything else [None]. *)

val to_int : t -> int option
val to_str : t -> string option
val to_list : t -> t list option
val to_obj : t -> (string * t) list option
