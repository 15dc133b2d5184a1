(** Shared JSON codec helpers for the persistence layers.

    {!Graph} (captured schedules) and {!Store} (the disk-backed analysis
    cache) persist the same kinds of values — bit-pattern floats, integer
    arrays, Table-I encoded relations — and must agree on the encoding:
    both replay and disk-warm preparation are required to be bit-identical
    to the fresh computation.  Decoders raise {!Bad} on any malformed
    input; the persistence layers catch it at their [of_json] boundary and
    turn it into a [Corrupt] miss/error, so {!Bad} never escapes to
    callers. *)

exception Bad of string

val bad : ('a, unit, string, 'b) format4 -> 'a
(** [raise (Bad (sprintf fmt ...))]. *)

val json_of_float : float -> Bm_metrics.Json.t
(** IEEE-754 bit pattern as a 16-hex-digit string: the plain JSON number
    emitter rounds to %.12g, which is lossy for jittered per-TB costs. *)

val float_of_json : what:string -> Bm_metrics.Json.t -> float
val int_of_json : what:string -> Bm_metrics.Json.t -> int
val str_of_json : what:string -> Bm_metrics.Json.t -> string
val list_of_json : what:string -> Bm_metrics.Json.t -> Bm_metrics.Json.t list
val field : what:string -> string -> Bm_metrics.Json.t -> Bm_metrics.Json.t
val int_field : what:string -> string -> Bm_metrics.Json.t -> int
val str_field : what:string -> string -> Bm_metrics.Json.t -> string
val int_array_of_json : what:string -> Bm_metrics.Json.t -> int array
val json_of_int_array : int array -> Bm_metrics.Json.t

(** {2 Delta + run-length packing}

    The disk store's bulk arrays persist as one JSON string of packed
    tokens rather than a JSON array: the generic parser boxes every number
    through a substring and [float_of_string], while a packed payload is a
    single string token scanned in one pass.  The store's integer payloads are dominated by structured sequences —
    monotone id lists, affine per-TB address progressions, step-function
    parent maps — whose successive differences are long runs of one
    constant.  The token stream covers the {e delta} sequence (the first
    delta is from 0): [D] is one delta, [N*D] repeats delta [D] [N]
    times.  Floats run-length over identical bit patterns instead
    ([HEX] / [N*HEX]) — repeated per-TB costs repeat exactly.  A
    structureless sequence degrades to one token per element.  Decoders
    cap the decoded element count, so a garbled repeat count raises
    {!Bad} rather than exploding an allocation. *)

val json_of_packed_ints_rle : int array -> Bm_metrics.Json.t
val packed_ints_rle_of_json : what:string -> Bm_metrics.Json.t -> int array
val json_of_packed_floats_rle : float array -> Bm_metrics.Json.t
val packed_floats_rle_of_json : what:string -> Bm_metrics.Json.t -> float array

val json_of_relation :
  n_parents:int -> n_children:int -> Bm_depgraph.Bipartite.relation -> Bm_metrics.Json.t
(** The relation in its pattern-aware Table I encoded form
    ({!Bm_depgraph.Encode.encode}). *)

val relation_of_json : Bm_metrics.Json.t -> Bm_depgraph.Bipartite.relation
(** Decode reconstructs the bipartite graph exactly (the Encode round-trip
    property).  @raise Bad on malformed input. *)

val json_of_relation_packed :
  n_parents:int -> n_children:int -> Bm_depgraph.Bipartite.relation -> Bm_metrics.Json.t
(** The packed twin of {!json_of_relation}, used by {!Store}: same kinds
    and fields, but every array payload is a packed-integer string
    ([windows] flatten to [first, len] pairs, [parents_of] rows are
    length-prefixed).  {!Graph} keeps the plain form — captured graphs are
    user-inspectable artifacts; store entries are a cache. *)

val relation_of_packed_json : Bm_metrics.Json.t -> Bm_depgraph.Bipartite.relation
(** @raise Bad on malformed input. *)
