(** Shared JSON codec helpers for the persistence layers.

    {!Graph} (captured schedules) and the disk-backed analysis store
    persist the same kinds of values — bit-pattern floats, integer
    arrays, Table-I encoded relations, cost profiles — through the same functions here,
    one codec per value: both replay and disk-warm preparation are
    required to be bit-identical to the fresh computation.  Decoders raise
    {!Bad} on any malformed input; the persistence layers catch it once,
    at their [of_json]/[find] boundary, and turn it into a [Corrupt]
    error or miss, so {!Bad} never escapes to callers. *)

exception Bad of string

val bad : ('a, unit, string, 'b) format4 -> 'a
(** [raise (Bad (sprintf fmt ...))]. *)

val json_of_float : float -> Bm_metrics.Json.t
(** IEEE-754 bit pattern as a 16-hex-digit string: the plain JSON number
    emitter rounds to %.12g, which is lossy for jittered per-TB costs. *)

val float_of_json : what:string -> Bm_metrics.Json.t -> float
val list_of_json : what:string -> Bm_metrics.Json.t -> Bm_metrics.Json.t list
val field : what:string -> string -> Bm_metrics.Json.t -> Bm_metrics.Json.t
val int_field : what:string -> string -> Bm_metrics.Json.t -> int
val str_field : what:string -> string -> Bm_metrics.Json.t -> string

(** {2 Delta + run-length packing}

    Bulk arrays persist as one JSON string of packed tokens rather than a
    JSON array: the generic parser boxes every number through a substring
    and [float_of_string], while a packed payload is a single string token
    scanned in one pass.  Persisted integer payloads are dominated by
    structured sequences — monotone id lists, affine per-TB address
    progressions, step-function parent maps — whose successive
    differences are long runs of one constant.  The token stream covers
    the {e delta} sequence (the first delta is from 0): [D] is one delta,
    [N*D] repeats delta [D] [N] times.  Floats run-length over identical
    bit patterns instead ([HEX] / [N*HEX]) — repeated per-TB costs repeat
    exactly.  A structureless sequence degrades to one token per element.
    Decoders take the caller's [~limit] on the decoded element count (the
    tightest length it knows: a TB count, a launch grid, a buffer list),
    further capped at [max_packed_elems], and raise {!Bad} on a run that
    would pass it before the array grows, so a garbled repeat count never
    explodes an allocation. *)

val max_packed_elems : int
(** [2^30]: the cap on every decoded payload, for callers that know no
    tighter bound. *)

val json_of_packed_ints_rle : int array -> Bm_metrics.Json.t
val packed_ints_rle_of_json : what:string -> limit:int -> Bm_metrics.Json.t -> int array
val json_of_packed_floats_rle : float array -> Bm_metrics.Json.t
val packed_floats_rle_of_json : what:string -> limit:int -> Bm_metrics.Json.t -> float array

val json_of_relation :
  n_parents:int -> n_children:int -> Bm_depgraph.Bipartite.relation -> Bm_metrics.Json.t
(** The relation in its pattern-aware Table I encoded form
    ({!Bm_depgraph.Encode.encode}), every array payload a packed-integer
    string ([windows] flatten to [first, len] pairs, [parents_of] rows are
    length-prefixed). *)

val relation_of_json :
  n_parents:int -> n_children:int -> Bm_metrics.Json.t -> Bm_depgraph.Bipartite.relation
(** Decode reconstructs the bipartite graph exactly (the Encode round-trip
    property).  [n_parents]/[n_children] are the launch grids the relation
    was encoded for; a larger stated dimension or payload is rejected
    before it is built.  @raise Bad on malformed input. *)

val sized_relation_of_json :
  max_parents:int ->
  max_children:int ->
  Bm_metrics.Json.t ->
  int * int * Bm_depgraph.Bipartite.relation
(** {!relation_of_json} with the [(n_parents, n_children)] the encoding
    states or implies — for [Independent]/[Fully_connected], the only
    record of the pair's dimensions — each at most [max_parents] /
    [max_children].  A decoded [Graph] has exactly these dimensions, and
    {!Bm_depgraph.Encode.decode} has range-checked every node id in it. *)

val json_of_profile : Bm_gpu.Costmodel.profile -> Bm_metrics.Json.t
(** A cost profile: per-TB instruction and memory counts as packed
    bit-pattern floats, the warp count, and the warp-wave factor. *)

val profile_of_json : max_tbs:int -> Bm_metrics.Json.t -> Bm_gpu.Costmodel.profile
(** Exact inverse of {!json_of_profile} for a profile of at most [max_tbs]
    TBs.  @raise Bad on malformed input, on more than [max_tbs] counts,
    and on values no analysis produces: a count that is non-finite or
    negative, instruction and memory arrays of different lengths, fewer
    than one warp, or a warp-wave factor that is non-finite or below 1. *)
