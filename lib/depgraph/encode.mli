(** Storage model for bipartite dependency graphs (Table I, Table III).

    BlockMaestro stores each pair's graph in global memory; the encoded
    size depends on the detected pattern.  [plain_bytes] is the baseline
    adjacency-list representation Table III normalizes against. *)

type sizes = {
  plain_bytes : int;    (** un-encoded adjacency list: one 32-bit entry per edge *)
  encoded_bytes : int;  (** pattern-aware encoding, per Table I *)
  pattern : Pattern.t;
}

val entry_bytes : int
(** 4: all node ids and counters round up to 32-bit words in memory. *)

val measure : Bipartite.relation -> sizes
(** For [Fully_connected] relations this cannot recover M and N; use
    {!measure_full} when they are known. *)

val measure_full : n_parents:int -> n_children:int -> sizes
(** Sizes of a fully-connected pair: plain is M*N edges, encoded is a flag. *)

val measure_pair : n_parents:int -> n_children:int -> Bipartite.relation -> sizes
(** Sizes of a kernel pair whose dimensions are known: {!measure_full} for
    [Fully_connected], else {!measure}. *)

(** {2 Codec}

    The actual pattern-aware representation (not just its size): {!encode}
    compresses a relation into the Table I form its pattern admits, and
    {!decode} reconstructs the relation exactly.  Decoding an encoded graph
    reproduces the original relation bit-for-bit
    ([decode (encode ~n_parents ~n_children rel)] equals [rel], with
    [Graph] payloads compared by {!Bipartite.equal}) — the round-trip
    property test/test_depgraph.ml checks over random graphs of every
    pattern. *)

type encoded =
  | Enc_independent of { n_parents : int; n_children : int }
  | Enc_full of { n_parents : int; n_children : int }
  | Enc_one_to_one of { n : int }
  | Enc_one_to_n of { n_parents : int; parent_of : int array }
      (** child id -> its single parent *)
  | Enc_n_to_one of { n_children : int; child_of : int array }
      (** parent id -> its single child, or -1 *)
  | Enc_n_group of { group_of_parent : int array; group_of_child : int array }
      (** group ids; -1 marks a node outside every group *)
  | Enc_overlapped of { n_parents : int; windows : (int * int) array }
      (** child id -> (first parent, window length) *)
  | Enc_irregular of { n_parents : int; parents_of : int array array }
      (** plain adjacency fallback *)

val encode : n_parents:int -> n_children:int -> Bipartite.relation -> encoded
(** The dimensions are only consulted for [Independent] / [Fully_connected]
    relations (which do not carry them); graphs know their own. *)

val decode : encoded -> Bipartite.relation

val pattern_of_encoded : encoded -> Pattern.t

val encoded_words : encoded -> int
(** 32-bit words of variable payload (excluding the constant-size tag and
    dimension header) — the quantity {!measure}'s [encoded_bytes] models. *)

val encoded_overhead_class : Pattern.t -> string
(** The Table I complexity class, e.g. "O(M+N)" for n-group. *)

val pp_sizes : Format.formatter -> sizes -> unit
