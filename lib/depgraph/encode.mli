(** Storage model for bipartite dependency graphs (Table I, Table III).

    BlockMaestro stores each pair's graph in global memory; the encoded
    size depends on the detected pattern.  [plain_bytes] is the baseline
    adjacency-list representation Table III normalizes against.  The
    encoded form itself is the relation's {!Bipartite.form}: graph files
    persist it as it is (the maestro layer's [Jsonc]), so there is no translation
    to or from a second representation. *)

type sizes = {
  plain_bytes : int;    (** un-encoded adjacency list: one 32-bit entry per edge *)
  encoded_bytes : int;  (** pattern-aware encoding, per Table I *)
  pattern : Pattern.t;
}

val entry_bytes : int
(** 4: all node ids and counters round up to 32-bit words in memory. *)

val measure : Bipartite.relation -> sizes
(** Sizes of the form the relation carries.  For [Fully_connected]
    relations this cannot recover M and N; use {!measure_full} when they
    are known. *)

val measure_full : n_parents:int -> n_children:int -> sizes
(** Sizes of a fully-connected pair: plain is M*N edges, encoded is a flag. *)

val measure_pair : n_parents:int -> n_children:int -> Bipartite.relation -> sizes
(** Sizes of a kernel pair whose dimensions are known: {!measure_full} for
    [Fully_connected], else {!measure}. *)

val encoded_overhead_class : Pattern.t -> string
(** The Table I complexity class, e.g. "O(M+N)" for n-group. *)
