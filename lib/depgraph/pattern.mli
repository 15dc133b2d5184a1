(** Classification of bipartite dependency graphs into the common patterns
    of Table I / Figure 8.

    BlockMaestro encodes graphs pattern-wise to shrink on-device storage:
    a fully-connected pair needs only a flag, an n-group pair O(M+N), etc.
    Classification is purely structural and is also what Table II reports
    per benchmark.  A graph carries its pattern: {!Bipartite.of_rows}
    picks the form, the first of these cases (in this order) that the
    edges fit, and {!classify} reads its tag. *)

type t =
  | Independent
  | Fully_connected
  | One_to_one       (** M = N and child i depends exactly on parent i *)
  | One_to_n         (** each child has one parent; parents don't share children *)
  | N_to_one         (** each parent has at most one child *)
  | N_group          (** disjoint groups of parents fully connected to disjoint groups of children *)
  | Overlapped       (** each child depends on a contiguous window of parents, windows overlap *)
  | Irregular

val classify : Bipartite.relation -> t
(** The relation's tag: O(1). *)

val name : t -> string

val table1_id : t -> int
(** The paper's pattern number: (1) fully connected, (2) n-group,
    (3) 1-to-1, (4) 1-to-n, (5) n-to-1, (6) overlapped, (7) independent.
    [Irregular] reports 0. *)

val pp : Format.formatter -> t -> unit
