(** Inter-kernel thread-block-level bipartite dependency graphs.

    Nodes are the parent kernel's TBs on one side and the child (dependent)
    kernel's TBs on the other; an edge (p, c) means child TB [c] reads data
    written by parent TB [p] (a RAW dependency found by intersecting
    value-range footprints).  Since BlockMaestro enforces in-order kernel
    completion, only consecutive kernel pairs need a graph (paper §III-B.1).

    Children whose in-degree exceeds [max_degree] (the 6-bit parent-counter
    width, paper §IV-C) degrade the whole pair to {!constructor-Fully_connected}
    — functionally a kernel-level barrier.

    A graph is held in its Table I form (paper Table I), the one
    representation from {!relate} through the engine to graph files: the
    DLB derives children from the form, so nothing keeps a per-TB list for
    an encoded pattern.  Every case holds flat [int array]s only.  The
    forms {!of_rows} builds are canonical: the first case of the
    classifier's order (1-to-1, 1-to-n, n-to-1, n-group, overlapped,
    irregular) whose shape the edges have, so equal edge sets give
    structurally equal values.  Read edges through {!in_degree},
    {!parent}, {!out_degree} and {!iter_children}, which allocate
    nothing. *)

(** Parent and child lists are offsets into targets ([kid_off.(p) ..
    kid_off.(p + 1) - 1] indexes [kids]), each ascending. *)
type form =
  | One_to_one  (** child [i] has parent [i] only *)
  | One_to_n of { parent_of : int array; kid_off : int array; kids : int array }
      (** every child has one parent *)
  | N_to_one of { child_of : int array; par_off : int array; pars : int array }
      (** every parent has at most one child ([-1]: none), some child several parents *)
  | N_group of {
      group_of_parent : int array;
      group_of_child : int array;
      member_off : int array;
      members : int array;
      gkid_off : int array;
      gkids : int array;
    }
      (** groups ([-1]: none, else numbered by first child) of parents
          fully connected to groups of children; each group's members and
          children *)
  | Overlapped of { first : int array; len : int array; kid_off : int array; kids : int array }
      (** child [c]'s parents are [first.(c) .. first.(c) + len.(c) - 1]
          ([first] 0 when none), and some parent has several children *)
  | Irregular of { par_off : int array; pars : int array; kid_off : int array; kids : int array }

type t = { n_parents : int; n_children : int; form : form }

type relation =
  | Independent            (** no RAW dependency between the kernels *)
  | Fully_connected        (** every child depends on every parent *)
  | Graph of t

val default_max_degree : int
(** 64: beyond this the parent counter saturates (6 bits). *)

(** {2 Reading edges} *)

val in_degree : t -> int -> int
val parent : t -> int -> int -> int
(** [parent g c i], [0 <= i < in_degree g c]: child [c]'s parents in
    ascending order. *)

val out_degree : t -> int -> int
val iter_children : t -> int -> ('a -> int -> unit) -> 'a -> unit
(** [iter_children g p f x] calls [f x c] on parent [p]'s children in
    ascending order, reading the form once, not once per child; with [f]
    allocated beforehand it allocates nothing. *)

val in_degrees : t -> int array
(** A fresh array of every child's in-degree. *)

val edge_count : relation -> n_parents:int -> n_children:int -> int
(** Number of edges denoted by the relation (MN for fully connected). *)

val max_in_degree : t -> int

val equal : t -> t -> bool
(** Equal dimensions and equal denoted edge sets, whatever the forms. *)

val pp_relation : Format.formatter -> relation -> unit

(** {2 Building} *)

type rows = { r_parents : int; r_offsets : int array; r_targets : int array }
(** Each child's parents in one flat buffer: child [c]'s, strictly
    ascending, are [r_targets.(r_offsets.(c) .. r_offsets.(c + 1) - 1]. *)

val of_rows : rows -> t
(** The canonical Table I form of the rows' edges, which may keep
    [r_offsets] and [r_targets]: do not write them after.
    @raise Invalid_argument if a row is not strictly ascending in
    [\[0, r_parents)]. *)

val relation_of_rows : rows -> relation
(** [Independent] for no edge, [Fully_connected] when every child of a
    multi-parent, multi-child pair has every parent, else the graph
    {!of_rows} builds.  Single-parent or single-child pairs stay graphs:
    they are 1-to-n / n-to-1, not a kernel-level barrier. *)

val of_edges : n_parents:int -> n_children:int -> (int * int) list -> t
(** From explicit (parent, child) pairs (tests, synthetic workloads);
    duplicates count once. *)

(** The graphs a Table I payload denotes, whether or not it is in
    canonical form: each child's parent ([of_parent_of]), each parent's
    child or a negative value ([of_child_of]), group ids below
    [n_children] or negative on both sides ([of_groups]), each child's
    parent window ([of_windows]).  A payload already in its canonical
    1-to-n, n-to-1 or n-group form (what a capture writes) becomes that
    form directly, keeping the payload arrays: do not write them after. *)

val of_parent_of : n_parents:int -> int array -> t
val of_child_of : n_children:int -> int array -> t
val of_groups : group_of_parent:int array -> group_of_child:int array -> t
val of_windows : n_parents:int -> first:int array -> len:int array -> t
(** The builders above raise [Invalid_argument] on a node out of range. *)

val confirm :
  ?max_degree:int ->
  Bm_analysis.Footprint.kernel_footprints ->
  Bm_analysis.Footprint.kernel_footprints ->
  rows option
(** [confirm parent child] intersects the parent's per-TB write sets with
    the child's per-TB read sets, writing each child's parents into one
    flat buffer and allocating nothing per child.  [None] when the pair
    degrades to fully connected: a side is [Conservative], or a child has
    more than [max_degree] parents (found in O(1) when one confirmed range
    is already longer than the cap).  A {!Bm_analysis.Footprint.constructor-Summary}
    side gives the same result as the per-TB footprints it materializes
    to: both endpoints of a floor-affine write [off + m * floor ((e + k *
    p) / d)] are monotone in the parent TB [p], so the parents overlapping
    a child read form one range, found by floor/ceiling division, and each
    candidate is confirmed with {!Bm_analysis.Sinterval.meets} on its
    endpoints unless both strides are at most 1.  Listed TBs are met
    through an index sorted by interval start with a running maximum of
    interval ends. *)

val relate :
  ?max_degree:int ->
  Bm_analysis.Footprint.kernel_footprints ->
  Bm_analysis.Footprint.kernel_footprints ->
  relation
(** {!confirm}, then {!relation_of_rows}. *)
