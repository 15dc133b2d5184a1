(** Inter-kernel thread-block-level bipartite dependency graphs.

    Nodes are the parent kernel's TBs on one side and the child (dependent)
    kernel's TBs on the other; an edge (p, c) means child TB [c] reads data
    written by parent TB [p] (a RAW dependency found by intersecting
    value-range footprints).  Since BlockMaestro enforces in-order kernel
    completion, only consecutive kernel pairs need a graph (paper §III-B.1).

    Children whose in-degree exceeds [max_degree] (the 6-bit parent-counter
    width, paper §IV-C) degrade the whole pair to {!constructor-Fully_connected}
    — functionally a kernel-level barrier. *)

type t = {
  n_parents : int;
  n_children : int;
  parents_of : int array array;   (** child id -> sorted parent ids *)
  children_of : int array array;  (** parent id -> sorted child ids *)
}

type relation =
  | Independent            (** no RAW dependency between the kernels *)
  | Fully_connected        (** every child depends on every parent *)
  | Graph of t

val default_max_degree : int
(** 64: beyond this the parent counter saturates (6 bits). *)

val of_edges : n_parents:int -> n_children:int -> (int * int) list -> t
(** Build from explicit (parent, child) pairs (used by tests and synthetic
    workloads). *)

val relate :
  ?max_degree:int ->
  Bm_analysis.Footprint.kernel_footprints ->
  Bm_analysis.Footprint.kernel_footprints ->
  relation
(** [relate parent child] intersects the parent's per-TB write sets with the
    child's per-TB read sets.  Either side being [Conservative] yields
    [Fully_connected].

    The result is the same whether a side comes as a
    {!Bm_analysis.Footprint.constructor-Summary} or as the per-TB
    footprints it materializes to.  A child read meets a summary's
    floor-affine writes in closed form: both endpoints of a write are
    monotone in the parent TB, so the parents whose interval overlaps the
    read form one integer range, found by inverting each endpoint's
    [off + m * floor ((e + k * p) / d)] with floor/ceiling division (for a
    plain shift, [d = 1], that is one division per endpoint), and each
    candidate is confirmed with {!Bm_analysis.Sinterval.intersects} unless
    both strides are at most 1.  It meets listed TBs (a summary's tail, or
    every TB of a [Per_tb] side) through an index sorted by interval start
    with a running maximum of interval ends.  A child whose parents exceed
    [max_degree] degrades the pair as soon as they do, in O(1) when one
    confirmed range is already longer than the cap. *)

val edge_count : relation -> n_parents:int -> n_children:int -> int
(** Number of edges denoted by the relation (MN for fully connected). *)

val max_in_degree : t -> int

val equal : t -> t -> bool
val pp_relation : Format.formatter -> relation -> unit
