(** Control-flow graph over a kernel body.

    The launch-time analysis (Algorithm 1) walks the kernel's CFG: backward
    slices must stop at block boundaries conservatively, and counted loops
    are recognized from back edges so induction variables can be range-
    analyzed.  Blocks are maximal straight-line instruction runs. *)

type block = {
  bid : int;
  first : int;  (** index of the first instruction (inclusive) *)
  last : int;   (** index of the last instruction (inclusive) *)
  succs : int list;
  preds : int list;
}

type t = {
  kernel : Types.kernel;
  blocks : block array;
  block_of_instr : int array;  (** instruction index -> owning block id *)
}

val build : Types.kernel -> t

val dominators : t -> int array
(** [dominators t].(b) is the immediate dominator of block [b]; the entry
    block is its own idom.  Unreachable blocks get idom = entry. *)

val back_edges : t -> (int * int) list
(** Edges (src, dst) where [dst] dominates [src] — loop back edges. *)

val natural_loop : t -> src:int -> header:int -> int list
(** Blocks of the natural loop for back edge [src -> header]
    (header included). *)
