(** Strided intervals: the abstract domain of the value-range analysis.

    A strided interval [{lo; hi; stride}] denotes the set
    [{lo, lo+stride, ..., hi}].  [stride = 0] iff the interval is a
    singleton.  The domain is sound for over-approximation: every operation
    returns an interval containing all pointwise results.  Thread-block
    read/write footprints are strided intervals of byte addresses, so the
    RAW-intersection test of Algorithm 1 (line 23) is {!intersects}. *)

type t = private { lo : int; hi : int; stride : int }

val singleton : int -> t

val make : lo:int -> hi:int -> stride:int -> t
(** Normalizes: clamps [hi] down to the greatest reachable element, reduces
    [stride] to 0 for singletons.  Requires [lo <= hi] and [stride >= 0]. *)

val range : int -> int -> t
(** [range lo hi] with stride 1. *)

val mem : int -> t -> bool

val count : t -> int
(** Number of elements denoted. *)

val shift : t -> int -> t
(** [shift t d] denotes [{x + d | x in t}]; [shift t 0] is [t] itself.
    Every operation below that takes a shifted operand and a fixed one
    ([add], [sub], [mul_const], [neg]) commutes with the shift, which is
    what {!Footprint}'s affine summaries rest on. *)

val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t
val mul_const : t -> int -> t
val mul : t -> t -> t
val div_const : t -> int -> t
val rem_const : t -> int -> t
val shl : t -> int -> t
val shr : t -> int -> t
val join : t -> t -> t
(** Least upper bound (union over-approximation). *)

val min_ : t -> t -> t
val max_ : t -> t -> t

val intersects : t -> t -> bool
(** Exact emptiness test of the intersection of the two denoted sets
    (range overlap + Chinese-remainder stride compatibility).  It
    allocates nothing. *)

val meets : lo:int -> hi:int -> stride:int -> t -> bool
(** [meets ~lo ~hi ~stride b] is [intersects (make ~lo ~hi ~stride) b]
    without building the first interval, and [false] when [lo > hi]: the
    test a caller that computes endpoints (a floor-affine access at one
    TB) runs in a loop. *)

val subset : t -> t -> bool
(** [subset a b]: every element of [a] is an element of [b]. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
val equal : t -> t -> bool
