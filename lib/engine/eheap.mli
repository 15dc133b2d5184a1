(** Specialized min-heap for the simulator hot path.

    Keys are [float] timestamps, payloads are immediate [int] event codes.
    Both live in parallel arrays ([float array] is unboxed in OCaml), so a
    push/pop cycle allocates nothing once the arrays have grown to the
    high-water mark — unlike a generic heap of boxed entry records
    (test/heap.ml, the tests' model of this one), which costs ~18 words
    per event.

    Neither operation swaps entries: the entry being placed stays in
    locals and parents or children shift into the hole, one write per
    array per level.  [pop_into] is Floyd's bottom-up pop (sink the hole
    to a leaf along the smaller child, then sift the former last entry
    up), which in an event queue makes about half the comparisons of a
    top-down sift, since that entry is usually a late timestamp.  The
    smaller child is a computed index, not a branch on the keys.

    Tie-breaking matches that model: equal keys pop in insertion order (a
    monotonically increasing sequence number is the secondary key), which
    the cycle-exact oracle relies on.  [(key, seq)] is a strict total
    order for non-NaN keys, so any correct heap over it pops the same
    sequence.

    A [float] passed to or returned from a function that is not inlined
    is boxed, and builds with [-opaque] (dune's dev profile) inline
    nothing across modules, so the engine moves keys through a
    caller-owned [float array] cell ({!push_at}, {!pop_into}) and pays no
    allocation per event. *)

type t

val create : unit -> t

val is_empty : t -> bool

val size : t -> int

val push : t -> float -> int -> unit
(** [push t key ev] inserts event code [ev] at timestamp [key]. *)

val push_at : t -> float array -> int -> unit
(** [push_at t at ev] is [push t at.(0) ev]. *)

val pop_into : t -> float array -> int
(** [pop_into t at] stores the minimum key in [at.(0)], then removes
    that entry and returns its event code.
    @raise Invalid_argument if empty. *)
