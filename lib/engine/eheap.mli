(** Specialized min-heap for the simulator hot path.

    Keys are [float] timestamps, payloads are immediate [int] event codes.
    Both live in parallel arrays ([float array] is unboxed in OCaml), so a
    push/pop cycle allocates nothing once the arrays have grown to the
    high-water mark — unlike the generic {!Heap}, whose boxed entry records
    cost ~18 words per event.

    Neither operation swaps entries: the entry being placed stays in
    locals and parents or children shift into the hole, one write per
    array per level.  [pop_ev] is Floyd's bottom-up pop (sink the hole to
    a leaf along the smaller child, then sift the former last entry up),
    which in an event queue makes about half the comparisons of a
    top-down sift, since that entry is usually a late timestamp.

    Tie-breaking matches {!Heap}: equal keys pop in insertion order (a
    monotonically increasing sequence number is the secondary key), which
    the cycle-exact oracle relies on.  [(key, seq)] is a strict total
    order for non-NaN keys, so any correct heap over it pops the same
    sequence. *)

type t

val create : unit -> t

val is_empty : t -> bool

val size : t -> int

val push : t -> float -> int -> unit
(** [push t key ev] inserts event code [ev] at timestamp [key]. *)

val min_key : t -> float
(** Key of the minimum entry. @raise Invalid_argument if empty. *)

val pop_key : t -> float
(** Key of the minimum entry, which [pop_ev] will remove. Call before
    [pop_ev]. @raise Invalid_argument if empty. *)

val pop_ev : t -> int
(** Removes and returns the event code of the minimum entry.
    @raise Invalid_argument if empty. *)
