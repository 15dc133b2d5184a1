(** Mutable binary min-heap keyed by float timestamps, with boxed entries.

    The reference model for {!Bm_engine.Eheap}, the simulator's event
    queue: [test_engine.ml]'s properties require both to pop the same
    (key, payload) stream.  Ties are broken by insertion order. *)

type 'a t

val create : unit -> 'a t

val is_empty : 'a t -> bool

val size : 'a t -> int

val push : 'a t -> float -> 'a -> unit
(** [push t key v] inserts [v] with priority [key]. *)

val pop : 'a t -> (float * 'a) option
(** Remove and return the minimum-key element; [None] when empty.
    Among equal keys, the earliest-inserted element is returned first. *)

val peek_key : 'a t -> float option
(** The minimum key without removing it. *)

val stale_slots : _ t -> int
(** Number of backing-store slots at or beyond the live length
    that still hold a real (popped or stale) entry rather than the shared
    dummy.  Always [0] — popping clears the vacated slot so event payloads
    are not retained for the life of the heap. *)

