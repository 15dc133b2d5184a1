(** Deterministic pseudo-random numbers (splitmix64).

    Simulations must be reproducible bit-for-bit, so no global state and no
    dependence on wall-clock seeding: every stream is derived from an explicit
    seed, and hashing utilities derive per-entity jitter from stable ids. *)

type t
(** A mutable generator state. *)

val create : int -> t
(** [create seed] makes a fresh generator from an integer seed. *)

val next_int64 : t -> int64
(** Next raw 64-bit output. *)

val float_01 : t -> float
(** Uniform float in [0, 1). *)

val int_below : t -> int -> int
(** [int_below t n] is uniform in [0, n). Requires [n > 0]. *)

val jitter : int -> int -> float
(** [jitter a b] is a stable uniform float in [0, 1): a stateless mix of
    the two integers, used to derive per-(kernel, thread-block) jitter
    without carrying generator state. *)
