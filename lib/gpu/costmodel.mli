(** Thread-block execution-time and memory-traffic cost model.

    The simulator is TB-granular: it needs, for every thread block of a
    launch, how long the block occupies an SM slot and how many memory
    requests it issues.  Both are derived from the kernel's dynamic
    instruction mix (straight-line instructions plus range-analyzed loop
    trip counts) — the same quantities a cycle-level simulator would
    accumulate, collapsed into a per-TB latency.  A small deterministic
    jitter (hashed from kernel sequence number and TB id) models the
    execution-time variance the paper's stall distributions rely on. *)

type t = {
  tb_us : float array;            (** per-TB execution time, microseconds *)
  tb_mem_requests : float array;  (** per-TB coalesced global-memory requests *)
  avg_tb_us : float;
}
(** Its arrays are never written after {!of_profile} returns: the
    launch-time cache shares one [t] between preparations of both reorder
    classes and the nodes of a captured graph. *)

type profile
(** The launch-sequence-independent half of the model: per-TB dynamic
    instruction/memory counts and warp geometry.  A pure function of
    (analysis result, launch configuration) — this is what the launch-time
    analysis cache memoizes. *)

val profile : Bm_analysis.Symeval.result -> Bm_analysis.Footprint.launch -> profile

type profile_repr = {
  prr_insts : float array;     (** per-TB dynamic instructions *)
  prr_mem : float array;       (** per-TB dynamic memory instructions *)
  prr_warps : int;
  prr_warp_waves : float;
}
(** Transparent view of {!profile} for persistence: graph files and the
    disk-backed analysis store share one codec with bit-pattern floats.  The
    round trip [profile_of_repr (repr_of_profile p)] is the identity, bit
    for bit. *)

val repr_of_profile : profile -> profile_repr
val profile_of_repr : profile_repr -> profile

type params = {
  seed : int;
  jitter_frac : float;
  cpi : float;
  mem_extra_cycles : float;
  clock_ghz : float;
}
(** The configuration fields the per-launch expansion reads, and only
    those: a cost column is a pure function of (profile, kernel seq,
    params).  The launch-time cache keys cost columns on it, and a
    captured graph persists it to expand its profiles at decode. *)

val params : Config.t -> params

val same_params : params -> params -> bool
(** Equality with floats compared by IEEE-754 bit pattern. *)

val profile_tbs : profile -> int
(** The number of thread blocks the profile covers. *)

val same_profile : profile -> profile -> bool
(** Equality with floats compared by IEEE-754 bit pattern. *)

val of_profile : params -> kernel_seq:int -> profile -> t
(** Apply the per-launch deterministic jitter (hashed from [params.seed +
    kernel_seq] and the TB id) to a profile.  [of_launch ps ~kernel_seq r
    l] is exactly [of_profile ps ~kernel_seq (profile r l)] — splitting
    the two halves never changes a single bit of the result. *)

val of_launch :
  params ->
  kernel_seq:int ->
  Bm_analysis.Symeval.result ->
  Bm_analysis.Footprint.launch ->
  t

val total_mem_requests : t -> float
