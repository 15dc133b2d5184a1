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
(** The launch-sequence-independent half of the model: dynamic
    instruction/memory counts and warp geometry, a pure function of
    (analysis result, launch configuration) — what the launch-time analysis
    cache memoizes.  It holds one count row per distinct projection of
    [ctaid] onto the axes the kernel's loop counters read
    ({!Bm_analysis.Footprint.counts}), not one per TB: a launch whose
    counters read no [ctaid] (every launch of the suite) has one row and
    nothing sized by its TB count.  A decoded multi-run payload is the
    projection onto the TB id itself, one row per TB. *)

val profile : Bm_analysis.Symeval.result -> Bm_analysis.Footprint.launch -> profile

val uniform_profile : tbs:int -> insts:float -> mem:float -> warps:int -> warp_waves:float -> profile
(** The one-row profile of [tbs] TBs that all have these counts. *)

val uniform_counts : profile -> (float * float) option
(** [Some (insts, mem)] for a one-row profile, the counts of its every TB. *)

val profile_warps : profile -> int
val profile_warp_waves : profile -> float

type profile_repr = {
  prr_insts : float array;     (** per-TB dynamic instructions *)
  prr_mem : float array;       (** per-TB dynamic memory instructions *)
  prr_warps : int;
  prr_warp_waves : float;
}
(** Transparent per-TB view of {!profile}: the codec writes a multi-row
    profile through it, and tests compare profiles TB by TB.
    [profile_of_repr] builds the one-row-per-TB projection; the round
    trip [repr_of_profile (profile_of_repr r)] is the identity, bit for
    bit. *)

val repr_of_profile : profile -> profile_repr
val profile_of_repr : profile_repr -> profile
(** @raise Invalid_argument if the two count arrays differ in length. *)

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
(** Equal TB counts, geometry and per-TB counts, floats compared by
    IEEE-754 bit pattern, whatever the row forms. *)

val tb_us : params -> kernel_seq:int -> profile -> float array
(** The per-TB execution times of {!of_profile}, alone. *)

val mem_requests : profile -> float
(** [total_mem_requests (of_profile ps ~kernel_seq p)], bit for bit, without
    building the column: the total a captured graph's node keeps. *)

val of_profile : params -> kernel_seq:int -> profile -> t
(** Expand a profile into its cost columns.  Each row's base time
    (instructions at [cpi] plus memory instructions at [mem_extra_cycles],
    times the warp waves, on the params' clock) is computed once; the loop
    over TBs only applies the deterministic jitter, hashed from [params.seed
    + kernel_seq] and the TB id.  A one-row profile's memory column is one
    value repeated. *)

val total_mem_requests : t -> float
