(** Launch-time analysis memoization: the only memo {!Prep.prepare} uses.

    BlockMaestro performs its dependency analysis at kernel launch time, so
    the cost must stay negligible against the ~5 µs launch overhead.  This
    cache makes repeated launches and repeated preparation cheap.  Kernels
    are hash-consed by structural {!Bm_analysis.Fingerprint}
    (alpha-equivalent kernels share one interned id), and each launch is
    interned once as (kernel id, launch configuration) ({!launch}).  Every
    other table is keyed on those ints:

    - {e per-kernel}: the Algorithm 1 backward-slice analysis, keyed on
      the kernel id;
    - {e per-launch}: footprints, cost profiles and read/write buffer sets
      (plus the app's buffer layout), keyed on the launch id;
    - {e per-column}: the TB cost model's expanded columns ({!cost}), keyed
      on the launch id, its sequence number and the
      {!Bm_gpu.Costmodel.params} the expansion reads;
    - {e per-pair}: the bipartite relation between a producer and consumer
      launch, its pattern classification and encoded-storage sizes, keyed
      on both launch ids and the degree cap.

    Everything cached is a pure function of its key, so a preparation
    through a shared cache is cycle-identical to one through a fresh
    cache ({!Bm_oracle.Diff.check} gates this).

    With [?store], a persistent tier sits below the LRUs: an in-memory miss
    consults the disk-backed {!Store} (keyed by the full canonical
    fingerprint string and the launch configuration, so entries are valid
    across processes), and computed values are written through.  Disk
    hits still count as in-memory misses; the [prep.cache.disk.*] counters
    describe the disk tier separately.

    A cache is single-domain state (DESIGN §8/§9): create one per worker
    domain and never share across domains.  A {e store} directory may be
    shared across domains and processes — each domain opens its own
    {!Store} handle; writes are atomic and values are pure functions of
    their keys.  All operations are O(1) plus at most one disk probe. *)

type t

val create : ?store:Store.t -> unit -> t
(** 256 interned kernels and analyses, and 8192 entries in each per-launch
    table, least recently used first out.  [store] attaches the persistent
    disk tier; only the host-performance ledger's disk-warm workload and
    [bench --perf-gate] pass one. *)

val store : t -> Store.t option

val kernel_id : t -> Bm_ptx.Types.kernel -> int
(** Interned id of the kernel's structural fingerprint.  Alpha-equivalent
    kernels (same body up to register/label names, same params/grid use)
    map to the same id; ids are unique for the cache's lifetime.  Without
    a store, a kernel is fingerprinted only once another kernel shares its
    instruction and parameter counts. *)

type launch
(** An interned (kernel id, launch configuration). *)

val launch : t -> Bm_ptx.Types.kernel -> Bm_analysis.Footprint.launch -> launch
(** Intern a launch of [kernel]; equal configurations of kernels with one
    id get one launch.  The key hashes every argument
    ({!Bm_analysis.Footprint.hash_launch}). *)

val analysis :
  t -> kid:int -> (unit -> Bm_analysis.Symeval.result) -> Bm_analysis.Symeval.result
(** Memoized Algorithm 1 analysis for the kernel interned as [kid].
    Note the returned [result.kernel] is whichever alpha-twin computed it
    first; callers that care about the name must rewrap. *)

val footprint :
  t -> launch -> (unit -> Bm_analysis.Footprint.kernel_footprints) ->
  Bm_analysis.Footprint.kernel_footprints

val profile : t -> launch -> (unit -> Bm_gpu.Costmodel.profile) -> Bm_gpu.Costmodel.profile
(** Memoized launch-sequence-independent cost profile
    ({!Bm_gpu.Costmodel.profile}). *)

val cost :
  t ->
  launch ->
  seq:int ->
  params:Bm_gpu.Costmodel.params ->
  (unit -> Bm_gpu.Costmodel.t) ->
  Bm_gpu.Costmodel.t
(** Memoized cost column: the launch's profile expanded for launch [seq]
    under [params] ({!Bm_gpu.Costmodel.of_profile}).  Params compare by
    bit pattern.  Every caller gets the same [Costmodel.t]; nobody writes
    its arrays.  Memory tier only: the disk tier holds the profile it
    expands from. *)

val rw : t -> launch -> buffers:(int * int * int) list -> (unit -> Reorder.rw) -> Reorder.rw
(** Memoized read/write buffer sets.  Buffer ids are app-local, so the
    app's buffer layout ([(id, base, bytes)] triples) is part of the key;
    two apps sharing a kernel but laying buffers out differently never
    alias. *)

type pair_result = {
  pr_relation : Bm_depgraph.Bipartite.relation;
  pr_pattern : Bm_depgraph.Pattern.t;
  pr_sizes : Bm_depgraph.Encode.sizes;
}

val pair :
  t -> producer:launch -> consumer:launch -> max_degree:int -> (unit -> pair_result) -> pair_result
(** Memoized producer→consumer dependency result.  Both launches carry
    their grids, so the Fully_connected sizes — a function of
    parent/child TB counts — are safe to cache alongside the relation. *)

(** {1 Effectiveness counters} *)

type counters = {
  kernel_hits : int;
  kernel_misses : int;
  kernel_evictions : int;
  footprint_hits : int;
  footprint_misses : int;
  footprint_evictions : int;
  profile_hits : int;
  profile_misses : int;
  profile_evictions : int;
  cost_hits : int;
  cost_misses : int;
  cost_evictions : int;
  rw_hits : int;
  rw_misses : int;
  rw_evictions : int;
  pair_hits : int;
  pair_misses : int;
  pair_evictions : int;
  interned : int;  (** distinct structural kernels ever interned *)
}
(** A hit is a lookup the memory tier answers, at most one per launch
    and family in each {!Prep.prepare}; a miss is a value computed or
    read from the disk tier. *)

val counters : t -> counters

val export : t -> Bm_metrics.Metrics.t -> unit
(** Publish the counters as [prep.cache.kernel.hits], …, into a metrics
    registry ([bmctl stats] surfaces them), plus the [prep.cache.disk.*]
    family when a store is attached.  Adds the current values; call once
    per run, after preparation. *)
