(** Launch-time analysis memoization cache.

    BlockMaestro performs its dependency analysis at kernel launch time, so
    the cost must stay negligible against the ~5 µs launch overhead.  This
    cache makes repeated preparation cheap: kernels are hash-consed by
    structural {!Bm_analysis.Fingerprint} (alpha-equivalent kernels share
    one interned id), and two LRU-bounded layers memoize

    - {e per-kernel} results: the Algorithm 1 backward-slice analysis and
      per-(kernel, launch-configuration) footprints;
    - {e per-pair} results: the bipartite relation between a producer and
      consumer launch, its pattern classification and encoded-storage
      sizes, keyed by both interned kernel ids, both launch configurations
      and the degree cap.

    A third, per-launch layer memoizes the TB cost model's expanded
    columns ({!cost}), keyed on the launch's kernel, configuration and
    sequence number and on the {!Bm_gpu.Costmodel.params} the expansion
    reads.  Apps whose launch order survives reordering expand each column
    once for both reorder classes, and a memory-warm preparation expands
    none.

    Everything cached is a pure function of its key, so cached and uncached
    preparation are cycle-identical ({!Bm_oracle.Diff.check} gates this).

    With [?store], a third, persistent tier sits below the LRUs: an
    in-memory miss consults the disk-backed {!Store} (keyed by the full
    canonical fingerprint string, so entries are valid across processes),
    and computed values are written through.  Disk hits still count as
    in-memory misses; the [prep.cache.disk.*] counters describe the disk
    tier separately.

    A cache is single-domain state (DESIGN §8/§9): create one per worker
    domain and never share across domains.  A {e store} directory may be
    shared across domains and processes — each domain opens its own
    {!Store} handle; writes are atomic and values are pure functions of
    their keys.  All operations are O(1) plus at most one disk probe. *)

type t

val create : ?kernel_capacity:int -> ?pair_capacity:int -> ?store:Store.t -> unit -> t
(** [kernel_capacity] (default 256) bounds the interned-kernel and analysis
    tables; [pair_capacity] (default 8192) bounds each of the footprint,
    profile, cost, rw and pair tables.  [store] attaches the persistent disk tier. *)

val store : t -> Store.t option

val kernel_id : t -> Bm_ptx.Types.kernel -> int
(** Interned id of the kernel's structural fingerprint.  Alpha-equivalent
    kernels (same body up to register/label names, same params/grid use)
    map to the same id; ids are unique for the cache's lifetime. *)

val analysis :
  t -> kid:int -> (unit -> Bm_analysis.Symeval.result) -> Bm_analysis.Symeval.result
(** Memoized Algorithm 1 analysis for the kernel interned as [kid].
    Note the returned [result.kernel] is whichever alpha-twin computed it
    first; callers that care about the name must rewrap. *)

val footprint :
  t ->
  kid:int ->
  fl:Bm_analysis.Footprint.launch ->
  (unit -> Bm_analysis.Footprint.kernel_footprints) ->
  Bm_analysis.Footprint.kernel_footprints

val profile :
  t ->
  kid:int ->
  fl:Bm_analysis.Footprint.launch ->
  (unit -> Bm_gpu.Costmodel.profile) ->
  Bm_gpu.Costmodel.profile
(** Memoized launch-sequence-independent cost profile
    ({!Bm_gpu.Costmodel.profile}). *)

val cost :
  t ->
  kid:int ->
  fl:Bm_analysis.Footprint.launch ->
  seq:int ->
  params:Bm_gpu.Costmodel.params ->
  (unit -> Bm_gpu.Costmodel.t) ->
  Bm_gpu.Costmodel.t
(** Memoized cost column: the profile of ([kid], [fl]) expanded for launch
    [seq] under [params] ({!Bm_gpu.Costmodel.of_profile}).  Params compare
    by bit pattern.  Every caller gets the same [Costmodel.t]; nobody
    writes its arrays.  Memory tier only: the disk tier holds the profile
    it expands from. *)

val rw :
  t ->
  kid:int ->
  fl:Bm_analysis.Footprint.launch ->
  buffers:(int * int * int) list ->
  (unit -> Reorder.rw) ->
  Reorder.rw
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
  t ->
  pkid:int ->
  pfl:Bm_analysis.Footprint.launch ->
  ckid:int ->
  cfl:Bm_analysis.Footprint.launch ->
  max_degree:int ->
  (unit -> pair_result) ->
  pair_result
(** Memoized producer→consumer dependency result.  The key carries both
    launch configurations (grids included), so the Fully_connected sizes —
    a function of parent/child TB counts — are safe to cache alongside the
    relation. *)

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

val counters : t -> counters

val export : t -> Bm_metrics.Metrics.t -> unit
(** Publish the counters as [prep.cache.kernel.hits], …, into a metrics
    registry ([bmctl stats] surfaces them), plus the [prep.cache.disk.*]
    family when a store is attached.  Adds the current values; call once
    per run, after preparation. *)
