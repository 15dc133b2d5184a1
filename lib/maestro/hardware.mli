(** Architectural support in the TB scheduler (paper §III-D.1, Fig. 7).

    Two small buffers back the runtime dependency resolution:

    - the {e Dependency List Buffer} (DLB) caches the children lists of
      actively running parent TBs (896 entries, 4 child TB ids per entry;
      wider lists split across entries);
    - the {e Parent Counter Buffer} (PCB) caches the pending-parent counts
      of child TBs (896 entries, 6-bit counters — hence the 64-parent cap).

    Both are backed by the encoded graph in global memory, so dependency
    resolution costs extra memory requests (Fig. 13, ~1.36% on average).
    This module provides the area accounting and the traffic model. *)

val dlb_entry_bits : Bm_gpu.Config.t -> int
val pcb_entry_bits : Bm_gpu.Config.t -> int

val area_bytes : Bm_gpu.Config.t -> int
(** Total SRAM for DLB + PCB (the paper reports ~22 KB). *)

val dlb_entries_needed : Bm_gpu.Config.t -> Bm_depgraph.Bipartite.relation -> int
(** DLB entries one kernel pair occupies: a parent with out-degree [d]
    takes [ceil (d / children_per_entry)] entries.  [0] unless the relation
    is an explicit graph. *)

val pcb_counters_needed : Bm_depgraph.Bipartite.relation -> n_children:int -> int
(** PCB counters occupied: one per child TB for a graph relation, else 0. *)

val dlb_spill_bytes : Bm_gpu.Config.t -> needed:int -> int
val pcb_spill_bytes : Bm_gpu.Config.t -> needed:int -> int
(** Bytes of dependency metadata pushed to global memory when the demand
    exceeds the table capacity (entries over capacity x entry width). *)

(** Per-app occupancy attribution for a contended DLB or PCB under
    concurrent execution ({!Multi}).  Shared spatial policy: one pool, all
    apps charge it, contention is real.  Partitioned: one pool per app,
    each sized to its slice.  Demand beyond capacity counts as evicted
    entries (to global memory), attributed to the acquiring app; eviction
    totals are monotone, and {!Occupancy.release} rejects going negative
    so accounting bugs surface as failures rather than skewed metrics. *)
module Occupancy : sig
  type t

  val create_shared : capacity:int -> napps:int -> t
  val create_partitioned : caps:int array -> t

  val acquire : t -> app:int -> int -> int
  (** Charge [n] entries to [app]'s pool; returns the number of entries
      newly pushed over capacity by this acquisition (0 when it fits). *)

  val release : t -> app:int -> int -> unit
  (** Return [n] entries.  Fails if it would drive the app's or the
      pool's live count negative. *)

  val pool_used : t -> app:int -> int
  val app_used : t -> int -> int
  val pool_high : t -> app:int -> int
  val app_high : t -> int -> int
  val app_evicted : t -> int -> int
  val evicted : t -> int
end

val dep_mem_requests :
  Bm_gpu.Config.t ->
  sizes:Bm_depgraph.Encode.sizes ->
  n_parents:int ->
  n_children:int ->
  Bm_depgraph.Bipartite.relation ->
  float
(** 32-byte memory transactions needed to install and resolve one kernel
    pair's dependency graph: writing the encoded graph and initial counters
    at (pre-)launch, fetching each scheduled parent TB's dependency-list
    entries, and fetching/retiring each child's parent counter.  [sizes]
    must be the relation's {!Bm_depgraph.Encode.measure} (its encoded bytes
    and pattern price a graph relation; the other relations ignore it):
    callers pass the sizes they already hold, e.g. {!Graph.node}'s
    [n_sizes], rather than re-encoding per run. *)
