(** Kernel-launch-time preparation: the software half of BlockMaestro.

    For an application's command stream this performs everything the paper
    does during JIT compilation at launch time: PTX analysis (Algorithm 1 via
    {!Bm_analysis.Symeval}), per-TB value-range footprints, command-queue
    reordering, bipartite dependency graphs between consecutive kernels,
    pattern classification, encoded-storage sizes, and the TB cost model the
    simulator consumes. *)

type launch_info = {
  li_seq : int;                                 (** index among launches, final order *)
  li_prev : int option;                         (** predecessor launch in the same stream *)
  li_spec : Bm_gpu.Command.launch_spec;
  li_result : Bm_analysis.Symeval.result;
  li_fp : Bm_analysis.Footprint.kernel_footprints;
  li_profile : Bm_gpu.Costmodel.profile;       (** what [li_cost] expands from *)
  li_cost : Bm_gpu.Costmodel.t;
      (** [Costmodel.of_profile] of [li_profile] at [li_seq]; shared with
          every other preparation of the same launch through the same
          cache, and never written *)
  li_tbs : int;
  li_relation : Bm_depgraph.Bipartite.relation;
      (** with the previous launch in the same stream; [Independent] for a
          stream's first launch *)
  li_pattern : Bm_depgraph.Pattern.t;
  li_sizes : Bm_depgraph.Encode.sizes;          (** storage of this pair's graph *)
  li_copy_deps : int list;                      (** indices of H2D commands this kernel must wait for *)
}

type t = {
  p_commands : Bm_gpu.Command.t array;  (** final (possibly reordered) order *)
  p_launches : launch_info array;
  p_kernel_of_cmd : int array;          (** command index -> launch seq, or -1 *)
  p_d2h_wait : int option array;        (** per command: kernel seq whose completion gates this D2H *)
}

val kernel_rw : Bm_gpu.Command.launch_spec -> Bm_analysis.Footprint.kernel_footprints -> Reorder.rw
(** Buffer-granularity read/write sets of a launch, for reordering. *)

val prepare :
  ?reorder:bool ->
  ?prof:Bm_metrics.Prof.t ->
  ?cache:Cache.t ->
  Bm_gpu.Config.t ->
  Bm_gpu.Command.app ->
  t
(** Analyze and (when [reorder], default true) reorder the app.

    Each launch is resolved once, in program order — analysis, interned
    launch, footprint and read/write sets — and the walk over the final
    order reuses that, so a call looks each launch up once per {!Cache}
    family.  Footprints come from {!Bm_analysis.Footprint.of_result} and
    stay summaries: the read/write sets ([Footprint.whole_summary]) and
    relations ([Bipartite.confirm]) are computed from them in closed form,
    and nothing on this path lists a summarized launch's TBs.

    [prof] records wall-clock spans for the pipeline stages — [analyze]
    (PTX symbolic evaluation), [footprint], [reorder], [relate] (each
    child's confirmed parents, as a window or a row), [encode] (the Table I form, pattern and
    sizes) and [costmodel] — each directly under
    whatever span the caller has open.  Cached stages (a kernel analyzed
    once, a footprint reused across relaunches) only charge their first
    computation.

    [cache] memoizes analysis, footprint, profile, cost-column, rw and
    pair results by structural kernel fingerprint and launch
    configuration ({!Cache}), within the call and across calls that share
    it.  Omitted, the call uses a private cache of its own; results are
    cycle-identical either way.  The cache is single-domain state — pass
    one cache per worker domain, never a shared one. *)

val with_relation : t -> seq:int -> Bm_depgraph.Bipartite.relation -> t
(** Replace the dependency relation of launch [seq] (with its predecessor).
    Used by the interconnectivity microbenchmark (Fig. 12), which
    artificially varies the dependency degree of an otherwise unchanged
    application. *)
