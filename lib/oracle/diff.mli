(** Differential checker: the event engine ({!Bm_maestro.Sim.run} or
    {!Bm_maestro.Multi.run}) vs the one naive reference, {!Refsched.run},
    which takes a single app as the one-element array.  A decoded graph
    replays through the same engine; test/test_graph.ml differences it
    against {!Bm_maestro.Sim.run}.

    The two simulators share their inputs ({!Bm_maestro.Prep.t} and the
    machine config) and must agree {e cycle-exactly}: identical totals,
    identical concurrency integrals, identical memory-request models and
    identical per-TB timing columns (dep-ready / start / finish times compared
    with exact float equality — both engines derive every timestamp from the
    same cost-model inputs through the same arithmetic, so any difference is
    a semantic divergence, not rounding). *)

type mismatch = {
  mm_mode : Bm_maestro.Mode.t;
  mm_details : string list;  (** one line per diverging field / TB *)
}

val diff_stats : Bm_gpu.Stats.t -> Bm_gpu.Stats.t -> string list
(** [diff_stats sim ref_] is empty iff the two results agree cycle-exactly;
    otherwise one human-readable line per difference (per-TB diffs are
    truncated after a few entries). *)

val check :
  ?cfg:Bm_gpu.Config.t ->
  ?modes:Bm_maestro.Mode.t list ->
  ?cache:Bm_maestro.Cache.t ->
  ?window_bug:int ->
  Bm_gpu.Command.app ->
  (unit, mismatch list) result
(** Run every mode (default: all of {!Bm_maestro.Mode.known}) through both
    engines and collect disagreements; the modes share one preparation per
    reorder class.  [window_bug] adds its
    value to the pre-launch window bound of the {e reference} engine only —
    an intentionally injected bug for validating that the harness detects
    and shrinks scheduler divergence (see [Fuzz]).  [cache] memoizes the
    launch-time analysis across apps ({!Bm_maestro.Cache}); preparation is
    cycle-identical with and without it, which this checker is itself the
    gate for. *)

val pp_mismatch : Format.formatter -> mismatch -> unit

(** {1 Co-run differencing}

    The multi-app analogue: {!Bm_maestro.Multi.run} vs {!Refsched.run}
    on the whole app array, across submission and spatial policies. *)

type corun_mismatch = {
  cm_mode : Bm_maestro.Mode.t;
  cm_submission : Bm_maestro.Multi.submission;
  cm_spatial : Bm_maestro.Multi.spatial;
  cm_app : int;  (** index of the diverging app *)
  cm_details : string list;
}

val check_corun :
  ?cfg:Bm_gpu.Config.t ->
  ?modes:Bm_maestro.Mode.t list ->
  ?submissions:Bm_maestro.Multi.submission list ->
  ?spatials:Bm_maestro.Multi.spatial list ->
  ?cache:Bm_maestro.Cache.t ->
  ?slots_bug:int ->
  Bm_gpu.Command.app array ->
  (unit, corun_mismatch list) result
(** Co-run the apps under every (mode, spatial, submission) combination
    through both engines and collect per-app disagreements.  Defaults:
    all modes, all three submission policies, and [Shared] plus an even
    [Partitioned] split of the machine.  Under [Partitioned] only the
    first submission policy is exercised (disjoint slices never contend
    for admission, so the policy is inert).  [slots_bug] widens the
    {e reference} engine's TB-slot pools — the injected-bug hook for
    validating that the co-run harness detects and shrinks divergence
    (see [Fuzz.run_corun]). *)

val pp_corun_mismatch : Format.formatter -> corun_mismatch -> unit
