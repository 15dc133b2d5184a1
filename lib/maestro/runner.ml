module Config = Bm_gpu.Config
module Stats = Bm_gpu.Stats

let prepare ?(cfg = Config.titan_x_pascal) ?prof ?cache mode app =
  Prep.prepare ~reorder:(Mode.reorders mode) ?prof ?cache cfg app

let capture ?(cfg = Config.titan_x_pascal) ?prof ?cache app = Graph.capture ?cache ?prof cfg app

let simulate ?(cfg = Config.titan_x_pascal) ?metrics ?prof ?cache ?trace mode app =
  Sim.run ?metrics ?trace cfg mode (prepare ~cfg ?prof ?cache mode app)

let simulate_all ?(cfg = Config.titan_x_pascal) ?(modes = Mode.all_fig9) ?cache app =
  let prep = Mode.by_class (fun ~reorder -> Prep.prepare ~reorder ?cache cfg app) in
  List.map (fun mode -> (mode, Sim.run cfg mode (prep mode))) modes

let deadline ?(cfg = Config.titan_x_pascal) ?metrics ?cache ?(optimistic_bound = false)
    ~deadline_us mode app =
  (* [optimistic_bound] substitutes the analytical *lower* bound for the
     worst-case bound — an intentionally broken analysis for self-tests,
     mirroring the fuzzer's --inject-slots-bug. *)
  let prep = prepare ~cfg ?cache mode app in
  let stats = Sim.run ?metrics cfg mode prep in
  let bound =
    if optimistic_bound then Deadline.min_makespan_us cfg prep else Deadline.bound_of_prep cfg mode prep
  in
  let r = Deadline.report ~deadline_us ~bound_us:bound ~makespan_us:stats.Stats.total_us in
  (match metrics with Some reg -> Deadline.observe reg r | None -> ());
  (r, stats)

let corun_deadlines ?(cfg = Config.titan_x_pascal) ?submission ?spatial ?metrics ?cache
    ~deadlines mode apps =
  if Array.length deadlines <> Array.length apps then
    invalid_arg "Runner.corun_deadlines: deadlines length must match apps";
  let cache = match cache with Some c -> c | None -> Cache.create () in
  let preps = Array.map (fun app -> prepare ~cfg ~cache mode app) apps in
  let admissions = Multi.admit ?spatial cfg ~deadlines preps in
  let res = Multi.run ?submission ?spatial ?metrics cfg mode preps in
  (* Per-app worst-case bound: its own total serial work — plus, under
     Shared, every co-runner's (they can occupy the machine end to end
     before this app's last activity runs).  Partitioned slices are
     private devices, so the solo bound stands. *)
  let bounds = Array.map (fun prep -> Deadline.bound_of_prep cfg mode prep) preps in
  let shared = match spatial with None | Some Multi.Shared -> true | Some (Multi.Partitioned _) -> false in
  let total_bound = Array.fold_left ( +. ) 0.0 bounds in
  let reports =
    Array.mapi
      (fun a (stats : Stats.t) ->
        let bound = if shared then total_bound else bounds.(a) in
        let r =
          Deadline.report ~deadline_us:deadlines.(a) ~bound_us:bound
            ~makespan_us:stats.Stats.total_us
        in
        (match metrics with Some reg -> Deadline.observe reg r | None -> ());
        r)
      res.Multi.mr_stats
  in
  (admissions, reports, res)

let corun_interference ?(cfg = Config.titan_x_pascal) ?submission ?spatial ?metrics ?profs ?cache
    mode apps =
  (* One shared analysis cache across the co-running apps: they are
     prepared independently, exactly as for solo simulation.  [profs]
     gives each app its own span profiler (one per app, checked), so
     per-tenant preparation cost stays separable. *)
  (match profs with
  | Some ps when Array.length ps <> Array.length apps ->
    invalid_arg "Runner.corun_interference: profs length must match apps"
  | _ -> ());
  let cache = match cache with Some c -> c | None -> Cache.create () in
  let preps =
    Array.mapi
      (fun i app ->
        let prof = Option.map (fun ps -> ps.(i)) profs in
        prepare ~cfg ?prof ~cache mode app)
      apps
  in
  let res = Multi.run ?submission ?spatial ?metrics cfg mode preps in
  (* Solo baselines run on the machine each app actually saw: the full
     device under [Shared], its own slice under [Partitioned] — so the
     ratio isolates contention, not machine shrinkage. *)
  let solo_cfg a =
    match spatial with
    | None | Some Multi.Shared -> cfg
    | Some (Multi.Partitioned slices) -> Config.with_sms cfg slices.(a)
  in
  let ratios =
    Array.mapi
      (fun a prep ->
        let solo = Sim.run (solo_cfg a) mode prep in
        res.Multi.mr_stats.(a).Stats.total_us /. solo.Stats.total_us)
      preps
  in
  (res, ratios)

let speedups ?(cfg = Config.titan_x_pascal) ?(modes = Mode.all_fig9) ?cache app =
  let others = List.filter (fun m -> m <> Mode.Baseline) modes in
  let results = simulate_all ~cfg ~modes:(Mode.Baseline :: others) ?cache app in
  let baseline = List.assoc Mode.Baseline results in
  List.map (fun (mode, stats) -> (mode, Stats.speedup ~baseline stats)) (List.tl results)
