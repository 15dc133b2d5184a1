(* Deadline-aware scheduling: EDF dispatch, priority inheritance, the
   response-time-analysis oracle, admission control, and the deadline.*
   metric family.

   The load-bearing properties:

   - the EDF dispatch order is differenced cycle-exactly against the naive
     reference (solo and co-run), and the default keys derived from a
     preparation and from a captured schedule are bit-identical;
   - RTA soundness: for every suite app x mode, simulated and replayed
     from the decoded capture, the observed makespan is at most the
     analytical bound, and an injected
     optimistic-bound bug IS detected;
   - admission control rejects a generated app whose deadline sits below
     the analytical lower bound. *)

module Config = Bm_gpu.Config
module Stats = Bm_gpu.Stats
module Mode = Bm_maestro.Mode
module Prep = Bm_maestro.Prep
module Sim = Bm_maestro.Sim
module Graph = Bm_maestro.Graph
module Multi = Bm_maestro.Multi
module Runner = Bm_maestro.Runner
module Deadline = Bm_maestro.Deadline
module Rng = Bm_engine.Rng
module Suite = Bm_workloads.Suite
module Genapp = Bm_workloads.Genapp
module Diff = Bm_oracle.Diff
module Refsched = Bm_oracle.Refsched
module Rta = Bm_oracle.Rta
module Metrics = Bm_metrics.Metrics
module Json = Bm_metrics.Json

let cfg = Config.titan_x_pascal
let edf_modes = [ Mode.Deadline_edf 2; Mode.Deadline_edf 3; Mode.Deadline_edf 4 ]

(* --- Mode round-trips -------------------------------------------------- *)

let test_mode_round_trip () =
  List.iter
    (fun (short, mode) ->
      (match Mode.of_string short with
      | Some m -> Alcotest.(check bool) (short ^ " short parses") true (m = mode)
      | None -> Alcotest.failf "short name %s does not parse" short);
      (* The long display name must parse back too (the old table only
         accepted short names while [name] printed long forms). *)
      match Mode.of_string (Mode.name mode) with
      | Some m -> Alcotest.(check bool) (Mode.name mode ^ " long parses") true (m = mode)
      | None -> Alcotest.failf "display name %s does not parse" (Mode.name mode))
    Mode.known

let test_mode_deadline_family () =
  List.iter
    (fun (short, w) ->
      match Mode.of_string short with
      | Some (Mode.Deadline_edf w') ->
        Alcotest.(check int) (short ^ " window") w w';
        Alcotest.(check string)
          (short ^ " name") (Printf.sprintf "deadline-edf-%dk" w)
          (Mode.name (Mode.Deadline_edf w))
      | Some _ -> Alcotest.failf "%s parses to a non-deadline mode" short
      | None -> Alcotest.failf "%s missing from Mode.known" short)
    [ ("edf2", 2); ("edf3", 3); ("edf4", 4) ];
  List.iter
    (fun m ->
      Alcotest.(check bool) "fine grain" true (Mode.fine_grain m);
      Alcotest.(check bool) "reorders" true (Mode.reorders m);
      Alcotest.(check bool) "not serial" false (Mode.serial_commands m);
      Alcotest.(check bool) "policy is Edf" true (Mode.policy m = Mode.Edf))
    edf_modes;
  (* The Fig. 9 sweep is a paper artifact and must not grow EDF bars. *)
  Alcotest.(check bool) "all_fig9 unchanged" false
    (List.exists (fun m -> Mode.policy m = Mode.Edf) Mode.all_fig9)

(* --- Deadline keys ------------------------------------------------------ *)

let test_keys_prep_vs_schedule () =
  List.iter
    (fun name ->
      let app = Suite.by_name name () in
      let graph = Graph.capture cfg app in
      List.iter
        (fun reorder ->
          let sched = if reorder then graph.Graph.g_reordered else graph.Graph.g_plain in
          let ks = Deadline.default_keys_of_schedule sched in
          (* A fresh preparation lowers to the captured keys, bit for bit. *)
          let kp =
            Deadline.default_keys_of_schedule (Graph.schedule_of_prep (Prep.prepare ~reorder cfg app))
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s reorder=%b keys bit-identical" name reorder)
            true (kp = ks);
          Alcotest.check_raises "wrong-length override"
            (Invalid_argument "Deadline.order_of_schedule: deadlines length <> launches")
            (fun () ->
              ignore (Deadline.order_of_schedule ~deadlines:(Array.make (Array.length ks + 1) 1.0) sched));
          (* Keys are cumulative work: positive and nondecreasing along
             every stream chain. *)
          Array.iteri
            (fun k (n : Graph.node) ->
              Alcotest.(check bool) "key positive" true (ks.(k) > 0.0);
              if n.Graph.n_prev >= 0 then
                Alcotest.(check bool) "chain monotone" true (ks.(k) > ks.(n.Graph.n_prev)))
            sched.Graph.s_nodes)
        [ false; true ])
    [ "BICG"; "GRAMSCHM"; "LUD" ]

let test_effective_inheritance () =
  (* A three-kernel chain where the last kernel is the most urgent: both
     ancestors are promoted to its key. *)
  let eff = Deadline.effective ~prev_of:[| -1; 0; 1 |] [| 10.0; 20.0; 1.0 |] in
  Alcotest.(check bool) "chain promoted" true (eff = [| 1.0; 1.0; 1.0 |]);
  (* Promotion never demotes: a lax successor leaves an urgent producer
     alone. *)
  let eff = Deadline.effective ~prev_of:[| -1; 0 |] [| 1.0; 50.0 |] in
  Alcotest.(check bool) "no demotion" true (eff = [| 1.0; 50.0 |]);
  (* Two streams: the urgent consumer k2 (stream 0) promotes its producer
     k0 ahead of the otherwise-earlier-keyed k1 (stream 1). *)
  let order = Deadline.order_of_keys ~prev_of:[| -1; -1; 0 |] [| 10.0; 5.0; 2.0 |] in
  Alcotest.(check bool) "producer promoted ahead" true (order = [| 0; 2; 1 |])

(* --- EDF differenced against the naive reference ----------------------- *)

let test_edf_diff_suite () =
  List.iter
    (fun name ->
      let app = Suite.by_name name () in
      match Diff.check ~modes:edf_modes app with
      | Ok () -> ()
      | Error mms ->
        Alcotest.failf "%s EDF diverges: %s" name
          (String.concat "; " (List.map (fun mm -> Format.asprintf "%a" Diff.pp_mismatch mm) mms)))
    [ "BICG"; "MVT"; "HS"; "LUD" ]

let test_edf_diff_corun () =
  let apps = [| Suite.by_name "BICG" (); Suite.by_name "MVT" () |] in
  match Diff.check_corun ~modes:edf_modes apps with
  | Ok () -> ()
  | Error mms ->
    Alcotest.failf "co-run EDF diverges: %s"
      (String.concat "; "
         (List.map (fun cm -> Format.asprintf "%a" Diff.pp_corun_mismatch cm) mms))

let test_deadline_override_sim_vs_ref () =
  (* Random per-kernel deadline overrides (non-monotone, so priority
     inheritance actually reorders dispatch): the optimized engine and the
     naive reference must stay cycle-exact. *)
  let mode = Mode.Deadline_edf 3 in
  for seed = 0 to 4 do
    let rng = Rng.create (7000 + seed) in
    let spec = Genapp.generate ~max_streams:3 ~max_len:4 rng seed in
    let app = Genapp.build spec in
    let prep = Runner.prepare ~cfg mode app in
    let nk = Array.length prep.Prep.p_launches in
    let deadlines = Array.init nk (fun _ -> 1.0 +. (999.0 *. Rng.float_01 rng)) in
    let sim = Sim.run ~deadlines cfg mode prep in
    let ref_ = (Refsched.run ~deadlines:[| deadlines |] cfg mode [| prep |]).(0) in
    match Diff.diff_stats sim ref_ with
    | [] -> ()
    | details ->
      Alcotest.failf "seed %d deadline override diverges:\n  %s\n%s" seed
        (String.concat "\n  " details) (Genapp.to_string spec)
  done

(* The engine visits resident kernels through an active list kept in EDF
   rank order.  Random permutations as deadline overrides put the EDF order
   far from launch order, and a one-SM machine keeps slots scarce, so
   dispatch order decides which TBs run: a list linked in any order other
   than rank diverges from the naive reference. *)
let prop_edf_rank_list =
  let small = Config.with_sms cfg 1 in
  QCheck2.Test.make ~name:"edf: active list in rank order = reference (permuted deadlines)"
    ~count:30
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create (90_000 + seed) in
      let spec = Genapp.generate ~max_streams:4 ~max_len:5 ~max_grid:40 rng seed in
      let app = Genapp.build spec in
      List.for_all
        (fun mode ->
          let prep = Runner.prepare ~cfg:small mode app in
          let nk = Array.length prep.Prep.p_launches in
          let perm = Array.init nk Fun.id in
          for i = nk - 1 downto 1 do
            let j = Rng.int_below rng (i + 1) in
            let t = perm.(i) in
            perm.(i) <- perm.(j);
            perm.(j) <- t
          done;
          let deadlines = Array.map (fun p -> float_of_int (p + 1)) perm in
          match
            Diff.diff_stats (Sim.run ~deadlines small mode prep)
              (Refsched.run ~deadlines:[| deadlines |] small mode [| prep |]).(0)
          with
          | [] -> true
          | line :: _ ->
            QCheck2.Test.fail_reportf "%s diverges from the reference: %s\n%s" (Mode.name mode)
              line (Genapp.to_string spec))
        edf_modes)

let test_dispatch_invariant_to_app_deadline () =
  (* The app-level --deadline only affects reporting: default EDF keys are
     work-derived, so the schedule (and makespan) cannot depend on it. *)
  let app = Suite.by_name "BICG" () in
  let r1, s1 = Runner.deadline ~deadline_us:1.0 (Mode.Deadline_edf 2) app in
  let r2, s2 = Runner.deadline ~deadline_us:1e9 (Mode.Deadline_edf 2) app in
  Alcotest.(check (float 0.0)) "same makespan" s1.Stats.total_us s2.Stats.total_us;
  Alcotest.(check bool) "tight deadline missed" true r1.Deadline.r_miss;
  Alcotest.(check bool) "lax deadline met" false r2.Deadline.r_miss;
  Alcotest.(check bool) "no RTA violation either way" false
    (r1.Deadline.r_rta_violation || r2.Deadline.r_rta_violation)

(* --- RTA soundness ------------------------------------------------------ *)

let test_rta_soundness_suite () =
  List.iter
    (fun (name, gen) ->
      let entries = Rta.check_app ~name (gen ()) in
      Alcotest.(check int)
        (name ^ " sweep size")
        (List.length Mode.known * 2)
        (List.length entries);
      match Rta.violations entries with
      | [] -> ()
      | v :: _ -> Alcotest.failf "RTA bound violated: %s" (Format.asprintf "%a" Rta.pp_entry v))
    Suite.all

let test_rta_self_test () =
  (* The deliberately optimistic bound (the analytical lower bound) must
     be caught: any real app does mallocs, copies and launches that the
     lower bound ignores. *)
  let entries = Rta.check_app ~optimistic_bound:true ~name:"BICG" (Suite.by_name "BICG" ()) in
  Alcotest.(check bool) "injected optimistic bound detected" true (Rta.violations entries <> [])

let test_rta_json () =
  let entries = Rta.check_app ~modes:[ Mode.Baseline ] ~name:"MVT" (Suite.by_name "MVT" ()) in
  let j = Rta.to_json entries in
  (match Json.member "schema" j with
  | Some (Json.Str s) -> Alcotest.(check string) "schema" "bm.rta/1" s
  | _ -> Alcotest.fail "missing schema");
  (match Json.member "violations" j with
  | Some (Json.Num n) -> Alcotest.(check (float 0.0)) "no violations" 0.0 n
  | _ -> Alcotest.fail "missing violations");
  match Json.member "entries" j with
  | Some (Json.Arr es) ->
    Alcotest.(check (list string)) "one entry per leg" [ "sim"; "replay" ]
      (List.map
         (fun e -> match Json.member "backend" e with Some (Json.Str s) -> s | _ -> "?")
         es);
    List.iter
      (fun e ->
        match (Json.member "bound_us" e, Json.member "observed_us" e) with
        | Some (Json.Num b), Some (Json.Num o) -> Alcotest.(check bool) "sound" true (o <= b)
        | _ -> Alcotest.fail "missing bound/observed")
      es
  | _ -> Alcotest.fail "missing entries"

(* --- Admission control -------------------------------------------------- *)

(* Deterministically find a generated mixed-criticality co-run whose hard
   app's deadline factor is below 1.0 — provably unmeetable. *)
let find_unmeetable () =
  let rec scan seed =
    if seed > 200 then Alcotest.fail "no unmeetable spec in 200 seeds"
    else begin
      let cd = Genapp.generate_corun_deadlines (Rng.create seed) 0 in
      if cd.Genapp.cd_a.Genapp.d_factor < 1.0 || cd.Genapp.cd_b.Genapp.d_factor < 1.0 then
        (seed, cd)
      else scan (seed + 1)
    end
  in
  scan 0

let test_admission_rejects_unmeetable () =
  let _seed, cd = find_unmeetable () in
  let c = cd.Genapp.cd_corun in
  let mode = Mode.Deadline_edf 2 in
  let preps =
    [|
      Runner.prepare ~cfg mode (Genapp.build c.Genapp.c_a);
      Runner.prepare ~cfg mode (Genapp.build c.Genapp.c_b);
    |]
  in
  let factors = [| cd.Genapp.cd_a.Genapp.d_factor; cd.Genapp.cd_b.Genapp.d_factor |] in
  let deadlines =
    Array.mapi (fun i prep -> factors.(i) *. Deadline.min_makespan_us cfg prep) preps
  in
  let verdicts = Multi.admit cfg ~deadlines preps in
  Array.iteri
    (fun i v ->
      Alcotest.(check bool)
        (Printf.sprintf "app %d verdict matches factor" i)
        (factors.(i) >= 1.0) v.Multi.adm_admitted;
      Alcotest.(check (float 0.0)) "deadline recorded" deadlines.(i) v.Multi.adm_deadline_us;
      Alcotest.(check bool) "lower bound positive" true (v.Multi.adm_lower_us > 0.0))
    verdicts;
  Alcotest.(check bool) "at least one rejection" true
    (Array.exists (fun v -> not v.Multi.adm_admitted) verdicts)

let test_admission_lower_bound_is_sound () =
  (* The rejection bound must itself be sound: no mode ever beats it. *)
  List.iter
    (fun name ->
      let app = Suite.by_name name () in
      List.iter
        (fun (_, mode) ->
          let prep = Runner.prepare ~cfg mode app in
          let lower = Deadline.min_makespan_us cfg prep in
          let stats = Sim.run cfg mode prep in
          Alcotest.(check bool)
            (Printf.sprintf "%s %s >= lower" name (Mode.name mode))
            true
            (stats.Stats.total_us >= lower))
        Mode.known)
    [ "BICG"; "MVT"; "HS" ]

let test_admit_validation () =
  let app = Suite.by_name "MVT" () in
  let prep = Runner.prepare ~cfg Mode.Baseline app in
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Multi.admit: deadlines must have one entry per app") (fun () ->
      ignore (Multi.admit cfg ~deadlines:[| 1.0; 2.0 |] [| prep |]));
  (* A malformed partition is refused with the reason [Multi.run] gives. *)
  List.iter
    (fun (parts, reason) ->
      let admit () =
        ignore
          (Multi.admit ~spatial:(Multi.Partitioned parts) cfg ~deadlines:[| 1.0; 1.0 |]
             [| prep; prep |])
      in
      Alcotest.check_raises reason (Invalid_argument ("Multi.admit: " ^ reason)) admit;
      Alcotest.check_raises reason (Invalid_argument ("Multi.run: " ^ reason)) (fun () ->
          ignore (Multi.run ~spatial:(Multi.Partitioned parts) cfg Mode.Baseline [| prep; prep |])))
    [
      ([| 14 |], "partition list must have one slice per app");
      ([| 28; 0 |], "empty partition slice");
      ([| 20; 20 |], "partition slices exceed the machine's SMs");
    ]

(* --- Co-run deadlines and metrics --------------------------------------- *)

let test_corun_deadlines_reports () =
  let apps = [| Suite.by_name "BICG" (); Suite.by_name "MVT" () |] in
  let reg = Metrics.create () in
  let admissions, reports, res =
    Runner.corun_deadlines ~metrics:reg ~deadlines:[| 1e9; 1e9 |] (Mode.Deadline_edf 2) apps
  in
  Alcotest.(check int) "one admission per app" 2 (Array.length admissions);
  Alcotest.(check int) "one report per app" 2 (Array.length reports);
  Array.iteri
    (fun a r ->
      Alcotest.(check (float 0.0))
        "observed = per-app makespan" res.Multi.mr_stats.(a).Stats.total_us
        r.Deadline.r_makespan_us;
      Alcotest.(check bool) "lax deadline met" false r.Deadline.r_miss;
      Alcotest.(check bool) "bound holds under contention" false r.Deadline.r_rta_violation)
    reports;
  Alcotest.(check (float 0.0)) "no misses recorded" 0.0
    (Metrics.counter_value (Metrics.counter reg "deadline.miss_count"))

let test_observe_metrics () =
  let reg = Metrics.create () in
  let r = Deadline.report ~deadline_us:10.0 ~bound_us:100.0 ~makespan_us:25.0 in
  Alcotest.(check bool) "miss" true r.Deadline.r_miss;
  Alcotest.(check (float 1e-9)) "tardiness" 15.0 r.Deadline.r_tardiness_us;
  Alcotest.(check (float 1e-9)) "slack" (-15.0) r.Deadline.r_slack_us;
  Alcotest.(check bool) "no violation" false r.Deadline.r_rta_violation;
  Deadline.observe reg r;
  Deadline.observe reg (Deadline.report ~deadline_us:50.0 ~bound_us:100.0 ~makespan_us:25.0);
  Alcotest.(check (float 0.0)) "one miss counted" 1.0
    (Metrics.counter_value (Metrics.counter reg "deadline.miss_count"));
  Alcotest.(check (float 1e-9)) "slack gauge holds last" 25.0
    (Metrics.gauge_value (Metrics.gauge reg "deadline.slack_us"));
  Alcotest.(check (float 1e-9)) "bound gauge" 100.0
    (Metrics.gauge_value (Metrics.gauge reg "deadline.bound_us"));
  let viol = Deadline.report ~deadline_us:50.0 ~bound_us:20.0 ~makespan_us:25.0 in
  Alcotest.(check bool) "bound violation flagged" true viol.Deadline.r_rta_violation;
  Alcotest.(check bool) "met within bound violation" false viol.Deadline.r_miss

(* --- Generator determinism ---------------------------------------------- *)

let test_generator_determinism () =
  let a = Genapp.generate_corun_deadlines (Rng.create 99) 3 in
  let b = Genapp.generate_corun_deadlines (Rng.create 99) 3 in
  Alcotest.(check bool) "same seed, same spec" true (a = b);
  (* Seed contract: the co-run half is exactly what generate_corun alone
     yields — deadline draws come strictly after. *)
  let c = Genapp.generate_corun (Rng.create 99) 3 in
  Alcotest.(check bool) "corun half preserved" true (a.Genapp.cd_corun = c);
  List.iter
    (fun (d : Genapp.deadline_spec) ->
      match d.Genapp.d_criticality with
      | Genapp.Hard ->
        Alcotest.(check bool) "hard factor in [0.5,1.5)" true
          (d.Genapp.d_factor >= 0.5 && d.Genapp.d_factor < 1.5)
      | Genapp.Soft ->
        Alcotest.(check bool) "soft factor in [2,10)" true
          (d.Genapp.d_factor >= 2.0 && d.Genapp.d_factor < 10.0))
    [ a.Genapp.cd_a; a.Genapp.cd_b ]

(* --- bmctl integration --------------------------------------------------- *)

let bmctl args = Exe.bmctl args

let test_bmctl_deadline_exit_codes () =
  (* Exit 0: lax deadline, sound bound.  Exit 7 must mean a genuine bound
     violation — and the injected optimistic bound is exactly that. *)
  Alcotest.(check int) "lax deadline exits 0" 0
    (bmctl [ "run"; "MVT"; "-m"; "edf2"; "--deadline"; "1e9" ]);
  Alcotest.(check int) "missed-but-predicted deadline still exits 0" 0
    (bmctl [ "run"; "MVT"; "-m"; "edf2"; "--deadline"; "0.5" ]);
  Alcotest.(check int) "injected optimistic bound exits 7" 7
    (bmctl [ "run"; "MVT"; "-m"; "edf2"; "--deadline"; "1e9"; "--inject-rta-bug" ]);
  Alcotest.(check int) "rta subcommand clean" 0 (bmctl [ "rta"; "MVT" ]);
  Alcotest.(check int) "rta self-test trips" 7 (bmctl [ "rta"; "MVT"; "--inject-rta-bug" ]);
  Alcotest.(check int) "corun with deadlines" 0
    (bmctl [ "corun"; "BICG"; "MVT"; "--deadlines"; "1e9,1e9" ]);
  (* One conv for both flags: a deadline that is not a positive finite
     number is a parse error, never a judged run. *)
  List.iter
    (fun d ->
      Alcotest.(check int) (Printf.sprintf "run --deadline=%s exits 124" d) 124
        (bmctl [ "run"; "MVT"; "-m"; "edf2"; "--deadline=" ^ d ]);
      Alcotest.(check int) (Printf.sprintf "corun --deadlines=1e9,%s exits 124" d) 124
        (bmctl [ "corun"; "BICG"; "MVT"; "--deadlines=1e9," ^ d ]))
    [ "nan"; "0"; "-5" ]

let suite =
  [
    Alcotest.test_case "mode: round-trip" `Quick test_mode_round_trip;
    Alcotest.test_case "mode: deadline family" `Quick test_mode_deadline_family;
    Alcotest.test_case "keys: prep vs schedule" `Quick test_keys_prep_vs_schedule;
    Alcotest.test_case "keys: priority inheritance" `Quick test_effective_inheritance;
    QCheck_alcotest.to_alcotest prop_edf_rank_list;
    Alcotest.test_case "edf: diff vs reference" `Slow test_edf_diff_suite;
    Alcotest.test_case "edf: co-run diff" `Slow test_edf_diff_corun;
    Alcotest.test_case "edf: deadline override sim=ref" `Slow test_deadline_override_sim_vs_ref;
    Alcotest.test_case "edf: dispatch invariant to deadline" `Quick test_dispatch_invariant_to_app_deadline;
    Alcotest.test_case "rta: soundness suite-wide" `Slow test_rta_soundness_suite;
    Alcotest.test_case "rta: optimistic-bound self-test" `Quick test_rta_self_test;
    Alcotest.test_case "rta: json report" `Quick test_rta_json;
    Alcotest.test_case "admission: rejects unmeetable" `Slow test_admission_rejects_unmeetable;
    Alcotest.test_case "admission: lower bound sound" `Slow test_admission_lower_bound_is_sound;
    Alcotest.test_case "admission: validation" `Quick test_admit_validation;
    Alcotest.test_case "corun: deadline reports" `Quick test_corun_deadlines_reports;
    Alcotest.test_case "metrics: deadline.* family" `Quick test_observe_metrics;
    Alcotest.test_case "genapp: deadline determinism" `Quick test_generator_determinism;
    Alcotest.test_case "bmctl: deadline exit codes" `Slow test_bmctl_deadline_exit_codes;
  ]
