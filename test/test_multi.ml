(* Cross-app concurrent execution: the multi-app differential suite.

   Two exactness theorems anchor everything here:

   - degeneracy: Multi.run of a single app on a shared machine IS Sim.run
     — cycle-exact stats and byte-identical traces;
   - partition isolation: under disjoint SM slices, each app's co-run
     stats and trace are identical to its solo run on a machine the size
     of its slice.

   On top of those, the naive Refsched reference is differenced against
   the engine across submission/spatial policies (Diff.check_corun), the
   contention accounting is checked for conservation (per-app counters
   sum to machine-wide twins; occupancy gauges never negative; high-water
   marks equal the series maxima), and the co-run fuzzer must both pass
   clean and catch an injected slot-pool bug. *)

module Config = Bm_gpu.Config
module Stats = Bm_gpu.Stats
module Mode = Bm_maestro.Mode
module Prep = Bm_maestro.Prep
module Sim = Bm_maestro.Sim
module Multi = Bm_maestro.Multi
module Runner = Bm_maestro.Runner
module Hardware = Bm_maestro.Hardware
module Cache = Bm_maestro.Cache
module Rng = Bm_engine.Rng
module Suite = Bm_workloads.Suite
module Genapp = Bm_workloads.Genapp
module Diff = Bm_oracle.Diff
module Fuzz = Bm_oracle.Fuzz
module Trace = Bm_report.Trace
module Metrics = Bm_metrics.Metrics

let cfg = Config.titan_x_pascal

let check_exact label a b =
  match Diff.diff_stats a b with
  | [] -> ()
  | details -> Alcotest.failf "%s diverges:\n  %s" label (String.concat "\n  " details)

(* --- degeneracy: Multi of one app IS Sim ------------------------------ *)

let test_degeneracy_suite () =
  List.iter
    (fun (name, gen) ->
      let app = gen () in
      List.iter
        (fun (mname, mode) ->
          let prep = Runner.prepare ~cfg mode app in
          let solo = Sim.run cfg mode prep in
          let multi = Multi.run cfg mode [| prep |] in
          check_exact (Printf.sprintf "%s/%s" name mname) multi.Multi.mr_stats.(0) solo;
          Alcotest.(check (float 0.0))
            (Printf.sprintf "%s/%s makespan" name mname)
            solo.Stats.total_us multi.Multi.mr_makespan_us)
        Mode.known)
    Suite.all

let test_degeneracy_trace_bytes () =
  List.iter
    (fun (name, gen) ->
      let app = gen () in
      List.iter
        (fun (mname, mode) ->
          let prep = Runner.prepare ~cfg mode app in
          let solo = Trace.create () in
          ignore (Sim.run ~trace:(Trace.sink solo) cfg mode prep);
          let multi = Trace.create () in
          ignore (Multi.run ~traces:[| Some (Trace.sink multi) |] cfg mode [| prep |]);
          Alcotest.(check string)
            (Printf.sprintf "%s/%s trace bytes" name mname)
            (Trace.to_csv solo) (Trace.to_csv multi))
        Mode.known)
    [ ("BICG", Suite.bicg); ("GAUSSIAN", Suite.gaussian) ]

(* Transitivity closes the loop with the capture/replay engine: Multi of
   one app must also equal an event-triggered replay of its graph. *)
let test_degeneracy_vs_replay () =
  let app = Suite.mvt () in
  let graph = Bm_maestro.Graph.capture cfg app in
  List.iter
    (fun (mname, mode) ->
      let replayed = Bm_maestro.Replay.run cfg mode graph in
      let prep = Runner.prepare ~cfg mode app in
      let multi = Multi.run cfg mode [| prep |] in
      check_exact ("replay/" ^ mname) multi.Multi.mr_stats.(0) replayed)
    Mode.known

(* --- partition isolation ---------------------------------------------- *)

let test_partition_isolation_suite_pairs () =
  let pairs = [ ("BICG", "MVT", 14, 14); ("HS", "GAUSSIAN", 20, 8); ("3MM", "PATH", 6, 22) ] in
  List.iter
    (fun (na, nb, sa, sb) ->
      let a = List.assoc na Suite.all () and b = List.assoc nb Suite.all () in
      List.iter
        (fun (mname, mode) ->
          let pa = Runner.prepare ~cfg mode a and pb = Runner.prepare ~cfg mode b in
          let res = Multi.run ~spatial:(Multi.Partitioned [| sa; sb |]) cfg mode [| pa; pb |] in
          let solo_a = Sim.run (Config.with_sms cfg sa) mode pa in
          let solo_b = Sim.run (Config.with_sms cfg sb) mode pb in
          check_exact (Printf.sprintf "%s|%d/%s app0" na sa mname) res.Multi.mr_stats.(0) solo_a;
          check_exact (Printf.sprintf "%s|%d/%s app1" nb sb mname) res.Multi.mr_stats.(1) solo_b)
        Mode.known)
    pairs

let test_partition_isolation_trace_bytes () =
  let a = Suite.bicg () and b = Suite.gaussian () in
  List.iter
    (fun (mname, mode) ->
      let pa = Runner.prepare ~cfg mode a and pb = Runner.prepare ~cfg mode b in
      let sa = Trace.create () and sb = Trace.create () in
      ignore (Sim.run ~trace:(Trace.sink sa) (Config.with_sms cfg 14) mode pa);
      ignore (Sim.run ~trace:(Trace.sink sb) (Config.with_sms cfg 14) mode pb);
      let ma = Trace.create () and mb = Trace.create () in
      ignore
        (Multi.run
           ~spatial:(Multi.Partitioned [| 14; 14 |])
           ~traces:[| Some (Trace.sink ma); Some (Trace.sink mb) |]
           cfg mode [| pa; pb |]);
      Alcotest.(check string) (mname ^ " app0 trace bytes") (Trace.to_csv sa) (Trace.to_csv ma);
      Alcotest.(check string) (mname ^ " app1 trace bytes") (Trace.to_csv sb) (Trace.to_csv mb))
    Mode.known

(* Randomized pairs: isolation must hold for arbitrary generated apps and
   arbitrary splits, not just the hand-picked suite pairs. *)
let prop_partition_isolation_random =
  QCheck2.Test.make ~name:"random pairs: partitioned co-run = solo runs on slices" ~count:25
    QCheck2.Gen.(triple (int_range 0 10_000) (int_range 1 27) (int_range 0 1))
    (fun (seed, sa, mode_coin) ->
      let rng = Rng.create seed in
      let a = Genapp.build (Genapp.generate rng 0) in
      let b = Genapp.build (Genapp.generate rng 1) in
      let sb = cfg.Config.num_sms - sa in
      let mode = if mode_coin = 0 then Mode.Producer_priority else Mode.Consumer_priority 3 in
      let pa = Runner.prepare ~cfg mode a and pb = Runner.prepare ~cfg mode b in
      let res = Multi.run ~spatial:(Multi.Partitioned [| sa; sb |]) cfg mode [| pa; pb |] in
      Diff.diff_stats res.Multi.mr_stats.(0) (Sim.run (Config.with_sms cfg sa) mode pa) = []
      && Diff.diff_stats res.Multi.mr_stats.(1) (Sim.run (Config.with_sms cfg sb) mode pb) = [])

(* --- contention accounting -------------------------------------------- *)

let find_counter sn name =
  match
    Array.find_opt (fun (c : Metrics.counter_summary) -> c.Metrics.cs_name = name) sn.Metrics.sn_counters
  with
  | Some c -> c.Metrics.cs_value
  | None -> Alcotest.failf "counter %s not registered" name

let find_gauge sn name =
  match
    Array.find_opt (fun (g : Metrics.gauge_summary) -> g.Metrics.gs_name = name) sn.Metrics.sn_gauges
  with
  | Some g -> g
  | None -> Alcotest.failf "gauge %s not registered" name

let corun_snapshot ?spatial mode apps =
  let metrics = Metrics.create () in
  let preps = Array.map (fun app -> Runner.prepare ~cfg mode app) apps in
  ignore (Multi.run ?spatial ~metrics cfg mode preps);
  Metrics.snapshot metrics

(* Per-app counters must sum to their machine-wide twins; fuzzed over
   random app pairs so conservation is structural, not a coincidence of
   one workload. *)
let prop_per_app_counters_sum =
  QCheck2.Test.make ~name:"random pairs: per-app counters sum to machine totals" ~count:20
    QCheck2.Gen.(pair (int_range 0 10_000) (int_range 0 1))
    (fun (seed, shared_coin) ->
      let rng = Rng.create seed in
      let apps = [| Genapp.build (Genapp.generate rng 0); Genapp.build (Genapp.generate rng 1) |] in
      let spatial = if shared_coin = 0 then Multi.Shared else Multi.Partitioned [| 5; 23 |] in
      let sn = corun_snapshot ~spatial Mode.Producer_priority apps in
      List.for_all
        (fun kind ->
          let total = find_counter sn (Printf.sprintf "multi.%s" kind) in
          let parts =
            find_counter sn (Printf.sprintf "multi.app.0.%s" kind)
            +. find_counter sn (Printf.sprintf "multi.app.1.%s" kind)
          in
          total = parts)
        [ "tb.dispatched"; "dlb.spill_bytes"; "pcb.spill_bytes" ])

(* Degraded-accounting regression: under contention the occupancy gauges
   must never dip negative (a release-underflow would show up here as a
   negative sample before the loud failure), spill counters must never be
   negative, and every recorded high-water mark must equal the maximum of
   its own series — monotone accounting, no retroactive rewrites. *)
let test_contention_accounting () =
  let apps = [| Suite.hotspot (); Suite.bicg (); Suite.fft () |] in
  List.iter
    (fun mode ->
      let sn = corun_snapshot mode apps in
      Array.iter
        (fun (g : Metrics.gauge_summary) ->
          Array.iter
            (fun (_, v) ->
              if v < 0.0 then Alcotest.failf "%s went negative (%g)" g.Metrics.gs_name v)
            g.Metrics.gs_series;
          let series_max =
            Array.fold_left (fun acc (_, v) -> Float.max acc v) neg_infinity g.Metrics.gs_series
          in
          if Array.length g.Metrics.gs_series > 0 && g.Metrics.gs_high <> series_max then
            Alcotest.failf "%s high-water %g <> series max %g" g.Metrics.gs_name
              g.Metrics.gs_high series_max)
        sn.Metrics.sn_gauges;
      Array.iter
        (fun (c : Metrics.counter_summary) ->
          if c.Metrics.cs_value < 0.0 then
            Alcotest.failf "%s negative (%g)" c.Metrics.cs_name c.Metrics.cs_value)
        sn.Metrics.sn_counters)
    [ Mode.Producer_priority; Mode.Consumer_priority 4 ]

let test_occupancy_unit () =
  let occ = Hardware.Occupancy.create_shared ~capacity:10 ~napps:2 in
  Alcotest.(check int) "no evictions in capacity" 0 (Hardware.Occupancy.acquire occ ~app:0 6);
  Alcotest.(check int) "eviction overflow attributed" 4 (Hardware.Occupancy.acquire occ ~app:1 8);
  Alcotest.(check int) "pool usage" 14 (Hardware.Occupancy.pool_used occ ~app:0);
  Alcotest.(check int) "app0 usage" 6 (Hardware.Occupancy.app_used occ 0);
  Alcotest.(check int) "app1 evictions" 4 (Hardware.Occupancy.app_evicted occ 1);
  Hardware.Occupancy.release occ ~app:0 6;
  Alcotest.(check int) "high water sticks" 14 (Hardware.Occupancy.pool_high occ ~app:1);
  Alcotest.check_raises "release below zero fails loudly"
    (Failure "Occupancy.release: app 0 releasing 1 with app=0 pool=8 live") (fun () ->
      Hardware.Occupancy.release occ ~app:0 1)

(* --- the differential gate -------------------------------------------- *)

let test_check_corun_suite_pair () =
  match Diff.check_corun ~cfg [| Suite.bicg (); Suite.mvt () |] with
  | Ok () -> ()
  | Error mms ->
    Alcotest.failf "BICG+MVT co-run diverges from reference in %d case(s):\n%s"
      (List.length mms)
      (String.concat "\n" (List.map (Format.asprintf "%a" Diff.pp_corun_mismatch) mms))

let test_check_corun_catches_slots_bug () =
  (* A widened reference slot pool must be caught: 3MM on a 2-SM slice
     saturates its 64 TB slots, so 4 phantom slots change the schedule. *)
  match
    Diff.check_corun ~cfg
      ~spatials:[ Multi.Partitioned [| 2; 2 |] ]
      ~slots_bug:4
      [| Suite.threemm (); Suite.threemm () |]
  with
  | Ok () -> Alcotest.fail "injected slot-pool bug was not detected"
  | Error _ -> ()

let test_corun_fuzz_clean () =
  let report = Fuzz.run_corun ~seed:11 ~count:10 ~shrink:false () in
  Alcotest.(check bool) "corun fuzz clean" true (Fuzz.corun_ok report);
  Alcotest.(check int) "all co-runs examined" 10 report.Fuzz.cr_count

let test_corun_fuzz_catches_and_shrinks () =
  let report = Fuzz.run_corun ~seed:7 ~count:12 ~slots_bug:3 ~shrink:true () in
  match report.Fuzz.cr_failures with
  | [] -> Alcotest.fail "fuzzer missed the injected slot-pool bug"
  | f :: _ ->
    Alcotest.(check bool) "classified as scheduler mismatch" true
      (match f.Fuzz.cf_kind with Fuzz.Scheduler_mismatch -> true | _ -> false);
    (match f.Fuzz.cf_shrunk with
    | None -> Alcotest.fail "failure was not shrunk"
    | Some c ->
      let kernels = Genapp.kernels c.Genapp.c_a + Genapp.kernels c.Genapp.c_b in
      let original =
        Genapp.kernels f.Fuzz.cf_corun.Genapp.c_a + Genapp.kernels f.Fuzz.cf_corun.Genapp.c_b
      in
      Alcotest.(check bool)
        (Printf.sprintf "shrunk pair (%d kernels) smaller than original (%d)" kernels original)
        true
        (kernels < original && f.Fuzz.cf_shrink_steps > 0))

(* Forty apps on one shared machine: events carry one flat kernel/command
   index across apps, so the app count has no cap of its own. *)
let test_many_apps_vs_reference () =
  let rng = Rng.create 33 in
  let apps =
    Array.init 40 (fun i ->
        Genapp.build (Genapp.generate ~max_streams:1 ~max_len:2 ~max_grid:8 rng i))
  in
  match
    Diff.check_corun ~cfg
      ~modes:[ Mode.Baseline; Mode.Producer_priority; Mode.Consumer_priority 2; Mode.Deadline_edf 2 ]
      ~spatials:[ Multi.Shared ] apps
  with
  | Ok () -> ()
  | Error ms ->
    Alcotest.failf "40-app shared co-run diverges from the reference:\n%s"
      (String.concat "\n" (List.map (Format.asprintf "%a" Diff.pp_corun_mismatch) ms))

(* --- engine surface ---------------------------------------------------- *)

let test_validation () =
  let prep = Runner.prepare ~cfg Mode.Producer_priority (Suite.mvt ()) in
  Alcotest.check_raises "no apps" (Invalid_argument "Multi.run: no apps") (fun () ->
      ignore (Multi.run cfg Mode.Producer_priority [||]));
  Alcotest.check_raises "slice count"
    (Invalid_argument "Multi.run: partition list must have one slice per app") (fun () ->
      ignore (Multi.run ~spatial:(Multi.Partitioned [| 14 |]) cfg Mode.Producer_priority [| prep; prep |]));
  Alcotest.check_raises "empty slice" (Invalid_argument "Multi.run: empty partition slice")
    (fun () ->
      ignore (Multi.run ~spatial:(Multi.Partitioned [| 28; 0 |]) cfg Mode.Producer_priority [| prep; prep |]));
  Alcotest.check_raises "oversubscribed"
    (Invalid_argument "Multi.run: partition slices exceed the machine's SMs") (fun () ->
      ignore (Multi.run ~spatial:(Multi.Partitioned [| 20; 20 |]) cfg Mode.Producer_priority [| prep; prep |]));
  Alcotest.(check (option string)) "well-formed partition" None
    (Multi.partition_error cfg ~napps:2 [| 14; 14 |]);
  Alcotest.check_raises "with_sms needs an SM"
    (Invalid_argument "Config.with_sms: need at least one SM") (fun () ->
      ignore (Config.with_sms cfg 0))

let test_submission_names () =
  List.iter
    (fun s ->
      match Multi.submission_of_string (Multi.submission_name s) with
      | Some s' -> Alcotest.(check bool) "submission name round-trips" true (s = s')
      | None -> Alcotest.failf "submission %s does not parse back" (Multi.submission_name s))
    [ Multi.Fifo; Multi.Round_robin; Multi.Packed ];
  Alcotest.(check bool) "rr alias" true (Multi.submission_of_string "rr" = Some Multi.Round_robin);
  Alcotest.(check bool) "unknown rejected" true (Multi.submission_of_string "lifo" = None);
  Alcotest.(check string) "spatial name" "partitioned:14+14"
    (Multi.spatial_name (Multi.Partitioned [| 14; 14 |]))

let test_interference_ratios () =
  let apps = [| Suite.bicg (); Suite.mvt () |] in
  let _, shared = Runner.corun_interference ~cfg Mode.Producer_priority apps in
  Array.iter
    (fun r -> Alcotest.(check bool) (Printf.sprintf "shared ratio %.3f >= 1" r) true (r >= 1.0))
    shared;
  let _, part =
    Runner.corun_interference ~cfg ~spatial:(Multi.Partitioned [| 14; 14 |])
      Mode.Producer_priority apps
  in
  Array.iter
    (fun r -> Alcotest.(check (float 0.0)) "partitioned ratio exactly 1" 1.0 r)
    part

(* --- bmctl integration ------------------------------------------------- *)

let bmctl = Exe.bmctl

let test_bmctl_corun_exit_codes () =
  Alcotest.(check int) "corun exits 0" 0 (bmctl [ "corun"; "BICG"; "MVT" ]);
  Alcotest.(check int) "corun --check exits 0" 0
    (bmctl [ "corun"; "BICG"; "MVT"; "--partition"; "14,14"; "--policy"; "packed"; "--check" ]);
  Alcotest.(check int) "slice/app count mismatch exits 124" 124
    (bmctl [ "corun"; "BICG"; "MVT"; "--partition"; "14" ]);
  Alcotest.(check int) "unknown app exits 124" 124 (bmctl [ "corun"; "BICG"; "NOPE" ]);
  Alcotest.(check int) "bad policy exits 124" 124
    (bmctl [ "corun"; "BICG"; "MVT"; "--policy"; "lifo" ]);
  Alcotest.(check int) "zero-SM slice exits 124" 124
    (bmctl [ "corun"; "BICG"; "MVT"; "--partition"; "28,0" ]);
  (* Slices are plain decimal: int_of_string would read 0x10 as 16 and
     1_4 as 14. *)
  List.iter
    (fun p ->
      Alcotest.(check int) (Printf.sprintf "--partition %s exits 124" p) 124
        (bmctl [ "corun"; "BICG"; "MVT"; "--partition"; p ]))
    [ "0x10,4"; "1_4,4"; "+14,14"; "14,-4" ];
  Alcotest.(check int) "oversubscribed partition exits 124" 124
    (bmctl [ "corun"; "BICG"; "MVT"; "--partition"; "20,20" ]);
  Alcotest.(check int) "explain: oversubscribed partition exits 124" 124
    (bmctl [ "explain"; "BICG"; "MVT"; "--partition"; "20,20" ])

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let with_temp_file f =
  let path = Filename.temp_file "bm_multi" ".txt" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let test_bmctl_corun_help () =
  with_temp_file (fun path ->
      Alcotest.(check int) "main help exits 0" 0 (bmctl ~stdout:path [ "--help"; "plain" ]);
      let main_help = In_channel.with_open_bin path In_channel.input_all in
      Alcotest.(check bool) "main help lists corun" true (contains ~needle:"corun" main_help));
  with_temp_file (fun path ->
      Alcotest.(check int) "corun help exits 0" 0 (bmctl ~stdout:path [ "corun"; "--help"; "plain" ]);
      let help = In_channel.with_open_bin path In_channel.input_all in
      List.iter
        (fun flag ->
          Alcotest.(check bool) (Printf.sprintf "corun help documents %s" flag) true
            (contains ~needle:flag help))
        [ "--partition"; "--policy"; "--check"; "--metrics" ]);
  with_temp_file (fun path ->
      Alcotest.(check int) "fuzz help exits 0" 0 (bmctl ~stdout:path [ "fuzz"; "--help"; "plain" ]);
      let help = In_channel.with_open_bin path In_channel.input_all in
      List.iter
        (fun flag ->
          Alcotest.(check bool) (Printf.sprintf "fuzz help documents %s" flag) true
            (contains ~needle:flag help))
        [ "--corun"; "--inject-slots-bug"; "--inject-window-bug" ])

let suite =
  [
    Alcotest.test_case "degeneracy: suite x modes cycle-exact" `Slow test_degeneracy_suite;
    Alcotest.test_case "degeneracy: trace byte-identity" `Quick test_degeneracy_trace_bytes;
    Alcotest.test_case "degeneracy: vs replay backend" `Quick test_degeneracy_vs_replay;
    Alcotest.test_case "isolation: suite pairs x modes" `Slow test_partition_isolation_suite_pairs;
    Alcotest.test_case "isolation: trace byte-identity" `Quick test_partition_isolation_trace_bytes;
    QCheck_alcotest.to_alcotest prop_partition_isolation_random;
    QCheck_alcotest.to_alcotest prop_per_app_counters_sum;
    Alcotest.test_case "contention accounting invariants" `Quick test_contention_accounting;
    Alcotest.test_case "occupancy: attribution + loud underflow" `Quick test_occupancy_unit;
    Alcotest.test_case "diff: co-run gate on suite pair" `Slow test_check_corun_suite_pair;
    Alcotest.test_case "diff: injected slots bug caught" `Quick test_check_corun_catches_slots_bug;
    Alcotest.test_case "diff: 40 shared apps = reference" `Quick test_many_apps_vs_reference;
    Alcotest.test_case "fuzz: co-run axis clean" `Quick test_corun_fuzz_clean;
    Alcotest.test_case "fuzz: co-run bug caught and shrunk" `Slow test_corun_fuzz_catches_and_shrinks;
    Alcotest.test_case "validation errors" `Quick test_validation;
    Alcotest.test_case "submission/spatial names" `Quick test_submission_names;
    Alcotest.test_case "interference ratios" `Quick test_interference_ratios;
    Alcotest.test_case "bmctl corun: exit codes" `Quick test_bmctl_corun_exit_codes;
    Alcotest.test_case "bmctl corun: help consistency" `Quick test_bmctl_corun_help;
  ]
