(* Ledger self-tests: the statistics and naming rules the benchmark's
   numbers rest on, span accounting, a one-pass smoke of every workload,
   and the exact-output reference. *)

open Bm_ledger
module Prof = Bm_metrics.Prof
module Json = Bm_metrics.Json
module Suite = Bm_workloads.Suite

let close = Alcotest.float 1e-12

let read_json path =
  match Result.bind (Reference.read_file path) Json.of_string with
  | Ok j -> j
  | Error msg -> Alcotest.failf "%s: %s" path msg

let reference () =
  match Reference.load "reference.json" with Ok r -> r | Error msg -> Alcotest.failf "reference.json: %s" msg

let test_order_statistics () =
  Alcotest.check close "odd median" 2.0 (Stat.median [ 3.0; 1.0; 2.0 ]);
  Alcotest.check close "even median" 2.5 (Stat.median [ 4.0; 1.0; 3.0; 2.0 ]);
  (* statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] *)
  let q1, q2, q3 = Stat.quartiles (List.init 10 (fun i -> float_of_int (i + 1))) in
  Alcotest.(check (list close)) "quartiles of 1..10" [ 2.75; 5.5; 8.25 ] [ q1; q2; q3 ];
  (* statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75] *)
  let q1, q2, q3 = Stat.quartiles [ 4.0; 3.0; 2.0; 1.0 ] in
  Alcotest.(check (list close)) "quartiles of 1..4" [ 1.25; 2.5; 3.75 ] [ q1; q2; q3 ];
  Alcotest.check close "spread" ((8.25 -. 2.75) /. 5.5) (Stat.spread (List.init 10 (fun i -> float_of_int (i + 1))));
  Alcotest.check close "p95 interpolates" 95.05 (Stat.percentile 95.0 (List.init 100 (fun i -> float_of_int (i + 1))));
  let pct = Alcotest.(option (float 0.0)) in
  Alcotest.check pct "240 samples: p95" (Some 95.0) (Stat.reportable_percentile 240);
  Alcotest.check pct "20 samples: p50" (Some 50.0) (Stat.reportable_percentile 20);
  Alcotest.check pct "200 samples: exactly 10 beyond p95" (Some 95.0) (Stat.reportable_percentile 200);
  Alcotest.check pct "199 samples: p90" (Some 90.0) (Stat.reportable_percentile 199);
  Alcotest.check pct "19 samples: none" None (Stat.reportable_percentile 19)

let test_host_factor () =
  Alcotest.check close "mean probe over the reference" 2.0
    (Host.factor [ Host.reference_ms; 2.0 *. Host.reference_ms; 3.0 *. Host.reference_ms ]);
  Alcotest.(check bool) "a probe takes time" true (Host.probe () > 0.0)

let names_of key j =
  List.map
    (fun m -> Option.get (Option.bind (Json.member "name" m) Json.to_str))
    (Option.get (Option.bind (Json.member key j) Json.to_list))

let test_metric_names () =
  List.iter
    (fun n -> Alcotest.(check bool) (Printf.sprintf "valid %S" n) true (Stat.valid_name n))
    (Measure.end_to_end_names @ Measure.per_layer_names);
  List.iter
    (fun n -> Alcotest.(check bool) (Printf.sprintf "invalid %S" n) false (Stat.valid_name n))
    [ ""; ".self_ms"; "a b"; "a/b"; "p95%"; String.make 65 'a' ];
  let all = Measure.end_to_end_names @ Measure.per_layer_names in
  Alcotest.(check int) "unique" (List.length all) (List.length (List.sort_uniq compare all));
  Alcotest.(check bool) "at most 128 per-layer metrics" true (List.length Measure.per_layer_names <= 128);
  let bench = read_json "../../BENCHMARK.json" in
  Alcotest.(check (list string)) "BENCHMARK.json end_to_end" Measure.end_to_end_names (names_of "end_to_end" bench);
  Alcotest.(check (list string)) "BENCHMARK.json per_layer" Measure.per_layer_names (names_of "per_layer" bench);
  Alcotest.(check (list string))
    "BENCHMARK.json workloads"
    (List.map (fun w -> w.Workloads.name) Workloads.all)
    (names_of "workloads" bench)

let test_self_time () =
  let now = ref 0.0 in
  let prof = Prof.create ~clock:(fun () -> !now) () in
  let tick dt = now := !now +. dt in
  let stage name dt = Prof.span prof name (fun () -> tick dt) in
  Prof.span prof "prepare" (fun () ->
      tick 1.0;
      Prof.span prof "footprint" (fun () ->
          tick 2.0;
          stage "analyze" 4.0);
      stage "costmodel" 8.0;
      Prof.span prof "costmodel" (fun () -> stage "costmodel" 16.0));
  Prof.span prof "graph.capture" (fun () ->
      tick 32.0;
      stage "footprint" 64.0);
  let u = Layers.usage prof in
  let self l = (u l).Layers.self in
  (* prepare: 1 + 2 + 4 + 8 + 16 = 31 total, children 2+4 and 8+16 *)
  Alcotest.check close "prepare self = total - children" 1.0 (self "prepare");
  Alcotest.check close "footprint under prepare and capture" (2.0 +. 64.0) (self "prepare.footprint");
  Alcotest.check close "analyze" 4.0 (self "prepare.analyze");
  Alcotest.check close "nested costmodel sums to its total" 24.0 (self "prepare.costmodel");
  Alcotest.(check int) "costmodel entries" 3 (u "prepare.costmodel").Layers.calls;
  Alcotest.check close "capture self excludes its stages" 32.0 (self "graph.capture");
  Alcotest.check close "absent layer" 0.0 (self "sim")

let smoke_config = { Measure.seconds = 0.0; min_passes = 1; min_items = 0 }

(* Returns the result and whether the run left anything in its scratch
   directory. *)
let smoke ?(reference = reference ()) ?(traced = true) w =
  let scratch = "_ledger_test_" ^ w.Workloads.name in
  let suite = List.filter (fun (n, _) -> n = "BICG" || n = "MVT") Suite.all in
  let env =
    Workloads.env ~reference ~suite ~mix:0 ~pairs:[ ("BICG", "MVT") ] ~explained:[ "BICG"; "MVT" ] ~scratch
      Workloads.default_seed
  in
  Fun.protect
    ~finally:(fun () -> Workloads.rm_tree scratch)
    (fun () ->
      let r = Measure.run ~config:smoke_config ~traced ~seed:Workloads.default_seed w env in
      (r, Sys.file_exists scratch && Sys.readdir scratch <> [||]))

let test_smoke w () =
  let r, leftover = smoke w in
  List.iter print_endline r.Measure.failures;
  Alcotest.(check int) "fail_frac = 0" 0 r.Measure.failed;
  Alcotest.(check bool) "attempted" true (r.Measure.attempted > 0);
  let names ms = List.map (fun (m : Measure.metric) -> m.Measure.name) ms in
  Alcotest.(check (list string)) "end-to-end metrics" Measure.end_to_end_names (names r.Measure.end_to_end);
  Alcotest.(check (list string)) "per-layer metrics" Measure.per_layer_names (names r.Measure.per_layer);
  Alcotest.(check bool) "folded stacks" true (String.length r.Measure.folded > 0);
  Alcotest.(check bool) "store directories removed" false leftover

let test_corrupt_reference () =
  let r = reference () in
  let corrupt =
    {
      r with
      Reference.entries =
        List.map
          (fun (e : Reference.entry) ->
            if e.Reference.app = "BICG" && e.Reference.mode = "baseline" then
              { e with Reference.total_us = Float.succ e.Reference.total_us }
            else e)
          r.Reference.entries;
    }
  in
  List.iter
    (fun w ->
      let res, _ = smoke ~reference:corrupt ~traced:false w in
      Alcotest.(check bool) (w.Workloads.name ^ ": fail_frac > 0") true (res.Measure.failed > 0))
    [ Workloads.prepare_cold; Workloads.simulate_sweep ]

let test_reference_matches_bench0 () =
  let r = reference () in
  Alcotest.(check int) "seed" Workloads.default_seed r.Reference.seed;
  Alcotest.(check int) "16 apps x 8 modes" (16 * List.length Workloads.sweep_modes) (List.length r.Reference.entries);
  let mismatches =
    Reference.bench0_mismatches ~clock_ghz:Bm_gpu.Config.titan_x_pascal.Bm_gpu.Config.clock_ghz r
      (read_json "../../BENCH_0.json")
  in
  Alcotest.(check (list string)) "BENCH_0.json cycles within 1e-9" [] mismatches

let test_compare () =
  let bound = { Compare.metric = "pass_s"; better_lower = true; bound = 0.10 } in
  let verdict a b = Compare.verdict_name (Compare.judge bound ~workload:"w" a b).Compare.r_verdict in
  let steady m = [ m; m *. 1.01; m *. 0.99; m *. 1.005; m *. 0.995 ] in
  Alcotest.(check string) "same" "agree" (verdict (steady 1.0) (steady 1.05));
  Alcotest.(check string) "slower" "worse" (verdict (steady 1.0) (steady 1.2));
  Alcotest.(check string) "noisy" "unresolved" (verdict [ 1.0; 2.0; 1.0; 2.0 ] [ 1.5; 3.0; 1.5; 3.0 ]);
  Alcotest.(check string) "noisy but every run faster" "agree" (verdict [ 2.0; 4.0; 2.0; 4.0 ] [ 1.0; 1.5; 1.0; 1.5 ]);
  let higher = { bound with Compare.better_lower = false } in
  Alcotest.(check string) "higher is better" "worse"
    (Compare.verdict_name (Compare.judge higher ~workload:"w" (steady 1.0) (steady 0.8)).Compare.r_verdict)

let () =
  Alcotest.run "ledger"
    [
      ( "ledger",
        [
          Alcotest.test_case "median, quartiles, reportable percentile" `Quick test_order_statistics;
          Alcotest.test_case "host factor" `Quick test_host_factor;
          Alcotest.test_case "metric names" `Quick test_metric_names;
          Alcotest.test_case "self time = total - children" `Quick test_self_time;
          Alcotest.test_case "compare verdicts" `Quick test_compare;
          Alcotest.test_case "reference matches BENCH_0" `Quick test_reference_matches_bench0;
          Alcotest.test_case "corrupted reference fails" `Quick test_corrupt_reference;
        ]
        @ List.map
            (fun w -> Alcotest.test_case ("smoke " ^ w.Workloads.name) `Quick (test_smoke w))
            Workloads.all );
    ]
