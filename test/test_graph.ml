(* Capture/replay differential suite.

   The gate for the ahead-of-time graph backend: (1) Replay.run must agree
   cycle-exactly with Sim.run over the full benchmark suite and every
   scheduling mode, and byte-identically in trace output; (2) graphs must
   survive JSON and disk round trips bit-for-bit (qcheck over random
   Genapp specs); (3) stale graphs (different app or machine) and corrupt
   files (truncated, garbled, wrong schema) must fail with distinct,
   non-raising errors — and with the right exit codes from bmctl; (4) a
   warm replay must perform zero preparation work, asserted on the
   prep-cache and graph.replay.* counters. *)

module Rng = Bm_engine.Rng
module Config = Bm_gpu.Config
module Stats = Bm_gpu.Stats
module Mode = Bm_maestro.Mode
module Cache = Bm_maestro.Cache
module Prep = Bm_maestro.Prep
module Sim = Bm_maestro.Sim
module Graph = Bm_maestro.Graph
module Replay = Bm_maestro.Replay
module Multi = Bm_maestro.Multi
module Runner = Bm_maestro.Runner
module Suite = Bm_workloads.Suite
module Genapp = Bm_workloads.Genapp
module Diff = Bm_oracle.Diff
module Fuzz = Bm_oracle.Fuzz
module Trace = Bm_report.Trace
module Metrics = Bm_metrics.Metrics
module Json = Bm_metrics.Json

let cfg = Config.titan_x_pascal

let with_temp_file f =
  let path = Filename.temp_file "bm_graph" ".json" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let random_app seed =
  let rng = Rng.create seed in
  Genapp.build (Genapp.generate rng seed)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* --- replay vs sim: cycle-exact over the whole suite x all modes ------ *)

let test_suite_cycle_exact () =
  List.iter
    (fun (name, mk) ->
      let app = mk () in
      let cache = Cache.create () in
      let graph = Graph.capture ~cache cfg app in
      List.iter
        (fun (mname, mode) ->
          let sim = Sim.run cfg mode (Runner.prepare ~cfg ~cache mode app) in
          let rep = Replay.run cfg mode graph in
          match Diff.diff_stats rep sim with
          | [] -> ()
          | line :: _ -> Alcotest.failf "%s/%s: replay diverges from sim: %s" name mname line)
        Mode.known)
    Suite.all

(* Trace output must match byte-for-byte, not just the Stats summary: the
   event streams expose scheduling order, which the totals can mask. *)
let trace_csv run =
  let tr = Trace.create () in
  ignore (run (Trace.sink tr) : Stats.t);
  Trace.to_csv tr

let test_trace_byte_identity () =
  List.iter
    (fun (mname, mode) ->
      let app = Suite.by_name "BICG" () in
      let graph = Graph.capture cfg app in
      let sim = trace_csv (fun sink -> Sim.run ~trace:sink cfg mode (Runner.prepare ~cfg mode app)) in
      let rep = trace_csv (fun sink -> Replay.run ~trace:sink cfg mode graph) in
      Alcotest.(check string) (Printf.sprintf "BICG/%s trace" mname) sim rep)
    Mode.known

(* The backend axis of the oracle: replay differenced against the naive
   reference scheduler on random apps, alongside the simulator. *)
let test_diff_backend_axis () =
  for seed = 0 to 9 do
    let app = random_app seed in
    match Diff.check ~cfg ~backends:[ `Sim; `Replay ] app with
    | Ok () -> ()
    | Error (mm :: _) -> Alcotest.failf "random app %d: %a" seed Diff.pp_mismatch mm
    | Error [] -> assert false
  done

let test_runner_backend () =
  let app = Suite.by_name "MVT" () in
  List.iter
    (fun (mname, mode) ->
      let sim = Runner.simulate ~cfg mode app in
      let rep = Runner.simulate ~cfg ~backend:`Replay mode app in
      match Diff.diff_stats rep sim with
      | [] -> ()
      | line :: _ -> Alcotest.failf "Runner backend mismatch (MVT/%s): %s" mname line)
    Mode.known

(* --- serialization round trips (qcheck over random specs) ------------- *)

let prop_json_roundtrip =
  QCheck2.Test.make ~name:"decode (encode graph) = graph" ~count:30
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let graph = Graph.capture cfg (random_app seed) in
      match Graph.of_json (Graph.to_json graph) with
      | Ok graph' -> Graph.equal graph graph'
      | Error e -> QCheck2.Test.fail_reportf "decode failed: %a" Graph.pp_error e)

let prop_disk_roundtrip_replay_identical =
  QCheck2.Test.make ~name:"disk-reloaded replay is byte-identical" ~count:10
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let app = random_app seed in
      let graph = Graph.capture cfg app in
      with_temp_file (fun path ->
          (match Graph.save path graph with
          | Ok () -> ()
          | Error msg -> QCheck2.Test.fail_reportf "save failed: %s" msg);
          match Graph.load path with
          | Error e -> QCheck2.Test.fail_reportf "load failed: %a" Graph.pp_error e
          | Ok reloaded ->
              Graph.equal graph reloaded
              && List.for_all
                   (fun (_, mode) ->
                     let mem = trace_csv (fun sink -> Replay.run ~trace:sink cfg mode graph) in
                     let disk = trace_csv (fun sink -> Replay.run ~trace:sink cfg mode reloaded) in
                     String.equal mem disk)
                   Mode.known))

(* --- staleness ------------------------------------------------------- *)

let test_validate_fresh () =
  let app = Suite.by_name "BICG" () in
  let graph = Graph.capture cfg app in
  (match Graph.validate cfg app graph with
  | Ok () -> ()
  | Error e -> Alcotest.failf "fresh graph rejected: %a" Graph.pp_error e);
  Alcotest.(check string) "validate does not mutate fingerprint" graph.Graph.g_fingerprint
    (Graph.fingerprint cfg app)

let expect_stale what = function
  | Error (Graph.Stale { expected; got }) ->
      Alcotest.(check bool) (what ^ ": digests differ") true (expected <> got)
  | Error (Graph.Corrupt msg) -> Alcotest.failf "%s: Corrupt instead of Stale: %s" what msg
  | Ok () -> Alcotest.failf "%s: stale graph accepted" what

let test_validate_stale () =
  let bicg = Suite.by_name "BICG" () in
  let graph = Graph.capture cfg bicg in
  (* different app under the same machine *)
  expect_stale "other app" (Graph.validate cfg (Suite.by_name "MVT" ()) graph);
  (* same app, different machine: every config field must participate,
     including the cost-model fields Config.to_assoc omits *)
  expect_stale "more SMs" (Graph.validate { cfg with Config.num_sms = cfg.Config.num_sms + 1 } bicg graph);
  expect_stale "cost model" (Graph.validate { cfg with Config.cpi = cfg.Config.cpi +. 0.25 } bicg graph);
  expect_stale "jitter seed" (Graph.validate { cfg with Config.seed = cfg.Config.seed + 1 } bicg graph)

let test_replay_wrong_config_raises () =
  let app = Suite.by_name "BICG" () in
  let graph = Graph.capture cfg app in
  let wrong = { cfg with Config.num_sms = cfg.Config.num_sms + 1 } in
  match Replay.run wrong Mode.Producer_priority graph with
  | (_ : Stats.t) -> Alcotest.fail "replay accepted a graph from a different machine"
  | exception Invalid_argument _ -> ()

(* --- corruption: decode failures are clean errors, never exceptions --- *)

let expect_corrupt what = function
  | Error (Graph.Corrupt _) -> ()
  | Error (Graph.Stale _) -> Alcotest.failf "%s: Stale instead of Corrupt" what
  | Ok (_ : Graph.t) -> Alcotest.failf "%s: corrupt input decoded" what

let test_load_corrupt () =
  let graph = Graph.capture cfg (Suite.by_name "BICG" ()) in
  expect_corrupt "missing file" (Graph.load "/nonexistent-dir/no-such-graph.json");
  with_temp_file (fun path ->
      (match Graph.save path graph with Ok () -> () | Error e -> Alcotest.fail e);
      let whole = In_channel.with_open_bin path In_channel.input_all in
      (* truncation at several depths: inside the header, inside a node,
         mid-float — none may raise *)
      List.iter
        (fun frac ->
          let cut = max 1 (String.length whole * frac / 100) in
          Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc (String.sub whole 0 cut));
          expect_corrupt (Printf.sprintf "truncated at %d%%" frac) (Graph.load path))
        [ 2; 25; 50; 90; 99 ];
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc "this is not json at all {");
      expect_corrupt "garbled" (Graph.load path))

let test_of_json_wrong_schema () =
  expect_corrupt "empty object" (Graph.of_json (Json.Obj []));
  expect_corrupt "wrong schema tag" (Graph.of_json (Json.Obj [ ("schema", Json.Str "bm-trace") ]));
  expect_corrupt "scalar" (Graph.of_json (Json.Num 42.0));
  let graph = Graph.capture cfg (Suite.by_name "MVT" ()) in
  (match Graph.to_json graph with
  | Json.Obj fields ->
      expect_corrupt "future version"
        (Graph.of_json (Json.Obj (List.map (function "version", _ -> ("version", Json.Num 99.0) | f -> f) fields)))
  | _ -> Alcotest.fail "to_json did not produce an object")

(* --- warm replay performs zero preparation --------------------------- *)

let test_warm_replay_zero_prep () =
  let app = Suite.by_name "FFT" () in
  let cache = Cache.create () in
  let graph = Graph.capture ~cache cfg app in
  let before = Cache.counters cache in
  let metrics = Metrics.create () in
  List.iter (fun (_, mode) -> ignore (Replay.run ~metrics cfg mode graph : Stats.t)) Mode.known;
  let after = Cache.counters cache in
  Alcotest.(check bool) "replay never consults the analysis cache" true (before = after);
  let counter name =
    match Metrics.find_counter metrics name with
    | Some c -> Metrics.counter_value c
    | None -> Alcotest.failf "missing counter %s" name
  in
  Alcotest.(check bool) "replay publishes node count" true (counter "graph.replay.nodes" > 0.0);
  Alcotest.(check bool) "replay publishes command count" true (counter "graph.replay.commands" > 0.0);
  Alcotest.(check bool) "replay publishes event count" true (counter "graph.replay.events" > 0.0);
  Alcotest.(check bool) "no prep-cache counters in a replay registry" true
    (Metrics.find_counter metrics "prep.cache.kernel.hits" = None)

(* One engine, two publishers: over suite x modes the simulator and the
   replay of the same app publish identical values in every metric family,
   in the same registration order, except [graph.replay.*] — which only
   replay publishes. *)
let test_metric_families_separate () =
  let is_replay name = String.starts_with ~prefix:"graph.replay." name in
  List.iter
    (fun (name, mk) ->
      let app = mk () in
      let cache = Cache.create () in
      let graph = Graph.capture ~cache cfg app in
      List.iter
        (fun (mname, mode) ->
          let sim_reg = Metrics.create () and rep_reg = Metrics.create () in
          ignore (Sim.run ~metrics:sim_reg cfg mode (Runner.prepare ~cfg ~cache mode app) : Stats.t);
          ignore (Replay.run ~metrics:rep_reg cfg mode graph : Stats.t);
          let sim = Metrics.snapshot sim_reg and rep = Metrics.snapshot rep_reg in
          let names sn = Array.to_list (Array.map (fun c -> c.Metrics.cs_name) sn.Metrics.sn_counters) in
          Alcotest.(check (list string))
            (Printf.sprintf "%s/%s: replay-only counters" name mname)
            [ "graph.replay.nodes"; "graph.replay.commands"; "graph.replay.events" ]
            (List.filter is_replay (names rep));
          Alcotest.(check (list string))
            (Printf.sprintf "%s/%s: sim publishes no graph.replay.*" name mname)
            [] (List.filter is_replay (names sim));
          let shared =
            {
              rep with
              Metrics.sn_counters =
                Array.of_list
                  (List.filter
                     (fun c -> not (is_replay c.Metrics.cs_name))
                     (Array.to_list rep.Metrics.sn_counters));
            }
          in
          (* [compare], not [=]: empty histograms summarize to NaN. *)
          if compare sim shared <> 0 then
            Alcotest.failf "%s/%s: sim and replay publish different values" name mname)
        Mode.known)
    Suite.all

(* The packed-event bound: a kernel of 2^30 TBs cannot be packed into one
   event int.  It must be rejected with a message naming the caller and
   the bound — before the engine allocates any per-TB state, which for
   such a kernel would be gigabytes. *)
let test_packed_event_bound () =
  let huge = 1 lsl 30 in
  let node =
    {
      Graph.n_seq = 0;
      n_kname = "huge";
      n_prev = -1;
      n_stream = 0;
      n_tbs = huge;
      n_tb_us = [||];
      n_mem_requests = 0.0;
      n_relation = Bm_depgraph.Bipartite.Independent;
      n_copy_deps = [||];
    }
  in
  let sched = { Graph.s_commands = [| Graph.Glaunch { seq = 0 } |]; s_nodes = [| node |] } in
  let graph =
    {
      Graph.g_app = "huge";
      g_cfg_digest = Graph.cfg_digest cfg;
      g_fingerprint = "";
      g_plain = sched;
      g_reordered = sched;
    }
  in
  let prep = Prep.prepare cfg (Suite.by_name "MVT" ()) in
  let huge_prep =
    {
      prep with
      Prep.p_launches =
        Array.mapi
          (fun i li -> if i = 0 then { li with Prep.li_tbs = huge } else li)
          prep.Prep.p_launches;
    }
  in
  let expect_rejected caller run =
    let before = Gc.allocated_bytes () in
    match run () with
    | (_ : Stats.t) -> Alcotest.failf "%s accepted a kernel of 2^30 TBs" caller
    | exception Invalid_argument msg ->
      let allocated = Gc.allocated_bytes () -. before in
      Alcotest.(check bool) (Printf.sprintf "%s named in %S" caller msg) true (contains ~needle:caller msg);
      Alcotest.(check bool) (Printf.sprintf "bound named in %S" msg) true (contains ~needle:"2^30" msg);
      (* One per-TB array of this kernel alone is 8 GiB. *)
      Alcotest.(check bool)
        (Printf.sprintf "%s: rejected before per-TB allocation (%.0f bytes)" caller allocated)
        true (allocated < float_of_int huge)
  in
  List.iter
    (fun mode ->
      expect_rejected "Replay.run" (fun () -> Replay.run cfg mode graph);
      expect_rejected "Sim.run" (fun () -> Sim.run cfg mode huge_prep);
      expect_rejected "Multi.run" (fun () ->
          (Multi.run cfg mode [| prep; huge_prep |]).Multi.mr_stats.(1)))
    [ Mode.Baseline; Mode.Producer_priority; Mode.Deadline_edf 2 ]

let test_capture_counters () =
  let graph = Graph.capture cfg (Suite.by_name "3MM" ()) in
  let metrics = Metrics.create () in
  Graph.export graph metrics;
  let counter name =
    match Metrics.find_counter metrics name with
    | Some c -> int_of_float (Metrics.counter_value c)
    | None -> Alcotest.failf "missing counter %s" name
  in
  let sum = Graph.summarize graph.Graph.g_reordered in
  Alcotest.(check int) "graph.capture.nodes" sum.Graph.sum_nodes (counter "graph.capture.nodes");
  Alcotest.(check int) "graph.capture.edges" sum.Graph.sum_edges (counter "graph.capture.edges");
  Alcotest.(check int) "graph.capture.commands" sum.Graph.sum_commands (counter "graph.capture.commands");
  Alcotest.(check int) "graph.capture.encoded_bytes" sum.Graph.sum_encoded_bytes
    (counter "graph.capture.encoded_bytes");
  Alcotest.(check bool) "suite app has dependency edges" true (sum.Graph.sum_edges > 0)

(* --- fuzz smoke on the replay backend -------------------------------- *)

let test_fuzz_replay_smoke () =
  let report = Fuzz.run ~cfg ~backends:[ `Sim; `Replay ] ~shrink:false ~soundness:false ~seed:42 ~count:8 () in
  Alcotest.(check bool) "fuzz over both backends is clean" true (Fuzz.ok report);
  Alcotest.(check int) "both backends recorded" 2 (List.length report.Fuzz.r_backends)

(* --- bmctl integration: exit codes and help consistency --------------- *)

(* Under [dune runtest] the cwd is the build context's test/ directory;
   under [dune exec test/test_main.exe] it is the workspace root. *)
let bmctl_exe =
  if Sys.file_exists "../bin/bmctl.exe" then "../bin/bmctl.exe" else "_build/default/bin/bmctl.exe"

let bmctl ?stdout args =
  let stdout = Option.value stdout ~default:"/dev/null" in
  Sys.command (Filename.quote_command bmctl_exe ~stdout ~stderr:"/dev/null" args)

let test_bmctl_capture_replay () =
  with_temp_file (fun path ->
      Alcotest.(check int) "capture exits 0" 0 (bmctl [ "capture"; "BICG"; "-o"; path ]);
      Alcotest.(check int) "replay exits 0" 0 (bmctl [ "replay"; "BICG"; "-g"; path ]);
      Alcotest.(check int) "replay --compare exits 0" 0
        (bmctl [ "replay"; "BICG"; "-g"; path; "--compare" ]);
      Alcotest.(check int) "replay of a stale graph exits 5" 5 (bmctl [ "replay"; "MVT"; "-g"; path ]);
      let whole = In_channel.with_open_bin path In_channel.input_all in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc (String.sub whole 0 (String.length whole / 2)));
      Alcotest.(check int) "replay of a truncated graph exits 2" 2 (bmctl [ "replay"; "BICG"; "-g"; path ]);
      Alcotest.(check int) "replay of a missing graph exits 2" 2
        (bmctl [ "replay"; "BICG"; "-g"; "/nonexistent-dir/none.json" ]))

(* Help text vs parser: every subcommand the parser accepts must appear in
   the top-level help, and each subcommand's help must document the flags
   the tests above exercise — this is what caught the header drift that
   omitted [timeline]. *)
let help_of args =
  with_temp_file (fun path ->
      let rc = bmctl ~stdout:path args in
      Alcotest.(check int) (String.concat " " args ^ " exits 0") 0 rc;
      In_channel.with_open_bin path In_channel.input_all)

let test_bmctl_help_consistency () =
  let main_help = help_of [ "--help"; "plain" ] in
  List.iter
    (fun sub ->
      Alcotest.(check bool) (Printf.sprintf "main help lists %s" sub) true (contains ~needle:sub main_help))
    [ "list"; "run"; "speedup"; "analyze"; "stats"; "timeline"; "trace"; "capture"; "replay";
      "corun"; "explain"; "rta"; "fuzz"; "prewarm"; "ptx" ];
  let check_flags sub flags =
    let help = help_of [ sub; "--help"; "plain" ] in
    List.iter
      (fun flag ->
        Alcotest.(check bool) (Printf.sprintf "%s --help documents %s" sub flag) true
          (contains ~needle:flag help))
      flags
  in
  check_flags "stats" [ "--repeat"; "--merged"; "--jobs"; "--cache-dir" ];
  check_flags "run" [ "--backend"; "--deadline"; "--inject-rta-bug"; "--cache-dir" ];
  check_flags "prewarm" [ "--cache-dir"; "--check-hit-rate"; "--jobs" ];
  check_flags "capture" [ "--output" ];
  check_flags "replay" [ "--graph"; "--compare"; "--fresh"; "--counters" ];
  check_flags "fuzz" [ "--replay"; "--seed"; "--count" ];
  check_flags "corun" [ "--policy"; "--partition"; "--folded"; "--metrics"; "--deadlines" ];
  check_flags "explain"
    [ "--json"; "--top"; "--backend"; "--check"; "--no-whatif"; "--trace"; "--metrics";
      "--policy"; "--partition" ];
  check_flags "rta" [ "--mode"; "--json"; "--inject-rta-bug" ];
  (* The documented exit-code table: every distinct failure status must
     appear in each subcommand's EXIT STATUS section (Cmd.Exit.info feeds
     them all through one shared [exits] list). *)
  List.iter
    (fun sub ->
      let help = help_of [ sub; "--help"; "plain" ] in
      List.iter
        (fun code ->
          Alcotest.(check bool)
            (Printf.sprintf "%s --help documents exit %d" sub code)
            true
            (contains ~needle:(string_of_int code) help))
        [ 0; 2; 3; 4; 5; 6; 7; 124 ])
    [ "run"; "rta"; "corun" ]

(* The bench harness front end: its help must list every run flag, and
   flags that cannot be combined, or an unknown section, are usage errors
   (cmdliner's 124), not a silently chosen subset. *)
let bench_exe =
  if Sys.file_exists "../bench/main.exe" then "../bench/main.exe"
  else "_build/default/bench/main.exe"

let bench ?(stdout = "/dev/null") args =
  Sys.command (Filename.quote_command bench_exe ~stdout ~stderr:"/dev/null" args)

let test_bench_front_end () =
  let help =
    with_temp_file (fun path ->
        Alcotest.(check int) "--help exits 0" 0 (bench ~stdout:path [ "--help=plain" ]);
        In_channel.with_open_bin path In_channel.input_all)
  in
  List.iter
    (fun flag ->
      Alcotest.(check bool) (Printf.sprintf "help documents %s" flag) true (contains ~needle:flag help))
    [ "--oracle"; "--corun"; "--explain"; "--deadlines"; "--perf-gate"; "--only"; "--no-bechamel";
      "--backend"; "--json"; "--compare"; "--threshold"; "--jobs"; "--cache-dir" ];
  List.iter
    (fun flag ->
      Alcotest.(check bool) (Printf.sprintf "help no longer lists %s" flag) false
        (contains ~needle:flag help))
    [ "--trace"; "--capture-compare" ];
  Alcotest.(check int) "two gates exit 124" 124 (bench [ "--perf-gate"; "--corun" ]);
  Alcotest.(check int) "unknown section exits 124" 124 (bench [ "--only"; "fig99" ])

let suite =
  [
    Alcotest.test_case "replay: suite x modes cycle-exact" `Slow test_suite_cycle_exact;
    Alcotest.test_case "replay: trace byte-identity" `Quick test_trace_byte_identity;
    Alcotest.test_case "oracle: replay backend axis" `Quick test_diff_backend_axis;
    Alcotest.test_case "runner: backend selection" `Quick test_runner_backend;
    QCheck_alcotest.to_alcotest prop_json_roundtrip;
    QCheck_alcotest.to_alcotest prop_disk_roundtrip_replay_identical;
    Alcotest.test_case "validate: fresh graph accepted" `Quick test_validate_fresh;
    Alcotest.test_case "validate: stale graph rejected" `Quick test_validate_stale;
    Alcotest.test_case "replay: wrong config raises" `Quick test_replay_wrong_config_raises;
    Alcotest.test_case "load: corrupt files" `Quick test_load_corrupt;
    Alcotest.test_case "of_json: wrong schema" `Quick test_of_json_wrong_schema;
    Alcotest.test_case "replay: warm replay does zero prep" `Quick test_warm_replay_zero_prep;
    Alcotest.test_case "capture: exported counters" `Quick test_capture_counters;
    Alcotest.test_case "metrics: sim/replay families separate" `Slow test_metric_families_separate;
    Alcotest.test_case "engine: packed-event bound" `Quick test_packed_event_bound;
    Alcotest.test_case "fuzz: replay backend smoke" `Slow test_fuzz_replay_smoke;
    Alcotest.test_case "bmctl: capture/replay exit codes" `Slow test_bmctl_capture_replay;
    Alcotest.test_case "bmctl: help/parser consistency" `Slow test_bmctl_help_consistency;
    Alcotest.test_case "bench: front-end flags and usage errors" `Quick test_bench_front_end;
  ]
