(* Capture/replay differential suite.

   The gate for the ahead-of-time graph: (1) Replay.run of a capture
   decoded from its JSON must agree cycle-exactly with Sim.run over the
   full benchmark suite and every scheduling mode, and byte-identically in
   trace output — the decoded graph is the only place replay can differ
   from simulation, since both run one engine; (2) graphs must
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

(* The graph a file holds: the capture printed to JSON text and decoded. *)
let decoded graph =
  match Json.of_string (Json.to_string (Graph.to_json graph)) with
  | Error msg -> Alcotest.failf "%s: invalid JSON: %s" graph.Graph.g_app msg
  | Ok j -> (
    match Graph.of_json j with
    | Ok graph' -> graph'
    | Error e -> Alcotest.failf "%s: %a" graph.Graph.g_app Graph.pp_error e)

let test_suite_cycle_exact () =
  List.iter
    (fun (name, mk) ->
      let app = mk () in
      let cache = Cache.create () in
      let graph = decoded (Graph.capture ~cache cfg app) in
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
  let app = Suite.by_name "BICG" () in
  let graph = decoded (Graph.capture cfg app) in
  List.iter
    (fun (mname, mode) ->
      let sim = trace_csv (fun sink -> Sim.run ~trace:sink cfg mode (Runner.prepare ~cfg mode app)) in
      let rep = trace_csv (fun sink -> Replay.run ~trace:sink cfg mode graph) in
      Alcotest.(check string) (Printf.sprintf "BICG/%s trace" mname) sim rep)
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

(* Random apps rarely relate kernels fully; the suite does (AlexNet,
   GAUSSIAN, GRAMSCHM), so this pins decode-time sizes of every relation
   kind to capture-time ones. *)
let test_suite_json_roundtrip () =
  List.iter
    (fun (name, mk) ->
      let graph = Graph.capture cfg (mk ()) in
      Alcotest.(check bool) (name ^ ": decoded graph equals the capture") true
        (Graph.equal graph (decoded graph)))
    Suite.all

let prop_disk_roundtrip_replay_identical =
  QCheck2.Test.make ~name:"disk-reloaded replay is byte-identical" ~count:10
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let app = random_app seed in
      let cache = Cache.create () in
      let graph = Graph.capture ~cache cfg app in
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
                     let sim =
                       trace_csv (fun sink ->
                           Sim.run ~trace:sink cfg mode (Runner.prepare ~cfg ~cache mode app))
                     in
                     let mem = trace_csv (fun sink -> Replay.run ~trace:sink cfg mode graph) in
                     let disk = trace_csv (fun sink -> Replay.run ~trace:sink cfg mode reloaded) in
                     String.equal mem disk && String.equal sim disk)
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
  expect_stale "jitter seed" (Graph.validate { cfg with Config.seed = cfg.Config.seed + 1 } bicg graph);
  (* an edited cfg digest under an intact fingerprint: Replay.run would
     refuse it, so validate must too *)
  expect_stale "cfg digest"
    (Graph.validate cfg bicg
       { graph with Graph.g_cfg_digest = Graph.cfg_digest { cfg with Config.cpi = 2.0 } })

let test_replay_wrong_config_raises () =
  let app = Suite.by_name "BICG" () in
  let graph = Graph.capture cfg app in
  let wrong = { cfg with Config.num_sms = cfg.Config.num_sms + 1 } in
  match Replay.run wrong Mode.Producer_priority graph with
  | (_ : Stats.t) -> Alcotest.fail "replay accepted a graph from a different machine"
  | exception Invalid_argument _ -> ()

(* --- corruption: decode failures are clean errors, never exceptions --- *)

(* [set path v j] replaces the value at [path] in a graph's JSON: object
   keys, or array indices written in decimal. *)
let rec set path v j =
  match (path, j) with
  | [], _ -> v
  | k :: rest, Json.Obj fields ->
    Json.Obj (List.map (fun (k', x) -> (k', if k' = k then set rest v x else x)) fields)
  | i :: rest, Json.Arr xs ->
    Json.Arr (List.mapi (fun n x -> if string_of_int n = i then set rest v x else x) xs)
  | _ :: _, _ -> j

let num n = Json.Num (float_of_int n)
let packed a = Bm_maestro.Jsonc.json_of_packed_ints_rle a

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
  | _ -> Alcotest.fail "to_json did not produce an object");
  (* Version 1 stored plain arrays; its files are refused, not misread. *)
  match Graph.of_json (set [ "version" ] (num 1) (Graph.to_json graph)) with
  | Error (Graph.Corrupt msg) ->
    Alcotest.(check bool) "version 1: unsupported version" true
      (contains ~needle:"unsupported version" msg)
  | Error (Graph.Stale _) | Ok _ -> Alcotest.fail "version 1 graph not refused as Corrupt"

(* Each mutation is a list of [set] edits to a captured BICG graph's
   JSON, and must decode as Corrupt. *)
let apply_edits edits j = List.fold_left (fun j (path, v) -> set path v j) j edits

let expect_mutants_corrupt mutations () =
  let j = Graph.to_json (Graph.capture cfg (Suite.by_name "BICG" ())) in
  (match Graph.of_json j with Ok _ -> () | Error e -> Alcotest.failf "pristine: %a" Graph.pp_error e);
  List.iter (fun (what, edits) -> expect_corrupt what (Graph.of_json (apply_edits edits j))) mutations

(* A relation that disagrees with its nodes must not replay into an
   out-of-bounds access, a stalled kernel or a silently wrong makespan.
   BICG has two 8-TB kernels, node 1 consuming node 0; the plain schedule
   is written first, so relation 0 is node 0's (independent, 0 x 8) and
   relation 1 is node 1's 8 x 8 graph, in both schedules. *)
let relation_mutations =
  let rel i v = [ ([ "relations"; string_of_int i ], v) ] in
  [
    ( "TB graph on a root node",
      rel 0 (Json.Obj [ ("k", Json.Str "n2o"); ("nc", num 8); ("co", packed [||]) ]) );
    ("1 child for 8 TBs", rel 1 (Json.Obj [ ("k", Json.Str "o2o"); ("n", num 1) ]));
    ( "parent 57 of an 8-TB producer",
      rel 1
        (Json.Obj
           [ ("k", Json.Str "o2n"); ("np", num 64); ("po", packed [| 57; 1; 2; 3; 4; 5; 6; 7 |]) ])
    );
    (* Shared entries: relation 0 fits node 0 but not node 1, which has a
       predecessor. *)
    ("shared relation sized for another node", [ ([ "reordered"; "nodes"; "1"; "rel" ], num 0) ]);
    ("relation index past the table", [ ([ "plain"; "nodes"; "1"; "rel" ], num 2) ]);
    ("negative relation index", [ ([ "reordered"; "nodes"; "0"; "rel" ], num (-1)) ]);
  ]

(* Cost inputs: every profile must cover its node's TBs and hold only
   what an analysis can produce, since decode expands it into the
   engine's TB times.  Profile 0 is node 0's (8 TBs). *)
let profile_mutations =
  let floats a = Bm_maestro.Jsonc.json_of_packed_floats_rle a in
  let prof field v = [ ([ "profiles"; "0"; field ], v) ] in
  let count x = prof "i" (floats (Array.init 8 (fun tb -> if tb = 3 then x else 100.0))) in
  [
    ("profile index past the table", [ ([ "plain"; "nodes"; "0"; "prof" ], num 99) ]);
    ("negative profile index", [ ([ "reordered"; "nodes"; "1"; "prof" ], num (-1)) ]);
    ( "profile of 7 TBs for 8",
      prof "i" (floats (Array.make 7 100.0)) @ prof "m" (floats (Array.make 7 1.0)) );
    ("NaN instruction count", count nan);
    ("negative instruction count", count (-1e6));
    ("infinite instruction count", count infinity);
    ("NaN memory count", prof "m" (floats (Array.make 8 nan)));
    ("zero warps", prof "w" (num 0));
    ("warp waves below 1", prof "ww" (Bm_maestro.Jsonc.json_of_float 0.5));
    ("infinite warp waves", prof "ww" (Bm_maestro.Jsonc.json_of_float infinity));
  ]

(* A schedule the engine cannot run to completion must not stall the host
   or hang the replay.  BICG's plain commands are six mallocs, four H2Ds
   (6-9), launches of nodes 0 and 1 (10, 11) and two D2Hs; its reordered
   schedule issues the D2H gated on node 0 (11) before launching node 1
   (12).  Node 0 copies from 6 and 8, node 1 from 7 and 9. *)
let schedule_mutations =
  [
    ( "launches swapped",
      [ ([ "plain"; "commands"; "10"; "s" ], num 1); ([ "plain"; "commands"; "11"; "s" ], num 0) ] );
    ("node 0 launched twice", [ ([ "plain"; "commands"; "11"; "s" ], num 0) ]);
    ("d2h waits on a later launch", [ ([ "reordered"; "commands"; "11"; "w" ], num 1) ]);
    ("prev skips the stream's latest node", [ ([ "plain"; "nodes"; "1"; "prev" ], num (-1)) ]);
    ("copy dep on a malloc", [ ([ "plain"; "nodes"; "0"; "deps" ], packed [| 0; 8 |]) ]);
    ( "copy dep on an H2D after the launch",
      [
        ([ "plain"; "commands"; "12" ], Json.Obj [ ("t", Json.Str "h2d"); ("b", num 8192) ]);
        ([ "plain"; "nodes"; "0"; "deps" ], packed [| 6; 12 |]);
      ] );
  ]

(* Format 2 persisted per-TB costs and one relation per node; its files
   are refused by version, not misread. *)
let test_version_2_refused () =
  let graph = Graph.capture cfg (Suite.by_name "BICG" ()) in
  match Graph.of_json (set [ "version" ] (num 2) (Graph.to_json graph)) with
  | Error (Graph.Corrupt msg) ->
    Alcotest.(check string) "message" "unsupported version 2 (expected 3)" msg
  | Error (Graph.Stale _) | Ok _ -> Alcotest.fail "version 2 graph not refused as Corrupt"

(* A 27-byte run of ten million floats in a profile of 8 TBs: decode must
   refuse the run from the nodes' TB counts before it allocates, not
   expand it and compare lengths afterwards. *)
let test_oversized_payload () =
  let j = Graph.to_json (Graph.capture cfg (Suite.by_name "BICG" ())) in
  let j = set [ "profiles"; "0"; "i" ] (Json.Str "10000000*4059000000000000") j in
  let before = Gc.allocated_bytes () in
  expect_corrupt "ten-million-element run" (Graph.of_json j);
  let grown = Gc.allocated_bytes () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "allocated %.1f MB, under 16 MB" (grown /. 1e6))
    true (grown < 16e6)

(* The header's params are what decode expanded the cost columns under.
   An edit to them alone leaves the fingerprint and cfg digest intact, so
   validate and Replay.run must compare the params themselves. *)
let test_edited_params () =
  let app = Suite.by_name "BICG" () in
  let j = Graph.to_json (Graph.capture cfg app) in
  List.iter
    (fun (what, field, v) ->
      match Graph.of_json (set [ "params"; field ] v j) with
      | Error e -> Alcotest.failf "%s: edited params must still decode: %a" what Graph.pp_error e
      | Ok g -> (
        expect_stale what (Graph.validate cfg app g);
        match Replay.run cfg Mode.Producer_priority g with
        | (_ : Stats.t) -> Alcotest.failf "%s: replayed under other cost params" what
        | exception Invalid_argument _ -> ()))
    [
      ("seed", "seed", Json.Str (string_of_int (cfg.Config.seed + 1)));
      ("jitter", "jf", Bm_maestro.Jsonc.json_of_float (cfg.Config.jitter_frac *. 2.0));
      ("cpi", "cpi", Bm_maestro.Jsonc.json_of_float (cfg.Config.cpi +. 0.25));
      ("clock", "clk", Bm_maestro.Jsonc.json_of_float (-0.0));
    ]

(* Each distinct profile and relation is written once, whether or not a
   cache shared them at capture, and decode expands each (profile, seq)
   once: nodes of both schedules that launch one profile at one seq hold
   one column. *)
let test_tables_distinct () =
  List.iter
    (fun (name, mk) ->
      let app = mk () in
      let cached = Graph.capture ~cache:(Cache.create ()) cfg app in
      let text = Json.to_string (Graph.to_json cached) in
      Alcotest.(check string) (name ^ ": cache-free capture writes the same file") text
        (Json.to_string (Graph.to_json (Graph.capture cfg app)));
      let j = Graph.to_json cached in
      List.iter
        (fun table ->
          match Json.member table j with
          | Some (Json.Arr rows) ->
            let texts = List.map Json.to_string rows in
            Alcotest.(check int)
              (Printf.sprintf "%s: %s distinct" name table)
              (List.length texts)
              (List.length (List.sort_uniq compare texts))
          | Some _ | None -> Alcotest.failf "%s: no %s table" name table)
        [ "profiles"; "relations" ];
      let g = decoded cached in
      Array.iteri
        (fun i (n : Graph.node) ->
          let r = g.Graph.g_reordered.Graph.s_nodes.(i) in
          if Bm_gpu.Costmodel.same_profile n.Graph.n_profile r.Graph.n_profile then
            Alcotest.(check bool)
              (Printf.sprintf "%s: node %d column shared by both schedules" name i)
              true
              (n.Graph.n_tb_us == r.Graph.n_tb_us))
        g.Graph.g_plain.Graph.s_nodes)
    Suite.all

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
      n_profile =
        Bm_gpu.Costmodel.profile_of_repr
          { Bm_gpu.Costmodel.prr_insts = [||]; prr_mem = [||]; prr_warps = 1; prr_warp_waves = 1.0 };
      n_tb_us = [||];
      n_mem_requests = 0.0;
      n_relation = Bm_depgraph.Bipartite.Independent;
      n_sizes = Bm_depgraph.Encode.measure Bm_depgraph.Bipartite.Independent;
      n_copy_deps = [||];
    }
  in
  let sched = { Graph.s_commands = [| Graph.Glaunch { seq = 0 } |]; s_nodes = [| node |] } in
  let graph =
    {
      Graph.g_app = "huge";
      g_cfg_digest = Graph.cfg_digest cfg;
      g_fingerprint = "";
      g_params = Bm_gpu.Costmodel.params cfg;
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

(* The summary [bmctl capture] prints, against counts taken from the app
   and the schedule's own nodes. *)
let test_capture_summary () =
  let app = Suite.by_name "3MM" () in
  let graph = Graph.capture cfg app in
  let sched = graph.Graph.g_reordered in
  let sum = Graph.summarize sched in
  Alcotest.(check int) "one node per launch"
    (List.length (Bm_gpu.Command.launches app))
    sum.Graph.sum_nodes;
  Alcotest.(check int) "every command" (Array.length sched.Graph.s_commands) sum.Graph.sum_commands;
  Alcotest.(check int) "encoded bytes over the nodes"
    (Array.fold_left
       (fun acc n -> acc + n.Graph.n_sizes.Bm_depgraph.Encode.encoded_bytes)
       0 sched.Graph.s_nodes)
    sum.Graph.sum_encoded_bytes;
  Alcotest.(check bool) "suite app has dependency edges" true (sum.Graph.sum_edges > 0)

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
      let write_edited edits =
        match Json.of_string whole with
        | Ok j ->
          Out_channel.with_open_bin path (fun oc ->
              Out_channel.output_string oc (Json.to_string (apply_edits edits j)))
        | Error e -> Alcotest.fail e
      in
      write_edited (List.assoc "1 child for 8 TBs" relation_mutations);
      Alcotest.(check int) "replay of a graph with a mis-sized relation exits 2" 2
        (bmctl [ "replay"; "BICG"; "-g"; path; "-m"; "producer" ]);
      write_edited (List.assoc "launches swapped" schedule_mutations);
      Alcotest.(check int) "baseline replay of swapped launches exits 2" 2
        (bmctl [ "replay"; "BICG"; "-m"; "baseline"; "-g"; path ]);
      write_edited (List.assoc "node 0 launched twice" schedule_mutations);
      Alcotest.(check int) "replay of a doubly launched node exits 2" 2
        (bmctl [ "replay"; "BICG"; "-g"; path ]);
      write_edited [ ([ "cfg" ], Json.Str (Graph.cfg_digest { cfg with Config.cpi = 2.0 })) ];
      Alcotest.(check int) "replay of an edited cfg digest exits 5" 5
        (bmctl [ "replay"; "BICG"; "-g"; path ]);
      write_edited [ ([ "params"; "seed" ], Json.Str (string_of_int (cfg.Config.seed + 1))) ];
      Alcotest.(check int) "replay of edited cost params exits 5" 5
        (bmctl [ "replay"; "BICG"; "-g"; path ]);
      write_edited [ ([ "version" ], num 2) ];
      Alcotest.(check int) "replay of a format 2 graph exits 2" 2
        (bmctl [ "replay"; "BICG"; "-g"; path ]);
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
      "corun"; "explain"; "rta"; "fuzz"; "ptx" ];
  Alcotest.(check bool) "main help no longer lists prewarm" false
    (contains ~needle:"prewarm" main_help);
  let check_flags sub flags =
    let help = help_of [ sub; "--help"; "plain" ] in
    List.iter
      (fun flag ->
        Alcotest.(check bool) (Printf.sprintf "%s --help documents %s" sub flag) true
          (contains ~needle:flag help))
      flags
  in
  check_flags "stats" [ "--repeat"; "--merged"; "--jobs" ];
  check_flags "run" [ "--deadline"; "--inject-rta-bug" ];
  check_flags "capture" [ "--output" ];
  check_flags "replay" [ "--graph"; "--compare"; "--fresh"; "--counters" ];
  check_flags "fuzz" [ "--seed"; "--count" ];
  check_flags "corun" [ "--policy"; "--partition"; "--folded"; "--metrics"; "--deadlines" ];
  check_flags "explain"
    [ "--json"; "--top"; "--check"; "--no-whatif"; "--trace"; "--metrics"; "--policy";
      "--partition" ];
  (* The in-memory replay selector is gone: replay means a decoded graph.
     No subcommand attaches the disk store, so --cache-dir is a usage
     error and BM_CACHE_DIR is not read, even when it is unusable.  The
     trace checker always runs and stats JSON always carries the gauge
     series, so --no-check and --no-series are usage errors too. *)
  List.iter
    (fun (sub, flag) ->
      Alcotest.(check bool) (Printf.sprintf "%s --help no longer lists %s" sub flag) false
        (contains ~needle:flag (help_of [ sub; "--help"; "plain" ])))
    ([ ("run", "--backend"); ("explain", "--backend"); ("fuzz", "--replay");
       ("trace", "--no-check"); ("stats", "--no-series") ]
    @ List.map
        (fun sub -> (sub, "--cache-dir"))
        [ "run"; "stats"; "capture"; "corun"; "explain"; "rta"; "fuzz" ]);
  Alcotest.(check int) "run --cache-dir exits 124" 124
    (bmctl [ "run"; "BICG"; "--cache-dir"; "d" ]);
  Alcotest.(check int) "trace --no-check exits 124" 124 (bmctl [ "trace"; "BICG"; "--no-check" ]);
  Alcotest.(check int) "stats --no-series exits 124" 124
    (bmctl [ "stats"; "BICG"; "--json"; "--no-series" ]);
  with_temp_file (fun file ->
      let unusable = "BM_CACHE_DIR=" ^ Filename.concat file "sub" in
      Alcotest.(check int) "run with an unusable BM_CACHE_DIR exits 0" 0
        (Sys.command
           (Filename.quote_command "env" ~stdout:"/dev/null" ~stderr:"/dev/null"
              [ unusable; bmctl_exe; "run"; "BICG" ])));
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
    [ "--oracle"; "--corun"; "--explain"; "--deadlines"; "--perf-gate"; "--only"; "--json";
      "--compare"; "--threshold"; "--jobs" ];
  List.iter
    (fun flag ->
      Alcotest.(check bool) (Printf.sprintf "help no longer lists %s" flag) false
        (contains ~needle:flag help))
    [ "--trace"; "--capture-compare"; "--no-bechamel"; "--backend"; "--cache-dir" ];
  Alcotest.(check int) "two gates exit 124" 124 (bench [ "--perf-gate"; "--corun" ]);
  (* The file is opened before the suite runs, so this returns at once. *)
  with_temp_file (fun file ->
      Alcotest.(check int) "unwritable --json exits 2" 2
        (bench [ "--json"; Filename.concat file "x.json" ]));
  Alcotest.(check int) "unknown section exits 124" 124 (bench [ "--only"; "fig99" ])

(* --- byte fuzz of the graph loader ------------------------------------ *)

(* 1-3 byte edits (replace, insert, delete) of a captured graph's JSON,
   see Bytefuzz.  [Graph.of_json] must never raise, and a mutant that also
   passes [validate] must replay without raising in a serial and a
   fine-grain mode. *)
let fuzz_corpus =
  lazy
    (Array.of_list
       (List.map
          (fun name ->
            let app = Suite.by_name name () in
            (app, Json.to_string (Graph.to_json (Graph.capture cfg app))))
          [ "BICG"; "MVT"; "LUD"; "3MM" ]))

let prop_graph_byte_fuzz =
  QCheck2.Test.make ~name:"load: byte-mutated graphs never raise" ~count:2000 ~long_factor:10
    ~print:(Bytefuzz.print ~what:"graph")
    (Bytefuzz.gen ~corpus:4 ~alphabet:"0123456789abcdef-,*:{}[]\"")
    (fun (k, edits) ->
      let app, text = (Lazy.force fuzz_corpus).(k) in
      let fail stage e = QCheck2.Test.fail_reportf "%s raised %s" stage (Printexc.to_string e) in
      match Json.of_string (Bytefuzz.mutate text edits) with
      | exception e -> fail "Json.of_string" e
      | Error _ -> true
      | Ok j -> (
        match Graph.of_json j with
        | exception e -> fail "Graph.of_json" e
        | Error _ -> true
        | Ok g -> (
          match Graph.validate cfg app g with
          | Error _ -> true
          | Ok () ->
            List.for_all
              (fun mode ->
                match Replay.run cfg mode g with
                | (_ : Stats.t) -> true
                | exception e -> fail ("Replay.run " ^ Mode.name mode) e)
              [ Mode.Baseline; Mode.Producer_priority ])))

let suite =
  [
    Alcotest.test_case "replay: suite x modes cycle-exact" `Slow test_suite_cycle_exact;
    Alcotest.test_case "replay: trace byte-identity" `Quick test_trace_byte_identity;
    QCheck_alcotest.to_alcotest prop_json_roundtrip;
    Alcotest.test_case "round trip: suite graphs decode equal" `Quick test_suite_json_roundtrip;
    QCheck_alcotest.to_alcotest prop_disk_roundtrip_replay_identical;
    Alcotest.test_case "validate: fresh graph accepted" `Quick test_validate_fresh;
    Alcotest.test_case "validate: stale graph rejected" `Quick test_validate_stale;
    Alcotest.test_case "replay: wrong config raises" `Quick test_replay_wrong_config_raises;
    Alcotest.test_case "load: corrupt files" `Quick test_load_corrupt;
    Alcotest.test_case "of_json: wrong schema" `Quick test_of_json_wrong_schema;
    Alcotest.test_case "of_json: relation disagrees with its nodes" `Quick
      (expect_mutants_corrupt relation_mutations);
    Alcotest.test_case "of_json: schedule the engine cannot run" `Quick
      (expect_mutants_corrupt schedule_mutations);
    Alcotest.test_case "of_json: profile table and cost inputs" `Quick
      (expect_mutants_corrupt profile_mutations);
    Alcotest.test_case "of_json: format 2 refused" `Quick test_version_2_refused;
    Alcotest.test_case "of_json: oversized packed run refused" `Quick test_oversized_payload;
    Alcotest.test_case "validate: edited cost params are stale" `Quick test_edited_params;
    Alcotest.test_case "to_json: each profile and relation stored once" `Quick test_tables_distinct;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 18 |]) prop_graph_byte_fuzz;
    Alcotest.test_case "replay: warm replay does zero prep" `Quick test_warm_replay_zero_prep;
    Alcotest.test_case "capture: schedule summary" `Quick test_capture_summary;
    Alcotest.test_case "metrics: sim/replay families separate" `Slow test_metric_families_separate;
    Alcotest.test_case "engine: packed-event bound" `Quick test_packed_event_bound;
    Alcotest.test_case "bmctl: capture/replay exit codes" `Slow test_bmctl_capture_replay;
    Alcotest.test_case "bmctl: help/parser consistency" `Slow test_bmctl_help_consistency;
    Alcotest.test_case "bench: front-end flags and usage errors" `Quick test_bench_front_end;
  ]
