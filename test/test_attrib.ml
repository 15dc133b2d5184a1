(* The explain layer as a correctness obligation.

   The attribution's conservation theorem is an exact integer identity
   (every resource row sums to makespan x weight in ticks), and the
   critical path must cover [0, makespan] contiguously — both are checked
   here over the entire suite x mode matrix, not sampled.  The
   busy-tick total is additionally cross-checked against Stats.records,
   a fully independent data path through the simulator.  A synthetic
   hand-built trace pins the one bucket the suite never exercises
   (slot starvation), and the JSON codec round-trip is required to be
   byte-stable. *)

module Rng = Bm_engine.Rng
module Config = Bm_gpu.Config
module Stats = Bm_gpu.Stats
module Mode = Bm_maestro.Mode
module Runner = Bm_maestro.Runner
module Multi = Bm_maestro.Multi
module Explain = Bm_maestro.Explain
module Suite = Bm_workloads.Suite
module Genapp = Bm_workloads.Genapp
module Trace = Bm_report.Trace
module Attrib = Bm_report.Attrib
module Critpath = Bm_report.Critpath
module Metrics = Bm_metrics.Metrics
module Json = Bm_metrics.Json

let cfg = Config.titan_x_pascal

let check_ok ctx = function
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: %s" ctx e

(* --- conservation + coverage over the full matrix --------------------- *)

let test_conservation_matrix () =
  List.iter
    (fun (name, gen) ->
      List.iter
        (fun (mname, mode) ->
          let ctx = Printf.sprintf "%s/%s" name mname in
          let solo, stats, _ = Explain.run_traced ~cfg ~whatif:false mode ~name (gen ()) in
          check_ok ctx (Explain.check solo);
          check_ok ctx (Explain.check_records solo stats))
        Mode.known)
    Suite.all

(* Generated apps drive schedules the curated suite does not (random
   stream shapes, copies, syncs) through the same identities. *)
let test_conservation_random () =
  let rng = Rng.create 0xa77 in
  for idx = 0 to 11 do
    let app = Genapp.build (Genapp.generate rng idx) in
    List.iter
      (fun mode ->
        let solo, stats, _ =
          Explain.run_traced ~cfg ~whatif:false mode ~name:(Printf.sprintf "gen%d" idx) app
        in
        let ctx = Printf.sprintf "gen%d/%s" idx (Mode.name mode) in
        check_ok ctx (Explain.check solo);
        check_ok ctx (Explain.check_records solo stats))
      Mode.all_fig9
  done

(* --- what-if exactness ------------------------------------------------- *)

(* Ideal is by definition Baseline with free launches, so the "launch"
   knob on Baseline must land on Ideal's makespan exactly — float
   equality, same op sequence. *)
let test_whatif_launch_is_ideal () =
  List.iter
    (fun name ->
      let gen = List.assoc name Suite.all in
      let solo = Explain.run ~cfg Mode.Baseline ~name (gen ()) in
      let ideal = Runner.simulate ~cfg Mode.Ideal (gen ()) in
      let w = List.find (fun w -> w.Explain.wi_knob = "launch") solo.Explain.x_whatif in
      Alcotest.(check (float 0.0))
        (name ^ ": zeroed-launch baseline equals ideal")
        ideal.Stats.total_us w.Explain.wi_total_us;
      (* And every knob is a genuine bound: zeroing a cost never slows
         the app down. *)
      List.iter
        (fun w ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s total <= original" name w.Explain.wi_knob)
            true
            (w.Explain.wi_total_us <= solo.Explain.x_total_us +. 1e-9))
        solo.Explain.x_whatif)
    [ "GAUSSIAN"; "BICG"; "FFT" ]

(* --- co-running -------------------------------------------------------- *)

let test_corun_shared_sums () =
  let apps = [| ("GAUSSIAN", Suite.gaussian ()); ("MVT", Suite.mvt ()) |] in
  let solos, res = Explain.corun ~cfg Mode.Producer_priority apps in
  check_ok "shared corun" (Explain.check_corun solos res)

(* Partition isolation: each tenant's trace is byte-identical to its solo
   run on its slice, so the whole explain report must match cell for
   cell. *)
let test_corun_partition_isolation () =
  let apps = [| ("FFT", Suite.fft ()); ("MVT", Suite.mvt ()) |] in
  let spatial = Multi.Partitioned [| 14; 14 |] in
  let solos, res = Explain.corun ~cfg ~spatial Mode.Producer_priority apps in
  check_ok "partitioned corun" (Explain.check_corun solos res);
  Array.iteri
    (fun i (name, app) ->
      let slice_cfg = Config.with_sms cfg 14 in
      let solo = Explain.run ~cfg:slice_cfg ~whatif:false Mode.Producer_priority ~name app in
      Alcotest.(check bool)
        (name ^ ": partitioned attribution equals solo-on-slice")
        true
        (solos.(i).Explain.x_attrib.Attrib.at_cells = solo.Explain.x_attrib.Attrib.at_cells);
      Alcotest.(check int)
        (name ^ ": slot budget is the slice")
        (Config.total_tb_slots slice_cfg)
        res.Multi.mr_slots.(i))
    apps

(* --- synthetic slot starvation ----------------------------------------- *)

(* The simulator dispatches ready TBs eagerly, so the suite never shows
   slot starvation; a hand-built trace pins the bucket's semantics.  One
   kernel, one TB: launched at 1us, dispatched only at 3us with every
   slot free — the [1,3) gap is starvation, by the classification
   priority, not dep-wait or idle. *)
let test_slot_starved_synthetic () =
  let trace = Trace.create () in
  let sink = Trace.sink trace in
  sink 0.0 (Stats.Kernel_enqueue { seq = 0; stream = 0; tbs = 1 });
  sink 1.0 (Stats.Kernel_launched { seq = 0; stream = 0 });
  sink 1.0 (Stats.Dep_satisfied { seq = 0; tb = 0 });
  sink 3.0 (Stats.Tb_dispatch { seq = 0; tb = 0 });
  sink 5.0 (Stats.Tb_finish { seq = 0; tb = 0 });
  sink 5.0 (Stats.Kernel_drained { seq = 0; stream = 0 });
  sink 5.0 (Stats.Kernel_completed { seq = 0; stream = 0 });
  let machine = { Attrib.ma_slots = 4; ma_window = 1; ma_fine = true } in
  let a = Attrib.of_trace machine trace in
  check_ok "synthetic" (Attrib.conservation a);
  let us_ticks u = Attrib.ticks_of_us u in
  (* [1,3): all 4 slots starved; [3,5): 1 executing, 3 starved?  No — once
     the TB runs there is no ready-undispatched TB left, so the free 3
     are idle-classified by the remaining rules (nothing else in
     flight). *)
  Alcotest.(check int) "starved slot-ticks" (4 * us_ticks 2.0)
    (Attrib.cell a Attrib.Slots Attrib.Slot_starved);
  Alcotest.(check int) "exec slot-ticks" (us_ticks 2.0) (Attrib.cell a Attrib.Slots Attrib.Exec);
  (* The critical path must route through the starved wait and still
     cover the makespan. *)
  let cp = Critpath.of_trace machine trace in
  Alcotest.(check int) "critpath covers synthetic makespan" cp.Critpath.cp_makespan_ticks
    (Critpath.length_ticks cp)

(* --- JSON round trip --------------------------------------------------- *)

let test_json_roundtrip () =
  List.iter
    (fun (name, mode) ->
      let gen = List.assoc name Suite.all in
      let solo = Explain.run ~cfg ~series:true mode ~name (gen ()) in
      let s1 = Json.to_string (Explain.to_json solo) in
      match Json.of_string s1 with
      | Error e -> Alcotest.failf "%s: emitted JSON does not parse: %s" name e
      | Ok j -> (
        match Explain.of_json j with
        | Error e -> Alcotest.failf "%s: decode failed: %s" name e
        | Ok solo2 ->
          let s2 = Json.to_string (Explain.to_json solo2) in
          Alcotest.(check string) (name ^ ": encode/decode/encode is byte-stable") s1 s2;
          Alcotest.(check bool) (name ^ ": decoded cells identical") true
            (solo2.Explain.x_attrib.Attrib.at_cells = solo.Explain.x_attrib.Attrib.at_cells);
          Alcotest.(check bool) (name ^ ": decoded critpath identical") true
            (solo2.Explain.x_critpath = solo.Explain.x_critpath);
          Alcotest.(check string) (name ^ ": mode survives") (Mode.name solo.Explain.x_mode)
            (Mode.name solo2.Explain.x_mode)))
    [ ("BICG", Mode.Producer_priority); ("FFT", Mode.Baseline); ("HS", Mode.Consumer_priority 3) ]

let test_of_json_rejects_garbage () =
  List.iter
    (fun s ->
      match Json.of_string s with
      | Error _ -> ()
      | Ok j -> (
        match Explain.of_json j with
        | Error _ -> ()
        | Ok _ -> Alcotest.failf "accepted malformed explain JSON: %s" s))
    [
      "{}";
      {|{"app":"X","mode":"nope"}|};
      {|{"app":"X","mode":"producer"}|};
      {|[1,2,3]|};
    ]

(* --- exports ----------------------------------------------------------- *)

let test_export_and_series () =
  let solo = Explain.run ~cfg ~series:true Mode.Producer_priority ~name:"BICG" (Suite.bicg ()) in
  let m = Metrics.create () in
  Explain.export m solo;
  let snap = Metrics.snapshot m in
  let counters =
    Array.to_list snap.Metrics.sn_counters
    |> List.map (fun c -> (c.Metrics.cs_name, c.Metrics.cs_value))
  in
  (* The exported per-bucket slot times must re-state the conservation
     identity in microseconds (within float tolerance of the tick sums). *)
  let slot_total =
    List.fold_left
      (fun acc b ->
        acc +. List.assoc (Printf.sprintf "attrib.slots.%s_us" (Attrib.bucket_name b)) counters)
      0.0 Attrib.buckets
  in
  let expect = float_of_int solo.Explain.x_attrib.Attrib.at_machine.Attrib.ma_slots
               *. Attrib.makespan_us solo.Explain.x_attrib in
  Alcotest.(check bool) "exported bucket sum ~ slots x makespan" true
    (Float.abs (slot_total -. expect) /. expect < 1e-9);
  Alcotest.(check bool) "critpath length counter present" true
    (List.mem_assoc "critpath.length_us" counters);
  (* The counter series covers the whole makespan and every sample's
     bucket counts sum to the pool size. *)
  let series = solo.Explain.x_attrib.Attrib.at_series in
  Alcotest.(check bool) "series non-empty under ~series:true" true (Array.length series > 0);
  Array.iter
    (fun (_, counts) ->
      Alcotest.(check int) "series sample sums to pool"
        solo.Explain.x_attrib.Attrib.at_machine.Attrib.ma_slots
        (Array.fold_left ( + ) 0 counts))
    series;
  let tracks = Explain.counter_series solo in
  Alcotest.(check int) "one chrome counter track" 1 (List.length tracks)

(* --- bmctl integration ------------------------------------------------- *)

let bmctl_exe =
  if Sys.file_exists "../bin/bmctl.exe" then "../bin/bmctl.exe" else "_build/default/bin/bmctl.exe"

let bmctl ?stdout args =
  let stdout = Option.value stdout ~default:"/dev/null" in
  Sys.command (Filename.quote_command bmctl_exe ~stdout ~stderr:"/dev/null" args)

let test_bmctl_explain () =
  Alcotest.(check int) "explain exits 0" 0
    (bmctl [ "explain"; "BICG"; "--no-whatif"; "--check" ]);
  Alcotest.(check int) "explain --json exits 0" 0
    (bmctl [ "explain"; "BICG"; "--json"; "--no-whatif" ]);
  Alcotest.(check int) "explain corun exits 0" 0
    (bmctl [ "explain"; "FFT"; "MVT"; "--no-whatif"; "--check" ]);
  Alcotest.(check int) "--trace with corun is a usage error" 124
    (bmctl [ "explain"; "FFT"; "MVT"; "--trace"; "/dev/null" ]);
  (* The emitted JSON must parse under the strict RFC 8259 reader. *)
  let tmp = Filename.temp_file "bmctl_explain" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove tmp with Sys_error _ -> ())
    (fun () ->
      Alcotest.(check int) "explain --json to file" 0
        (bmctl ~stdout:tmp [ "explain"; "MVT"; "--json"; "--no-whatif" ]);
      let text = In_channel.with_open_bin tmp In_channel.input_all in
      match Json.of_string (String.trim text) with
      | Ok j -> (
        match Explain.of_json j with
        | Ok solo -> Alcotest.(check string) "round-tripped app name" "MVT" solo.Explain.x_app
        | Error e -> Alcotest.failf "bmctl JSON did not decode: %s" e)
      | Error e -> Alcotest.failf "bmctl JSON did not parse: %s" e)

let suite =
  [
    Alcotest.test_case "conservation + coverage: suite x modes matrix" `Slow
      test_conservation_matrix;
    Alcotest.test_case "conservation: random generated apps" `Slow test_conservation_random;
    Alcotest.test_case "what-if: zeroed launch on baseline is ideal" `Quick
      test_whatif_launch_is_ideal;
    Alcotest.test_case "corun: per-app sums reach machine totals" `Quick test_corun_shared_sums;
    Alcotest.test_case "corun: partition isolation of attributions" `Quick
      test_corun_partition_isolation;
    Alcotest.test_case "synthetic trace pins slot starvation" `Quick test_slot_starved_synthetic;
    Alcotest.test_case "JSON round trip is byte-stable" `Quick test_json_roundtrip;
    Alcotest.test_case "of_json rejects malformed input" `Quick test_of_json_rejects_garbage;
    Alcotest.test_case "metrics export + counter series" `Quick test_export_and_series;
    Alcotest.test_case "bmctl explain integration" `Slow test_bmctl_explain;
  ]
