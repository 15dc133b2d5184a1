(* The explain layer as a correctness obligation.

   The attribution's conservation theorem is an exact integer identity
   (every resource row sums to makespan x weight in ticks), and the
   critical path must cover [0, makespan] contiguously — both are checked
   here over the entire suite x mode matrix, not sampled.  The
   busy-tick total is additionally cross-checked against a direct sum
   over the Stats TB columns (the trace's TB stamps are those columns, so
   this checks the attribution's interval sweep).  The values
   themselves are pinned by digest over the same matrix and the ledger's
   co-runs, and by literal over malformed synthetic traces.  A synthetic
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
module Microbench = Bm_workloads.Microbench
module Command = Bm_gpu.Command
module Prep = Bm_maestro.Prep
module Sim = Bm_maestro.Sim
module Trace = Bm_report.Trace
module Attrib = Bm_report.Attrib
module Critpath = Bm_report.Critpath
module Metrics = Bm_metrics.Metrics
module Json = Bm_metrics.Json

let cfg = Config.titan_x_pascal

let check_ok ctx = function
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: %s" ctx e

let json_digest solos =
  Digest.to_hex
    (Digest.string (String.concat "\n" (List.map (fun x -> Json.to_string (Explain.to_json x)) solos)))

(* --- conservation + coverage over the full matrix --------------------- *)

(* The identities hold for any bookkeeping that stays internally
   consistent, so the values are pinned too: [Explain.to_json] (no
   what-if) digests for every suite app x mode.  A change that moves ticks
   between buckets or nodes along the path changes a digest. *)
let matrix_digests =
  [
    ("3MM", "baseline", "c8886951402fd94e373e9709859df43b");
    ("3MM", "ideal", "4c19aa17ed9f0cbec29d71f87aee4dd7");
    ("3MM", "prelaunch", "0fe3ec56f32da795861f5cbc78bfa9c4");
    ("3MM", "producer", "32ca9aadec5e30790e8e8dd2391c13de");
    ("3MM", "consumer2", "88fe2104a1aab14ee91b756e825e2f1b");
    ("3MM", "consumer3", "55c17aeb587f4af2eaa3c73dcb5aed4a");
    ("3MM", "consumer4", "140a98a72394abd186eb719b0ff4bc3f");
    ("3MM", "edf2", "8c4cc043e4e123c5c86ff32062de84a7");
    ("3MM", "edf3", "3c8f9751331445570066268d85970f16");
    ("3MM", "edf4", "047ee6b349127e34b3c09aa21bcadba9");
    ("AlexNet", "baseline", "15bdef89fc169a7375affdb6d9915ec4");
    ("AlexNet", "ideal", "0ec5eac0c12acafde51d52647af3886a");
    ("AlexNet", "prelaunch", "f4da64da9e1909546fc9bb808515d0f9");
    ("AlexNet", "producer", "0cfe2c3400632adc11c9326c74786acc");
    ("AlexNet", "consumer2", "a5e5acc3d7345e6a0888e68b95ea81b3");
    ("AlexNet", "consumer3", "d23350e8682f79172783791fdbf275bf");
    ("AlexNet", "consumer4", "f9fe874988edc9bafe2735e90f88e746");
    ("AlexNet", "edf2", "70ac1e181738c820dc403ddef3e69220");
    ("AlexNet", "edf3", "a526b8d34ecbcdadd9771603fb571f6e");
    ("AlexNet", "edf4", "d9939105ecaa0fe73dd401159f2cd789");
    ("BICG", "baseline", "c9524ea922cf0d078c671d9cb5ff7324");
    ("BICG", "ideal", "fda6e596abd96173326b03cdbddf59de");
    ("BICG", "prelaunch", "5cad274d01e25a1592368f273c43dfba");
    ("BICG", "producer", "b66ebcfb524e8a37e6832506466a49c5");
    ("BICG", "consumer2", "ae226bbc6be094374009f9faead0da6e");
    ("BICG", "consumer3", "15ff9757cef3ca215920e78a587754bc");
    ("BICG", "consumer4", "8f19587f7bc96a16cab0109ef3c34cf2");
    ("BICG", "edf2", "866cfb2bc4225eff3b1bec746e82fedd");
    ("BICG", "edf3", "03c05002d76185a86080133056b3c089");
    ("BICG", "edf4", "c9b7884f34000bdb198eaa65779f16d0");
    ("FDTD-2D", "baseline", "69827a67bca4f94ab5b425ffb69f058b");
    ("FDTD-2D", "ideal", "6a560e636d97cb63c4a76b48ee7393ec");
    ("FDTD-2D", "prelaunch", "f09e0090849970b28077680e2aa65ecd");
    ("FDTD-2D", "producer", "a84d6db69425f4cc6542cffb5f27f84f");
    ("FDTD-2D", "consumer2", "103d7c659e2acb046dcd202b5a716498");
    ("FDTD-2D", "consumer3", "1dda65c4ed93301b90d17e05cf377696");
    ("FDTD-2D", "consumer4", "61692c62f37490e019ca2c0789a614e1");
    ("FDTD-2D", "edf2", "a3f6c9f87e0dca8f79d47a0c14a313c2");
    ("FDTD-2D", "edf3", "ee2d5ecadf65d7faf0317857272f2e50");
    ("FDTD-2D", "edf4", "b9ccb5ef409476c852a0a1c374acb8da");
    ("FFT", "baseline", "872a12007cecbca43c15067f71af7a74");
    ("FFT", "ideal", "687a516993d555d0e22a204a64319a8f");
    ("FFT", "prelaunch", "7a2a030fa0112477cd5cee739350c614");
    ("FFT", "producer", "7a2afdae59e7dbfe73fd61a34e0c5442");
    ("FFT", "consumer2", "cfaec7ab1cc194433ac7a2fe70e05a9a");
    ("FFT", "consumer3", "0b691568425b62fc41140e3641b86952");
    ("FFT", "consumer4", "84c01df57dc96197176e85beaebb4bf3");
    ("FFT", "edf2", "721cda01c0ded7d81946ac4a2640018e");
    ("FFT", "edf3", "67bbe95d24063d5b819c1be42098ddc8");
    ("FFT", "edf4", "b6eb5bbab56d617ee25464eab05e1456");
    ("GAUSSIAN", "baseline", "51fa12d3a69dc7f9b9b76b2c3e8175a5");
    ("GAUSSIAN", "ideal", "8c4512dd7ddd9cbac9a3e380b81ce36a");
    ("GAUSSIAN", "prelaunch", "308fda0db5ca5011bf4dfbce7c7eb898");
    ("GAUSSIAN", "producer", "79a9ff60f5d47d474eb44b9a3807ac96");
    ("GAUSSIAN", "consumer2", "fcaea18a236ed5215af6854c3387b703");
    ("GAUSSIAN", "consumer3", "2dd04652f333dfaa75acd1e15c3be5ce");
    ("GAUSSIAN", "consumer4", "b6be7d68a34971044dfee1d676b56f59");
    ("GAUSSIAN", "edf2", "9e67c6b415fbc4fd33dff880adba9dad");
    ("GAUSSIAN", "edf3", "9619b59c492cdd47e5e02afc32f2505b");
    ("GAUSSIAN", "edf4", "01fc2b1152f28258a67663f206946c35");
    ("GRAMSCHM", "baseline", "397e0441e8203267660d3815ebdc4543");
    ("GRAMSCHM", "ideal", "7197fc3c5603da4adf7254f21570e778");
    ("GRAMSCHM", "prelaunch", "26c1610f071682047c33c0070f8de990");
    ("GRAMSCHM", "producer", "887186511ffef52a9abb5317082c1eae");
    ("GRAMSCHM", "consumer2", "06717aed4fe4905ba19d9a57425a35dd");
    ("GRAMSCHM", "consumer3", "3d658f8a1594640cdfffd4c888aa30fc");
    ("GRAMSCHM", "consumer4", "0ee6ded1754a6bacbe6f6a5614815741");
    ("GRAMSCHM", "edf2", "68e452ddf371aa7d4b89517345c74893");
    ("GRAMSCHM", "edf3", "cc1e89c5644755701697802a2c376bb8");
    ("GRAMSCHM", "edf4", "318678ef93e280a263b02edbad246699");
    ("HS", "baseline", "ba447f04c8ca2cd1af483454a314da24");
    ("HS", "ideal", "e8b3af4316a39d60160024d6c47c6c58");
    ("HS", "prelaunch", "541d7c23767eee1e40d9edc842258e58");
    ("HS", "producer", "a8848cf92ec4a8226edc0c1c5056e42f");
    ("HS", "consumer2", "5cb5fe0fcff5b4c04475a49adcd63827");
    ("HS", "consumer3", "5abded654958c52ec28d0b7f90326f99");
    ("HS", "consumer4", "6ef50e50184fb619dfa131b8b10b733c");
    ("HS", "edf2", "405b43f2e40504922bc69e3a58991c52");
    ("HS", "edf3", "e5491dfe6bf8d6e6581dbfb0662a141a");
    ("HS", "edf4", "64e124f402b7a95fd1bffa55d0591acc");
    ("LUD", "baseline", "e000238d989599c20273ee2e843f382a");
    ("LUD", "ideal", "b5bfc7e0d045346e7c8ed1f13d4f1118");
    ("LUD", "prelaunch", "eb65dec2be8d8e1cd1ab46354eac8fff");
    ("LUD", "producer", "885d49c22513cf05edd409d6cfd7c1e7");
    ("LUD", "consumer2", "992273e0f7474c60489fd342498e7827");
    ("LUD", "consumer3", "dc331ed80920e21f6bc31d8c7e625737");
    ("LUD", "consumer4", "ebfc1008a1d48eddd00b2108c2ac1d8d");
    ("LUD", "edf2", "9aa45e160a12b8973743da70426b74d5");
    ("LUD", "edf3", "09ee6cae32641030961bda721b44cd49");
    ("LUD", "edf4", "b95039ad02665aa0dc052f882fce16bb");
    ("MVT", "baseline", "f38a592391e6f23ab9540ae4469049e1");
    ("MVT", "ideal", "5165e05021aa023db38a118daa7da3e8");
    ("MVT", "prelaunch", "b85dd4934f49480488b03c00a3fffcc9");
    ("MVT", "producer", "32858b4448fa3c749b5569b53b72c91f");
    ("MVT", "consumer2", "02bf2f5851fb7f9d9bc65122fcb41b7f");
    ("MVT", "consumer3", "186d87bcf2f61dbc3355883b75e1b05d");
    ("MVT", "consumer4", "f6d869126e4d5e49ce4fac1159850808");
    ("MVT", "edf2", "65f0f4c928c05db7b3c5dc47c488a229");
    ("MVT", "edf3", "cbadd7337d3ae1e88cb86c476d080568");
    ("MVT", "edf4", "07d2201f07c32dc4e253e71424a04637");
    ("NW", "baseline", "c4258d42887b54a7282af0eb62d00f35");
    ("NW", "ideal", "ae6c0cae38c2190853bca78e1a0de701");
    ("NW", "prelaunch", "75de266785fe80dcb45234633bd17228");
    ("NW", "producer", "4f5d76c2d474b623738025a6df4601ed");
    ("NW", "consumer2", "ecb93b7fe30c277b30718f0972634752");
    ("NW", "consumer3", "03bd1eada1bb1eb4a369575acca61a77");
    ("NW", "consumer4", "6bb3db10994982db37ff960a28f0f8a5");
    ("NW", "edf2", "0a05377d26f304b97724c26230c3cfbf");
    ("NW", "edf3", "fb1b419cc560b6c9aaaa5e62ab1390bb");
    ("NW", "edf4", "486c0667141af2f9712f0495354006f2");
    ("PATH", "baseline", "eaeda2694f5b62b8f16d780d99bca952");
    ("PATH", "ideal", "162b02d610c308ac2cc0d950ed481f66");
    ("PATH", "prelaunch", "e0cbba7bf46e0425c1227f86f8f3c3e8");
    ("PATH", "producer", "74c2d75fe9d416b3f6af3da8bfe285ae");
    ("PATH", "consumer2", "366fa298e3656da82fb8fb737ec3c0b9");
    ("PATH", "consumer3", "83f5427b73686aa1d38323d243f67db7");
    ("PATH", "consumer4", "54c160615a06c48467299774446b1032");
    ("PATH", "edf2", "92fe85f01e365677a71118398aaf009a");
    ("PATH", "edf3", "0548a9a4621b4b61e988676751178b9c");
    ("PATH", "edf4", "0f7c60321149ea6b4df159573929ba5e");
  ]

let test_conservation_matrix () =
  List.iter
    (fun (name, gen) ->
      List.iter
        (fun (mname, mode) ->
          let ctx = Printf.sprintf "%s/%s" name mname in
          let solo, stats, _ = Explain.run_traced ~cfg ~whatif:false mode ~name (gen ()) in
          check_ok ctx (Explain.check solo);
          check_ok ctx (Explain.check_records solo stats);
          let expect = List.find (fun (a, m, _) -> a = name && m = mname) matrix_digests in
          let _, _, digest = expect in
          Alcotest.(check string) (ctx ^ ": explain JSON digest") digest (json_digest [ solo ]))
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

(* --- kernel identity ---------------------------------------------------- *)

(* Every kernel the reconstruction returns is its launch in the
   preparation: same stream, TB count and stream predecessor.  Under
   baseline a fine-grain child's Dep_satisfied events precede its own
   enqueue, and two streams interleave under dual_stream, so a kernel
   named by any event but its enqueue shows here. *)
let test_kernel_identity () =
  let dual () = Microbench.dual_stream ~tbs:4 ~kernels_per_stream:3 in
  let cases =
    List.concat_map (fun (name, gen) -> List.map (fun m -> (name, gen, m)) Mode.known) Suite.all
    @ List.map (fun m -> ("dual_stream 4x3", dual, m))
        [ ("baseline", Mode.Baseline); ("producer", Mode.Producer_priority) ]
  in
  List.iter
    (fun (name, gen, (mname, mode)) ->
      let ctx = Printf.sprintf "%s/%s" name mname in
      let prep = Runner.prepare ~cfg mode (gen ()) in
      let trace = Trace.create () in
      ignore (Sim.run ~trace:(Trace.sink trace) cfg mode prep);
      let p = Attrib.Parse.of_trace trace in
      Alcotest.(check int) (ctx ^ ": one kernel per launch") (Array.length prep.Prep.p_launches)
        (Array.length p.Attrib.Parse.p_kernels);
      Array.iter
        (fun (li : Prep.launch_info) ->
          let want = (li.li_spec.Command.stream, li.li_tbs, Option.value li.li_prev ~default:(-1)) in
          match Attrib.Parse.kernel_of p li.li_seq with
          | None -> Alcotest.failf "%s: launch %d is not a kernel of the trace" ctx li.li_seq
          | Some k ->
            let got = Attrib.Parse.(k.k_stream, k.k_tbs, k.k_prev) in
            if got <> want then
              let s, n, prev = got and s', n', prev' = want in
              Alcotest.failf "%s: kernel %d is stream %d, %d TBs, after %d; its launch stream %d, %d TBs, after %d"
                ctx li.li_seq s n prev s' n' prev')
        prep.Prep.p_launches;
      check_ok ctx (Attrib.Parse.identity p))
    cases

(* 3MM under baseline: the final D2H waits on seq 2's completion, which
   the critical path resolves to seq 2's last finishing TB (a kernel
   whose TB count is lost would resolve to its launch node instead, which
   ends too early to join the path). *)
let test_critpath_completion_3mm () =
  let solo, stats, _ = Explain.run_traced ~cfg ~whatif:false Mode.Baseline ~name:"3MM" (Suite.threemm ()) in
  let nodes = solo.Explain.x_critpath.Critpath.cp_nodes in
  let n = Array.length nodes in
  let last_finish = Attrib.ticks_of_us (Array.fold_left Float.max 0.0 stats.Stats.tb_finish.(2)) in
  (match nodes.(n - 1).Critpath.cn_kind, nodes.(n - 1).Critpath.cn_edge with
  | Critpath.Ncopy { d2h = true; _ }, Critpath.Dep -> ()
  | _ -> Alcotest.failf "last node is %s, not a D2H released by a dependency" (Critpath.node_label nodes.(n - 1)));
  match nodes.(n - 2).Critpath.cn_kind with
  | Critpath.Ntb { seq = 2; _ } ->
    Alcotest.(check int) "seq 2's last finishing TB" last_finish nodes.(n - 2).Critpath.cn_end
  | _ -> Alcotest.failf "seq 2's completion resolves to %s" (Critpath.node_label nodes.(n - 2))

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

(* The co-run pairs and policies of the host-performance ledger, with the
   digest of both tenants' explain JSON per policy. *)
let corun_digests =
  [
    ( ("BICG", "MVT"),
      [ "f96b6b348c6d1f56946afcc902284109";
        "f96b6b348c6d1f56946afcc902284109";
        "044e2d30d745e8fa26defe31a3bd72d3";
        "67eff281037ba461e324546cd16991ee" ] );
    ( ("3MM", "PATH"),
      [ "3c5ce505daf9a666006f0e9e23f515c5";
        "3c5ce505daf9a666006f0e9e23f515c5";
        "c59513b8ad4167b2a711a42579fdc43d";
        "2dfb31013db74ad222f2f68ac6f9ec29" ] );
    ( ("HS", "BICG"),
      [ "c8b89b26839f0f0ab06e7f96b3dce027";
        "b4e91b831bb4d271e985dfc66dc0ebd3";
        "c36bdcad9b19416d10dddbe65f83b56f";
        "ea6fbc6c63f4411d2b5e3af57b203f24" ] );
    ( ("GAUSSIAN", "NW"),
      [ "409489eef09067f2f1354f3a7409a944";
        "8fbbcc0d10116ef21325d36a3d1d5050";
        "bb32c722d316fbf0ae5df9825b643f4b";
        "b750039d0d46624143741fb7336032c4" ] );
  ]

let test_corun_digests () =
  let half = cfg.Config.num_sms / 2 in
  let policies =
    [ (Multi.Fifo, Multi.Shared); (Multi.Packed, Multi.Shared); (Multi.Round_robin, Multi.Shared);
      (Multi.Fifo, Multi.Partitioned [| half; half |]) ]
  in
  List.iter
    (fun ((a, b), digests) ->
      List.iter2
        (fun (submission, spatial) digest ->
          let ctx =
            Printf.sprintf "%s+%s %s %s" a b (Multi.submission_name submission) (Multi.spatial_name spatial)
          in
          let apps = [| (a, List.assoc a Suite.all ()); (b, List.assoc b Suite.all ()) |] in
          let solos, res = Explain.corun ~cfg ~submission ~spatial Mode.Producer_priority apps in
          check_ok ctx (Explain.check_corun solos res);
          Alcotest.(check string) (ctx ^ ": explain JSON digest") digest
            (json_digest (Array.to_list solos)))
        policies digests)
    corun_digests

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

(* --- malformed synthetic traces ---------------------------------------- *)

(* Traces the engine never emits, which the array-backed reconstruction
   must still take without raising, sized from the trace itself.  Each is
   emitted in list order (not time order) and pinned, under a fine-grain
   and a kernel-granular machine, to the cells, per-kernel exec ticks and
   critical path it produced when the reconstruction was hash-table
   based; "dep satisfied before enqueue" since kernels are named by their
   enqueue alone, which puts seq 1 on stream 1. *)
let enq seq stream tbs = Stats.Kernel_enqueue { seq; stream; tbs }
let launched seq stream = Stats.Kernel_launched { seq; stream }
let drained seq stream = Stats.Kernel_drained { seq; stream }
let completed seq stream = Stats.Kernel_completed { seq; stream }
let dispatch seq tb = Stats.Tb_dispatch { seq; tb }
let finish seq tb = Stats.Tb_finish { seq; tb }
let dep seq tb = Stats.Dep_satisfied { seq; tb }
let copy_start cmd = Stats.Copy_start { cmd; bytes = 64; d2h = false; blocking = false }
let copy_finish cmd = Stats.Copy_finish { cmd; bytes = 64; d2h = false; blocking = false }

let malformed_traces =
  [
    ("empty trace", []);
    ( "TB and dep events for a kernel never enqueued",
      [ (0.0, enq 0 0 1); (0.5, launched 0 0); (0.5, dispatch 0 0); (1.0, dep 3 0);
        (1.5, dispatch 3 0); (2.0, finish 0 0); (2.0, drained 0 0); (2.0, completed 0 0);
        (2.5, finish 3 0); (3.0, dispatch 4 1); (3.5, finish 4 1) ] );
    ( "dep satisfied before enqueue",
      [ (0.0, enq 0 0 1); (0.25, dep 1 0); (0.5, launched 0 0); (0.5, dispatch 0 0);
        (1.0, enq 1 1 2); (1.5, launched 1 1); (1.5, dispatch 1 0); (1.75, dispatch 1 1);
        (2.0, finish 0 0); (2.0, drained 0 0); (2.0, completed 0 0); (2.5, finish 1 0);
        (3.0, finish 1 1); (3.0, drained 1 1); (3.0, completed 1 1) ] );
    ( "TB id beyond the enqueued TB count",
      [ (0.0, enq 0 0 1); (0.5, launched 0 0); (0.5, dispatch 0 0); (0.75, dep 0 5);
        (1.0, dispatch 0 5); (2.0, finish 0 0); (2.5, finish 0 5); (2.5, drained 0 0);
        (2.5, completed 0 0) ] );
    ( "copy finish without its start",
      [ (0.5, copy_finish 7); (1.0, copy_start 8); (0.0, enq 0 0 1); (2.0, copy_finish 8);
        (2.0, launched 0 0); (2.0, dispatch 0 0); (3.0, finish 0 0); (3.0, drained 0 0);
        (3.0, completed 0 0); (3.5, copy_finish 9) ] );
    ( "sparse seqs",
      [ (0.0, enq 0 0 1); (0.0, enq 7 2 2); (0.5, launched 0 0); (0.5, launched 7 2);
        (0.5, dispatch 0 0); (0.5, dispatch 7 0); (1.0, finish 7 0); (1.0, dispatch 7 1);
        (1.5, finish 0 0); (1.5, drained 0 0); (1.5, completed 0 0); (1.5, enq 100 0 1);
        (2.0, launched 100 0); (2.0, dep 100 0); (2.25, dispatch 100 0); (2.5, finish 7 1);
        (2.5, drained 7 2); (2.5, completed 7 2); (3.0, finish 100 0); (3.0, drained 100 0);
        (3.0, completed 100 0) ] );
  ]

(* (trace, machine, cells by resource | per-kernel exec, critical path);
   times in quarter microseconds. *)
let malformed_expected =
  [
    ("empty trace", "fine",
      "0 0 0 0 0 0 0 | 0 0 0 0 0 0 0 | 0 0 0 0 0 0 0 | exec ",
      "");
    ("empty trace", "coarse",
      "0 0 0 0 0 0 0 | 0 0 0 0 0 0 0 | 0 0 0 0 0 0 0 | exec ",
      "");
    ("TB and dep events for a kernel never enqueued", "fine",
      "12 0 38 0 0 0 6 | 0 0 0 0 0 0 14 | 0 0 0 0 0 2 12 | exec k0=6 k3=4 k4=2",
      "launch k0@0-2:start host@2-6:program k3:tb0@6-10:host host@10-12:program k4:tb1@12-14:host");
    ("TB and dep events for a kernel never enqueued", "coarse",
      "12 0 38 0 0 0 6 | 0 0 0 0 0 0 14 | 0 0 0 0 0 2 12 | exec k0=6 k3=4 k4=2",
      "launch k0@0-2:start host@2-6:program k3:tb0@6-10:host host@10-12:program k4:tb1@12-14:host");
    ("dep satisfied before enqueue", "fine",
      "15 0 2 0 0 14 17 | 0 0 0 0 0 0 12 | 0 0 0 0 0 4 8 | exec k1=9 k0=6",
      "launch k0@0-2:start host@2-4:program launch k1@4-6:host host@6-7:program k1:tb1@7-12:host");
    ("dep satisfied before enqueue", "coarse",
      "15 0 2 0 0 14 17 | 0 0 0 0 0 0 12 | 0 0 0 0 0 4 8 | exec k1=9 k0=6",
      "launch k0@0-2:start host@2-4:program launch k1@4-6:host host@6-7:program k1:tb1@7-12:host");
    ("TB id beyond the enqueued TB count", "fine",
      "12 3 3 0 0 8 14 | 0 0 0 0 0 0 10 | 0 0 0 0 0 2 8 | exec k0=12",
      "launch k0@0-2:start host@2-4:program k0:tb5@4-10:host");
    ("TB id beyond the enqueued TB count", "coarse",
      "12 0 6 0 0 8 14 | 0 0 0 0 0 0 10 | 0 0 0 0 0 2 8 | exec k0=12",
      "launch k0@0-2:start host@2-4:program k0:tb5@4-10:host");
    ("copy finish without its start", "fine",
      "4 0 0 0 0 32 20 | 4 0 0 0 0 0 10 | 0 0 0 0 0 8 6 | exec k0=4",
      "host@0-14:start");
    ("copy finish without its start", "coarse",
      "4 0 0 0 0 32 20 | 4 0 0 0 0 0 10 | 0 0 0 0 0 8 6 | exec k0=4",
      "host@0-14:start");
    ("sparse seqs", "fine",
      "15 0 7 4 0 14 8 | 0 0 0 0 0 0 12 | 0 0 0 0 0 4 8 | exec k7=8 k0=4 k100=3",
      "launch k0@0-2:start k0:tb0@2-6:launch launch k100@6-8:window host@8-9:program k100:tb0@9-12:host");
    ("sparse seqs", "coarse",
      "15 0 7 0 0 14 12 | 0 0 0 0 0 0 12 | 0 0 0 0 0 4 8 | exec k7=8 k0=4 k100=3",
      "launch k0@0-2:start k0:tb0@2-6:launch launch k100@6-8:window host@8-9:program k100:tb0@9-12:host");
  ]

let test_malformed_traces () =
  let machines =
    [ ("fine", { Attrib.ma_slots = 4; ma_window = 1; ma_fine = true });
      ("coarse", { Attrib.ma_slots = 4; ma_window = 2; ma_fine = false }) ]
  in
  let q t = if t land 0x3ffff = 0 then string_of_int (t asr 18) else Printf.sprintf "%dt" t in
  let render_attrib a =
    String.concat " | "
      (List.map
         (fun r -> String.concat " " (List.map (fun b -> q (Attrib.cell a r b)) Attrib.buckets))
         Attrib.resources)
    ^ " | exec "
    ^ String.concat " "
        (Array.to_list
           (Array.map (fun (s, t) -> Printf.sprintf "k%d=%s" s (q t)) a.Attrib.at_kernel_exec))
  in
  let render_critpath cp =
    String.concat " "
      (Array.to_list
         (Array.map
            (fun n ->
              Printf.sprintf "%s@%s-%s:%s" (Critpath.node_label n) (q n.Critpath.cn_start)
                (q n.Critpath.cn_end) (Critpath.edge_name n.Critpath.cn_edge))
            cp.Critpath.cp_nodes))
  in
  List.iter
    (fun (name, mname, cells, path) ->
      let trace = Trace.create () in
      List.iter (fun (ts, ev) -> Trace.sink trace ts ev) (List.assoc name malformed_traces);
      let machine = List.assoc mname machines in
      let ctx = Printf.sprintf "%s (%s)" name mname in
      Alcotest.(check string) (ctx ^ ": attribution") cells
        (render_attrib (Attrib.of_trace machine trace));
      Alcotest.(check string) (ctx ^ ": critical path") path
        (render_critpath (Critpath.of_trace machine trace)))
    malformed_expected;
  (* The one documented refusal: timestamps past the packed-delta range. *)
  ignore (Attrib.ticks_of_us 2.7e11);
  Alcotest.check_raises "tick range" (Invalid_argument "Bm_report.Attrib: timestamp out of tick range")
    (fun () -> ignore (Attrib.ticks_of_us 2.8e11))

(* --- JSON round trip --------------------------------------------------- *)

(* The emitted JSON is a fixed point of parse-then-print: display floats
   are rounded to 1e-4 us, so re-printing a parsed report reproduces its
   bytes exactly. *)
let test_json_roundtrip () =
  List.iter
    (fun (name, mode) ->
      let gen = List.assoc name Suite.all in
      let solo = Explain.run ~cfg ~series:true mode ~name (gen ()) in
      let s = Json.to_string (Explain.to_json solo) in
      match Json.of_string s with
      | Error e -> Alcotest.failf "%s: emitted JSON does not parse: %s" name e
      | Ok j -> Alcotest.(check string) (name ^ ": parse/print is byte-stable") s (Json.to_string j))
    [ ("BICG", Mode.Producer_priority); ("FFT", Mode.Baseline); ("HS", Mode.Consumer_priority 3) ]

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

let bmctl = Exe.bmctl

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
      | Ok j ->
        Alcotest.(check (option string)) "app member" (Some "MVT")
          (Option.bind (Json.member "app" j) Json.to_str)
      | Error e -> Alcotest.failf "bmctl JSON did not parse: %s" e)

let suite =
  [
    Alcotest.test_case "conservation + coverage: suite x modes matrix" `Slow
      test_conservation_matrix;
    Alcotest.test_case "conservation: random generated apps" `Slow test_conservation_random;
    Alcotest.test_case "kernel identity: suite x modes and dual_stream" `Slow test_kernel_identity;
    Alcotest.test_case "critical path: 3MM/baseline completion is seq 2's last TB" `Quick
      test_critpath_completion_3mm;
    Alcotest.test_case "what-if: zeroed launch on baseline is ideal" `Quick
      test_whatif_launch_is_ideal;
    Alcotest.test_case "corun: per-app sums reach machine totals" `Quick test_corun_shared_sums;
    Alcotest.test_case "corun: explain digests over ledger pairs x policies" `Slow test_corun_digests;
    Alcotest.test_case "corun: partition isolation of attributions" `Quick
      test_corun_partition_isolation;
    Alcotest.test_case "synthetic trace pins slot starvation" `Quick test_slot_starved_synthetic;
    Alcotest.test_case "malformed synthetic traces attribute as pinned" `Quick test_malformed_traces;
    Alcotest.test_case "JSON round trip is byte-stable" `Quick test_json_roundtrip;
    Alcotest.test_case "metrics export + counter series" `Quick test_export_and_series;
    Alcotest.test_case "bmctl explain integration" `Slow test_bmctl_explain;
  ]
