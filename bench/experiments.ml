(* Regeneration of every table and figure in the paper's evaluation
   (Section IV).  Each [table*]/[fig*] function prints the corresponding
   rows; [sections] lists them in paper order and computes the shared
   simulation results once.

   Absolute numbers come from our TB-granular timing simulator rather than
   the authors' GPGPU-Sim testbed, so the quantities to compare are the
   *shapes*: orderings, approximate factors and crossovers.  EXPERIMENTS.md
   records paper-vs-measured values side by side. *)

open Blockmaestro

let fig9_modes = List.filter (fun m -> m <> Mode.Baseline) Mode.all_fig9

type app_results = {
  ar_name : string;
  ar_prep : Prep.t;  (* reordered preparation (BlockMaestro's view) *)
  ar_runs : (Mode.t * Stats.t) list;  (* baseline + fig9 modes *)
}

(* Each app's prepare + 7-mode simulation is one independent task on the
   domain pool (the shared matrix behind table2/3 and fig9/10/11/13), with
   one analysis cache per task, so [ar_prep] reuses the reordered class's
   analysis.  Results come back in suite order, so every printed table is
   identical for any --jobs value. *)
let results () =
  Parallel.map_list
    (fun (name, gen) ->
      let app = gen () in
      let cache = Cache.create () in
      {
        ar_name = name;
        ar_prep = Runner.prepare ~cache Mode.Producer_priority app;
        ar_runs = Runner.simulate_all ~cache app;
      })
    Suite.all

let baseline_of ar = List.assoc Mode.Baseline ar.ar_runs

(* ------------------------------------------------------------------ *)

let table1 () =
  let t =
    Report.table ~title:"Table I: encoded storage per dependency pattern (N=64 parents, M=64 children)"
      ~columns:[ "P#"; "pattern"; "overhead class"; "plain bytes"; "encoded bytes" ]
  in
  let n = 64 in
  let graph edges = Bipartite.Graph (Bipartite.of_edges ~n_parents:n ~n_children:n edges) in
  let pairs f =
    let edges = ref [] in
    for c = 0 to n - 1 do
      List.iter (fun p -> if p >= 0 && p < n then edges := (p, c) :: !edges) (f c)
    done;
    graph !edges
  in
  let n_group = pairs (fun c -> List.init 8 (fun i -> (c / 8 * 8) + i)) in
  let one_to_one = pairs (fun c -> [ c ]) in
  let one_to_n = pairs (fun c -> [ c / 4 ]) in
  let n_to_one = pairs (fun c -> List.init 4 (fun i -> (c * 4) + i)) in
  let overlapped = pairs (fun c -> [ c - 1; c; c + 1 ]) in
  let cases =
    Encode.measure_full ~n_parents:n ~n_children:n
    :: List.map Encode.measure
         [ n_group; one_to_one; one_to_n; n_to_one; overlapped; Bipartite.Independent ]
  in
  List.iter
    (fun sizes ->
      Report.row t
        [
          string_of_int (Pattern.table1_id sizes.Encode.pattern);
          Pattern.name sizes.Encode.pattern;
          Encode.encoded_overhead_class sizes.Encode.pattern;
          string_of_int sizes.Encode.plain_bytes;
          string_of_int sizes.Encode.encoded_bytes;
        ])
    cases;
  Report.print t

(* ------------------------------------------------------------------ *)

let paper_table2 =
  [
    ("3MM", "2,7"); ("AlexNet", "1,3,4"); ("BICG", "7"); ("FDTD-2D", "5,7"); ("FFT", "3,5,7");
    ("GAUSSIAN", "4,5"); ("GRAMSCHM", "1,4,5"); ("HS", "6"); ("LUD", "3,4,5"); ("MVT", "7");
    ("NW", "4,5"); ("PATH", "6");
  ]

let table2 results =
  let t =
    Report.table ~title:"Table II: benchmarks, kernel counts, dependency patterns"
      ~columns:[ "name"; "#kernels"; "patterns (measured)"; "patterns (paper)" ]
  in
  List.iter
    (fun ar ->
      let patterns =
        Array.to_list ar.ar_prep.Prep.p_launches
        |> List.filter (fun li -> li.Prep.li_seq > 0)
        |> List.map (fun li -> Pattern.table1_id li.Prep.li_pattern)
        |> List.sort_uniq compare
        |> List.map string_of_int |> String.concat ","
      in
      Report.row t
        [
          ar.ar_name;
          string_of_int (Array.length ar.ar_prep.Prep.p_launches);
          patterns;
          (try List.assoc ar.ar_name paper_table2 with Not_found -> "?");
        ])
    results;
  Report.print t

(* ------------------------------------------------------------------ *)

let fig9 results =
  let t =
    Report.table ~title:"Fig. 9: normalized speedup w.r.t. baseline"
      ~columns:
        [ "app"; "pre-launch"; "producer"; "consumer-2k"; "consumer-3k"; "consumer-4k"; "ideal" ]
  in
  let acc = Array.make 6 [] in
  List.iter
    (fun ar ->
      let base = baseline_of ar in
      let sp mode = Stats.speedup ~baseline:base (List.assoc mode ar.ar_runs) in
      let vals = List.map sp fig9_modes in
      List.iteri (fun i v -> acc.(i) <- v :: acc.(i)) vals;
      Report.row t (ar.ar_name :: List.map Report.f2 vals))
    results;
  Report.row t ("geomean" :: Array.to_list (Array.map (fun l -> Report.f2 (Report.geomean l)) acc));
  Report.print t;
  Printf.printf "paper: producer-priority avg +51.76%% (max 2.92x); geomean up to +80.28%% with 3 pre-launched kernels\n"

(* ------------------------------------------------------------------ *)

let fig10 results =
  let t =
    Report.table ~title:"Fig. 10: normalized average TB concurrency w.r.t. baseline"
      ~columns:[ "app"; "pre-launch"; "producer"; "consumer-2k"; "consumer-3k"; "consumer-4k" ]
  in
  List.iter
    (fun ar ->
      let base = Stats.busy_concurrency (baseline_of ar) in
      let norm mode =
        let s = List.assoc mode ar.ar_runs in
        if base > 0.0 then Stats.busy_concurrency s /. base else 1.0
      in
      Report.row t
        (ar.ar_name
        :: List.map (fun m -> Report.f2 (norm m))
             [
               Mode.Prelaunch_only; Mode.Producer_priority; Mode.Consumer_priority 2;
               Mode.Consumer_priority 3; Mode.Consumer_priority 4;
             ]))
    results;
  Report.print t

(* ------------------------------------------------------------------ *)

let fig11 results =
  let t =
    Report.table
      ~title:"Fig. 11: dependency-stall distribution (normalized to TB exec time): q1 / median / q3"
      ~columns:[ "app"; "baseline"; "blockmaestro (producer)" ]
  in
  List.iter
    (fun ar ->
      let fmt mode =
        let s = List.assoc mode ar.ar_runs in
        let stalls = Stats.stall_fractions s in
        if Array.length stalls = 0 then "-"
        else
          let q1, med, q3 = Report.quartiles stalls in
          Printf.sprintf "%.2f / %.2f / %.2f" q1 med q3
      in
      Report.row t [ ar.ar_name; fmt Mode.Baseline; fmt Mode.Producer_priority ])
    results;
  Report.print t;
  Printf.printf "paper: BlockMaestro visibly decreases stalling; BICG/MVT show dramatic reductions\n"

(* ------------------------------------------------------------------ *)

let fig12 () =
  let t =
    Report.table
      ~title:"Fig. 12: interconnectivity sweep (VectorAdd, n-group degree vs speedup, consumer-2k)"
      ~columns:[ "TBs \\ degree"; "1"; "2"; "4"; "8"; "16"; "32"; "64"; "128"; "256" ]
  in
  let degrees = [ 1; 2; 4; 8; 16; 32; 64; 128; 256 ] in
  let cfg = { Config.titan_x_pascal with Config.jitter_frac = 0.35 } in
  (* One task per grid row; each task prepares its own app so nothing is
     shared across domains. *)
  let rows =
    Parallel.map_list
      (fun tbs ->
        let app = Microbench.vector_add ~tbs in
        let base = Sim.run cfg Mode.Baseline (Prep.prepare ~reorder:false cfg app) in
        let prep = Prep.prepare ~reorder:true cfg app in
        let cells =
          List.map
            (fun degree ->
              let rel = Microbench.n_group_relation ~tbs ~degree in
              let bm =
                Sim.run cfg (Mode.Consumer_priority 2) (Prep.with_relation prep ~seq:1 rel)
              in
              Report.f2 (Stats.speedup ~baseline:base bm))
            degrees
        in
        string_of_int tbs :: cells)
      [ 256; 512; 1024; 2048 ]
  in
  List.iter (Report.row t) rows;
  Report.print t;
  Printf.printf
    "paper: benefits deteriorate past degree 32 (collapse to fully-connected past the 64-parent counter), and shrink as the workload grows (gone by 2048 TBs)\n"

(* ------------------------------------------------------------------ *)

let fig13 results =
  let t =
    Report.table ~title:"Fig. 13: memory request overhead of dependency-list traffic"
      ~columns:[ "app"; "data requests"; "dep requests"; "overhead %" ]
  in
  let pcts = ref [] in
  List.iter
    (fun ar ->
      let s = List.assoc Mode.Producer_priority ar.ar_runs in
      let pct = Stats.mem_overhead_pct s in
      pcts := pct :: !pcts;
      Report.row t
        [
          ar.ar_name;
          Printf.sprintf "%.0f" s.Stats.base_mem_requests;
          Printf.sprintf "%.0f" s.Stats.dep_mem_requests;
          Printf.sprintf "%.2f%%" pct;
        ])
    results;
  Report.row t [ "average"; ""; ""; Printf.sprintf "%.2f%%" (Report.mean !pcts) ];
  Report.print t;
  Printf.printf "paper: average overhead 1.36%%\n"

(* ------------------------------------------------------------------ *)

let table3 results =
  let t =
    Report.table
      ~title:"Table III: total bipartite-graph storage normalized to plain storage"
      ~columns:[ "app"; "plain bytes"; "encoded bytes"; "normalized" ]
  in
  let ratios = ref [] in
  List.iter
    (fun ar ->
      let plain = ref 0 and encoded = ref 0 in
      Array.iter
        (fun (li : Prep.launch_info) ->
          if li.Prep.li_seq > 0 && li.Prep.li_relation <> Bipartite.Independent then begin
            plain := !plain + li.Prep.li_sizes.Encode.plain_bytes;
            encoded := !encoded + li.Prep.li_sizes.Encode.encoded_bytes
          end)
        ar.ar_prep.Prep.p_launches;
      if !plain = 0 then Report.row t [ ar.ar_name; "0"; "0"; "- (independent kernels)" ]
      else begin
        let ratio = float_of_int !encoded /. float_of_int !plain in
        ratios := ratio :: !ratios;
        Report.row t
          [ ar.ar_name; string_of_int !plain; string_of_int !encoded; Printf.sprintf "%.4f" ratio ]
      end)
    results;
  Report.row t [ "average"; ""; ""; Printf.sprintf "%.4f" (Report.mean !ratios) ];
  Report.print t;
  Printf.printf "paper: average 0.653 (34.7%% reduction); BICG/MVT excluded (independent kernels)\n"

(* ------------------------------------------------------------------ *)

let fig14 () =
  let t =
    Report.table
      ~title:"Fig. 14: wavefront apps (~4K tasks), speedup normalized to CDP"
      ~columns:[ "app"; "cdp"; "wireframe"; "bm-producer"; "bm-consumer" ]
  in
  let cfg = { Config.titan_x_pascal with Config.jitter_frac = 0.35 } in
  let geos = Array.make 3 [] in
  (* One task per wavefront app: four simulations (CDP, Wireframe, two
     BlockMaestro modes) each. *)
  let rows =
    Parallel.map_list
      (fun (name, gen) ->
        let app = gen () in
        let cdp = Cdp.simulate ~cfg app in
        let sp s = Stats.speedup ~baseline:cdp s in
        let wf = sp (Wireframe.simulate ~cfg app) in
        let prod = sp (Runner.simulate ~cfg Mode.Producer_priority app) in
        let cons = sp (Runner.simulate ~cfg (Mode.Consumer_priority 4) app) in
        (name, wf, prod, cons))
      Wavefront.apps
  in
  List.iter
    (fun (name, wf, prod, cons) ->
      geos.(0) <- wf :: geos.(0);
      geos.(1) <- prod :: geos.(1);
      geos.(2) <- cons :: geos.(2);
      Report.row t [ name; "1.00"; Report.f2 wf; Report.f2 prod; Report.f2 cons ])
    rows;
  Report.row t
    ("geomean" :: "1.00" :: Array.to_list (Array.map (fun l -> Report.f2 (Report.geomean l)) geos));
  Report.print t;
  Printf.printf
    "paper: Wireframe +36.8%% geomean over CDP, BlockMaestro-producer +5.8%%, BlockMaestro-consumer ~2x\n"

(* ------------------------------------------------------------------ *)

let area () =
  let cfg = Config.titan_x_pascal in
  Printf.printf "\n== Area overhead (paper SIV-C) ==\n";
  Printf.printf "dependency list buffer : %d entries x %d bits\n" cfg.Config.dlb_entries
    (Hardware.dlb_entry_bits cfg);
  Printf.printf "parent counter buffer  : %d entries x %d bits\n" cfg.Config.pcb_entries
    (Hardware.pcb_entry_bits cfg);
  Printf.printf "total SRAM             : %d bytes (~%.1f KB; paper: ~22 KB)\n"
    (Hardware.area_bytes cfg)
    (float_of_int (Hardware.area_bytes cfg) /. 1024.0)

(* ------------------------------------------------------------------ *)
(* Ablations: isolate each design choice DESIGN.md calls out.          *)

(* A host program with memory operations interleaved between kernels, so
   command-queue reordering has something to hoist (Fig. 5's situation). *)
let interleaved_app () =
  let d = Dsl.create "ablation-reorder" in
  let n = 65536 in
  let k = Templates.map1 ~name:"abl_step" ~work:300 in
  let prev = ref (Dsl.buffer d ~elems:n) in
  Dsl.h2d d !prev;
  for _ = 1 to 8 do
    (* The next stage's large input is allocated and uploaded *between*
       kernels — exactly Fig. 5a's cudaMalloc(B)/cudaMemcpy(B). *)
    let next = Dsl.buffer d ~elems:n in
    Dsl.launch d k ~grid:(n / 256) ~block:256
      ~args:[ ("n", Command.Int n); ("IN", Command.Buf !prev); ("OUT", Command.Buf next) ];
    let aux = Dsl.buffer d ~elems:(8 * n) in
    Dsl.h2d d aux;
    prev := next
  done;
  Dsl.d2h d !prev;
  Dsl.app d

let ablation_reordering () =
  let t =
    Report.table ~title:"Ablation: programmer-transparent command reordering"
      ~columns:[ "configuration"; "total us"; "speedup vs baseline" ]
  in
  let cfg = Config.titan_x_pascal in
  let app = interleaved_app () in
  let base = Sim.run cfg Mode.Baseline (Prep.prepare ~reorder:false cfg app) in
  (* Without reordering the default synchronous memory APIs still stall the
     host between kernels (Fig. 5a/b). *)
  let without =
    Sim.run ~host_blocking_copies:true cfg Mode.Producer_priority
      (Prep.prepare ~reorder:false cfg app)
  in
  let with_ = Sim.run cfg Mode.Producer_priority (Prep.prepare ~reorder:true cfg app) in
  Report.row t [ "baseline"; Report.f2 base.Stats.total_us; "1.00" ];
  Report.row t
    [ "BlockMaestro, blocking APIs, no reordering"; Report.f2 without.Stats.total_us;
      Report.f2 (Stats.speedup ~baseline:base without) ];
  Report.row t
    [ "BlockMaestro, non-blocking + reordering"; Report.f2 with_.Stats.total_us;
      Report.f2 (Stats.speedup ~baseline:base with_) ];
  Report.print t;
  Printf.printf
    "reordering hoists the interleaved mallocs/copies so kernel launches pack together (Fig. 5c)\n"

let ablation_counter_width () =
  let t =
    Report.table
      ~title:"Ablation: parent-counter width (degree cap) on a degree-24 n-group microbenchmark"
      ~columns:[ "counter width"; "degree cap"; "pair encoding"; "speedup vs baseline" ]
  in
  let tbs = 1024 in
  let app = Microbench.vector_add ~tbs in
  List.iter
    (fun bits ->
      let cap = 1 lsl bits in
      let cfg = { Config.titan_x_pascal with Config.max_parent_degree = cap } in
      let base = Sim.run cfg Mode.Baseline (Prep.prepare ~reorder:false cfg app) in
      let prep = Prep.prepare ~reorder:true cfg app in
      (* A degree-24 dependency: representable with 5+ bits, degraded below. *)
      let rel =
        if 24 > cap then Bipartite.Fully_connected
        else Microbench.n_group_relation ~tbs ~degree:24
      in
      let prep = Prep.with_relation prep ~seq:1 rel in
      let bm = Sim.run cfg (Mode.Consumer_priority 2) prep in
      Report.row t
        [
          Printf.sprintf "%d bits" bits;
          string_of_int cap;
          (match rel with Bipartite.Fully_connected -> "fully-connected" | _ -> "n-group kept");
          Report.f2 (Stats.speedup ~baseline:base bm);
        ])
    [ 3; 4; 5; 6; 8 ];
  Report.print t;
  Printf.printf "the paper's 6-bit counters keep every degree <= 64 pair fine-grain\n"

let ablation_launch_overhead () =
  let t =
    Report.table ~title:"Ablation: kernel-launch overhead sensitivity (GAUSSIAN)"
      ~columns:[ "launch us"; "baseline us"; "consumer-3k us"; "speedup" ]
  in
  let app = Suite.gaussian () in
  List.iter
    (fun launch_us ->
      let cfg = { Config.titan_x_pascal with Config.kernel_launch_us = launch_us } in
      let base = Sim.run cfg Mode.Baseline (Prep.prepare ~reorder:false cfg app) in
      let bm = Sim.run cfg (Mode.Consumer_priority 3) (Prep.prepare ~reorder:true cfg app) in
      Report.row t
        [
          Printf.sprintf "%.1f" launch_us;
          Report.f2 base.Stats.total_us;
          Report.f2 bm.Stats.total_us;
          Report.f2 (Stats.speedup ~baseline:base bm);
        ])
    [ 1.0; 2.5; 5.0; 10.0; 20.0 ];
  Report.print t;
  Printf.printf "pre-launching pays off in proportion to the launch overhead it hides\n"

let ablation_policy () =
  let t =
    Report.table ~title:"Ablation: scheduling policy at a fixed 3-kernel window"
      ~columns:[ "app"; "producer-first"; "consumer-first" ]
  in
  let cfg = { Config.titan_x_pascal with Config.jitter_frac = 0.35 } in
  List.iter
    (fun (name, gen) ->
      let app = gen () in
      let base = Sim.run cfg Mode.Baseline (Prep.prepare ~reorder:false cfg app) in
      let prep = Prep.prepare ~reorder:true cfg app in
      (* Same window and fine-grain resolution; only the priority differs
         ([Producer_priority] is window 2, so emulate with window-3 modes). *)
      let cons = Sim.run cfg (Mode.Consumer_priority 3) prep in
      let prod = Sim.run cfg Mode.Producer_priority prep in
      Report.row t
        [ name; Report.f2 (Stats.speedup ~baseline:base prod);
          Report.f2 (Stats.speedup ~baseline:base cons) ])
    [ ("HS", Suite.hotspot); ("PATH", Suite.pathfinder); ("wavefront-sor", List.assoc "sor" Wavefront.apps) ];
  Report.print t;
  Printf.printf "consumer priority lets ready TBs run ahead of producer stragglers\n"

let ablation_streams () =
  let t =
    Report.table ~title:"Ablation: CUDA stream awareness (two interleaved 4-kernel chains)"
      ~columns:[ "configuration"; "total us" ]
  in
  let cfg = Config.titan_x_pascal in
  let app = Microbench.dual_stream ~tbs:128 ~kernels_per_stream:4 in
  let base = Sim.run cfg Mode.Baseline (Prep.prepare ~reorder:false cfg app) in
  let bm = Sim.run cfg Mode.Producer_priority (Prep.prepare ~reorder:true cfg app) in
  Report.row t [ "serialized baseline"; Report.f2 base.Stats.total_us ];
  Report.row t [ "BlockMaestro (per-stream windows)"; Report.f2 bm.Stats.total_us ];
  Report.print t;
  Printf.printf "dependency tracking and in-order completion are per stream (paper SIII-C)\n"

let ablations () =
  ablation_reordering ();
  ablation_counter_width ();
  ablation_launch_overhead ();
  ablation_policy ();
  ablation_streams ()

(* The sections main.exe prints, in paper order.  The shared app x mode
   matrix runs once, when the first section that needs it prints. *)
let sections () =
  let results = lazy (results ()) in
  let shared f () = f (Lazy.force results) in
  [
    ("table1", table1); ("table2", shared table2); ("fig9", shared fig9); ("fig10", shared fig10);
    ("fig11", shared fig11); ("fig12", fig12); ("fig13", shared fig13); ("table3", shared table3);
    ("fig14", fig14); ("area", area); ("ablations", ablations);
  ]
