(* Iterative stencil pipeline — the scientific-computing scenario from the
   paper's introduction: structured-grid computations whose inter-kernel
   dependencies are overlapped (each output block depends on the producer
   block and its neighbours), and which the paper's Fig. 8f / HS / PATH
   benchmarks exemplify.

   The demo shows (1) the extracted overlapped graphs, (2) how fine-grain
   dependency resolution lets blocks of iteration t+1 start while iteration
   t is still draining, and (3) the per-TB dependency-stall reduction.

   Run with: dune exec examples/stencil_pipeline.exe *)

open Blockmaestro

let iterations = 12
let n = 262144

let heat_app () =
  let d = Dsl.create "heat-pipeline" in
  let a = Dsl.buffer d ~elems:n and b = Dsl.buffer d ~elems:n in
  Dsl.h2d d a;
  let step = Templates.stencil1d ~name:"heat_step" ~halo:1 ~work:420 in
  let src = ref a and dst = ref b in
  for _ = 1 to iterations do
    Dsl.launch d step ~grid:(n / 256) ~block:256
      ~args:[ ("n", Command.Int n); ("IN", Command.Buf !src); ("OUT", Command.Buf !dst) ];
    let tmp = !src in
    src := !dst;
    dst := tmp
  done;
  Dsl.d2h d !src;
  Dsl.app d

let () =
  let app = heat_app () in
  let prep = Runner.prepare Mode.Producer_priority app in

  print_endline "=== Extracted inter-iteration dependency graphs ===";
  (match prep.Prep.p_launches.(1).Prep.li_relation with
  | Bipartite.Graph g ->
    Printf.printf "iteration pair: %d parent TBs, %d child TBs, max in-degree %d (%s)\n"
      g.Bipartite.n_parents g.Bipartite.n_children (Bipartite.max_in_degree g)
      (Pattern.name (Pattern.classify (Bipartite.Graph g)));
    Printf.printf "child TB 100 depends on parent TBs: %s\n"
      (String.concat ", "
         (List.init (Bipartite.in_degree g 100) (fun i -> string_of_int (Bipartite.parent g 100 i))))
  | Bipartite.Independent | Bipartite.Fully_connected -> print_endline "unexpected relation");

  print_endline "\n=== Overlap: how early does iteration t+1 start? ===";
  let show mode =
    let stats = Runner.simulate mode app in
    (* First start time of each kernel's TBs vs its predecessor's drain. *)
    let first_start = Array.map (Array.fold_left Float.min infinity) stats.Stats.tb_start in
    let last_finish = Array.map (Array.fold_left Float.max 0.0) stats.Stats.tb_finish in
    let overlaps = ref 0 in
    for k = 1 to iterations - 1 do
      if first_start.(k) < last_finish.(k - 1) then incr overlaps
    done;
    Printf.printf "%-22s total %8.2f us; %2d/%d iterations started before predecessor drained\n"
      (Mode.name mode) stats.Stats.total_us !overlaps (iterations - 1);
    stats
  in
  let base = show Mode.Baseline in
  let _ = show Mode.Prelaunch_only in
  let fine = show Mode.Producer_priority in
  let deep = show (Mode.Consumer_priority 4) in

  print_endline "\n=== Dependency-stall distribution (normalized to TB exec time) ===";
  let quart name stats =
    let s = Stats.stall_fractions stats in
    let q1, med, q3 = Report.quartiles s in
    Printf.printf "%-22s q1 %.2f  median %.2f  q3 %.2f\n" name q1 med q3
  in
  quart "baseline" base;
  quart "producer-priority" fine;
  quart "consumer-priority-4k" deep;

  Printf.printf "\nspeedup: producer %s, consumer-4k %s\n"
    (Report.pct (Stats.speedup ~baseline:base fine))
    (Report.pct (Stats.speedup ~baseline:base deep))
