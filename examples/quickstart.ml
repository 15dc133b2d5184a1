(* Quickstart: the whole BlockMaestro pipeline on a two-kernel program.

   We hand-build two dependent CUDA-style kernels with the PTX builder
   (square then offset of a vector), print the generated PTX, run the
   kernel-launch-time analysis to extract the inter-kernel thread-block
   dependency graph, and compare execution-model timings.

   Run with: dune exec examples/quickstart.exe *)

open Blockmaestro

(* OUT[i] = IN[i]^2 — what nvcc would emit for a simple elementwise kernel. *)
let square_kernel =
  let b = Builder.create "square" in
  let i = Builder.global_linear_index b in
  let n = Builder.param_u32 b "n" in
  Builder.guard_return_if_ge b i n;
  let src = Builder.param_ptr b "IN" and dst = Builder.param_ptr b "OUT" in
  let addr_in = Builder.elem_addr b ~base:src ~index:i ~scale:4 in
  let x = Builder.ld_global_f32 b ~addr:addr_in ~offset:0 in
  let sq = Builder.fcompute b 64 [ x ] in
  let addr_out = Builder.elem_addr b ~base:dst ~index:i ~scale:4 in
  Builder.st_global_f32 b ~addr:addr_out ~offset:0 ~value:sq;
  Builder.finish b

(* OUT[i] = IN[i] + IN[max(i-1, 0)] — each TB also reads its left
   neighbour's data, producing an overlapped dependency pattern. *)
let blur_kernel = Templates.wave ~name:"blur" ~halo:1 ~work:64

let () =
  print_endline "=== 1. The kernels (generated PTX) ===";
  print_string (Printer.kernel_to_string square_kernel);
  print_newline ();

  (* Host program: allocate, upload, launch both kernels, download. *)
  let d = Dsl.create "quickstart" in
  let n = 262144 in
  let input = Dsl.buffer d ~elems:n in
  let squared = Dsl.buffer d ~elems:n in
  let blurred = Dsl.buffer d ~elems:n in
  Dsl.h2d d input;
  Dsl.launch d square_kernel ~grid:(n / 256) ~block:256
    ~args:[ ("n", Command.Int n); ("IN", Command.Buf input); ("OUT", Command.Buf squared) ];
  Dsl.launch d blur_kernel ~grid:(n / 256) ~block:256
    ~args:
      [
        ("n", Command.Int n); ("smax", Command.Int (n - 1)); ("IN", Command.Buf squared);
        ("OUT", Command.Buf blurred);
      ];
  Dsl.d2h d blurred;
  let app = Dsl.app d in

  print_endline "=== 2. Kernel-launch-time analysis (Algorithm 1) ===";
  (match (Symeval.analyze square_kernel).Symeval.nonstatic_reason with
  | None -> print_endline "square: all global addresses are static"
  | Some reason -> Printf.printf "square: non-static (%s)\n" reason);
  let prep = Runner.prepare Mode.Producer_priority app in
  Array.iter
    (fun (li : Prep.launch_info) ->
      Printf.printf "kernel %d (%s): %d TBs, relation with predecessor: %s\n" li.Prep.li_seq
        li.Prep.li_spec.Command.kernel.Ptx.kname li.Prep.li_tbs
        (Pattern.name li.Prep.li_pattern))
    prep.Prep.p_launches;

  print_endline "\n=== 3. Execution models ===";
  List.iter
    (fun (mode, stats) ->
      Printf.printf "%-22s total %8.2f us  avg concurrency %7.1f\n" (Mode.name mode)
        stats.Stats.total_us stats.Stats.avg_concurrency)
    (Runner.simulate_all app);

  let speedups = Runner.speedups ~modes:[ Mode.Producer_priority ] app in
  Printf.printf "\nBlockMaestro (producer priority) speedup over baseline: %s\n"
    (Report.pct (List.assoc Mode.Producer_priority speedups))
