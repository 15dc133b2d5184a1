(* Tests for the GPU machine model: config, allocator, commands, the TB
   cost model and statistics. *)

open Bm_gpu
module B = Bm_ptx.Builder
module T = Bm_ptx.Types
module Footprint = Bm_analysis.Footprint
module Symeval = Bm_analysis.Symeval

let test_config_slots () =
  let cfg = Config.titan_x_pascal in
  Alcotest.(check int) "28 SMs x 32 TBs" 896 (Config.total_tb_slots cfg);
  Alcotest.(check int) "64-parent cap" 64 cfg.Config.max_parent_degree;
  Alcotest.(check (float 1e-9)) "5us launch" 5.0 cfg.Config.kernel_launch_us;
  Alcotest.(check (float 1e-9)) "3us CDP launch" 3.0 cfg.Config.cdp_launch_us

let test_cycles_to_us () =
  let cfg = Config.titan_x_pascal in
  (* 1417 cycles at 1.417 GHz is one microsecond. *)
  Alcotest.(check (float 1e-6)) "1417 cycles = 1us" 1.0 (Config.cycles_to_us cfg 1417.0)

let test_alloc_disjoint () =
  let a = Alloc.create () in
  let b1 = Alloc.alloc a ~bytes:1000 in
  let b2 = Alloc.alloc a ~bytes:1000 in
  Alcotest.(check bool) "disjoint with padding" true
    (b2.Command.base > b1.Command.base + b1.Command.bytes + 65536);
  Alcotest.(check int) "ids increment" 1 b2.Command.buf_id;
  Alcotest.(check int) "count" 2 (Alloc.buffer_count a)

let test_alloc_invalid () =
  let a = Alloc.create () in
  Alcotest.check_raises "zero size" (Invalid_argument "Alloc.alloc: non-positive size") (fun () ->
      ignore (Alloc.alloc a ~bytes:0))

let prop_alloc_never_overlaps =
  QCheck2.Test.make ~name:"allocations never overlap" ~count:100
    QCheck2.Gen.(list_size (int_range 2 20) (int_range 1 100_000))
    (fun sizes ->
      let a = Alloc.create () in
      let bufs = List.map (fun bytes -> Alloc.alloc a ~bytes) sizes in
      let rec check = function
        | b1 :: (b2 :: _ as rest) ->
          b1.Command.base + b1.Command.bytes <= b2.Command.base && check rest
        | [ _ ] | [] -> true
      in
      check bufs)

let simple_spec () =
  let b = B.create "k" in
  let i = B.global_linear_index b in
  let n = B.param_u32 b "n" in
  B.guard_return_if_ge b i n;
  let p = B.param_ptr b "A" in
  let addr = B.elem_addr b ~base:p ~index:i ~scale:4 in
  let v = B.ld_global_f32 b ~addr ~offset:0 in
  B.st_global_f32 b ~addr ~offset:0 ~value:v;
  let kernel = B.finish b in
  {
    Command.kernel;
    grid = T.dim3 4;
    block = T.dim3 256;
    args = [ ("n", Command.Int 1024); ("A", Command.Buf { Command.buf_id = 0; base = 4096; bytes = 4096 }) ];
    stream = 0;
  }

let test_footprint_launch_resolution () =
  let spec = simple_spec () in
  let fl = Command.footprint_launch spec in
  Alcotest.(check (option int)) "scalar arg" (Some 1024) (List.assoc_opt "n" fl.Footprint.args);
  Alcotest.(check (option int)) "pointer arg resolves to base" (Some 4096)
    (List.assoc_opt "A" fl.Footprint.args)

let test_buffers_of_args () =
  let spec = simple_spec () in
  Alcotest.(check int) "one buffer" 1 (List.length (Command.buffers_of_args spec))

let test_launches () =
  let spec = simple_spec () in
  let app =
    {
      Command.app_name = "t";
      commands = [ Command.Kernel_launch spec; Command.Device_synchronize; Command.Kernel_launch spec ];
    }
  in
  Alcotest.(check int) "two launches" 2 (List.length (Command.launches app))

let cost_of ?(cfg = Config.titan_x_pascal) ~work ~grid ~block () =
  let k = Bm_workloads.Templates.map1 ~name:"cost_probe" ~work in
  let r = Symeval.analyze k in
  let launch =
    { Footprint.grid = T.dim3 grid; block = T.dim3 block;
      args = [ ("n", grid * block); ("IN", 1 lsl 20); ("OUT", 1 lsl 22) ] }
  in
  Costmodel.of_profile (Costmodel.params cfg) ~kernel_seq:0 (Costmodel.profile r launch)

let test_cost_monotone_in_work () =
  let light = cost_of ~work:10 ~grid:4 ~block:256 () in
  let heavy = cost_of ~work:1000 ~grid:4 ~block:256 () in
  Alcotest.(check bool) "more work, more time" true
    (heavy.Costmodel.avg_tb_us > 10.0 *. light.Costmodel.avg_tb_us)

let test_cost_warp_waves () =
  (* A 256-thread TB (8 warps, 4 schedulers) takes ~2x a 128-thread TB. *)
  let wide = cost_of ~work:500 ~grid:4 ~block:256 () in
  let narrow = cost_of ~work:500 ~grid:4 ~block:128 () in
  let ratio = wide.Costmodel.avg_tb_us /. narrow.Costmodel.avg_tb_us in
  Alcotest.(check bool) "about 2x" true (ratio > 1.7 && ratio < 2.3)

let test_cost_deterministic () =
  let a = cost_of ~work:100 ~grid:8 ~block:256 () in
  let b = cost_of ~work:100 ~grid:8 ~block:256 () in
  Alcotest.(check bool) "bit-identical" true (a.Costmodel.tb_us = b.Costmodel.tb_us)

let test_cost_jitter_bounded () =
  let cfg = { Config.titan_x_pascal with Config.jitter_frac = 0.1 } in
  let c = cost_of ~cfg ~work:100 ~grid:64 ~block:256 () in
  let avg = c.Costmodel.avg_tb_us in
  Array.iter
    (fun t ->
      Alcotest.(check bool) "within jitter + tail bounds" true (t > avg *. 0.8 && t < avg *. 1.8))
    c.Costmodel.tb_us

let test_cost_mem_requests () =
  let c = cost_of ~work:10 ~grid:4 ~block:256 () in
  (* map1: 1 load + 1 store per thread, 8 warps -> 16 requests per TB. *)
  Alcotest.(check (float 1e-6)) "coalesced per warp" 16.0 c.Costmodel.tb_mem_requests.(0)

(* --- cost profiles against the per-TB reference -------------------------- *)

let bits a = Array.map Int64.bits_of_float a

(* The cost model as it was written TB by TB: each TB's counts from the
   per-TB reference evaluation, its base cycles and its jitter, in TB
   order.  [Costmodel.of_profile] must give these columns bit for bit. *)
let model_cost (ps : Costmodel.params) ~kernel_seq r (fl : Footprint.launch) =
  let n = Footprint.tb_count fl in
  let threads = T.dim3_count fl.Footprint.block in
  let warps = max 1 ((threads + 31) / 32) in
  let warp_waves = float_of_int (max 1 ((warps + 3) / 4)) in
  let tb_mem = Array.make n 0.0 and tb_us = Array.make n 0.0 in
  let sum = ref 0.0 in
  for tb = 0 to n - 1 do
    let insts = Footprint.per_tb_insts r fl ~tb and mem = Footprint.per_tb_mem_insts r fl ~tb in
    let cycles = (insts *. ps.Costmodel.cpi) +. (mem *. ps.Costmodel.mem_extra_cycles) in
    let base_us = cycles *. warp_waves /. (ps.Costmodel.clock_ghz *. 1000.0) in
    let j = Bm_engine.Rng.jitter (ps.Costmodel.seed + kernel_seq) tb in
    let jf = ps.Costmodel.jitter_frac in
    let tail = 1.0 +. (6.0 *. jf *. (j ** 12.0)) in
    tb_us.(tb) <- base_us *. (1.0 +. (jf *. ((2.0 *. j) -. 1.0))) *. tail;
    tb_mem.(tb) <- mem *. float_of_int warps;
    sum := !sum +. tb_us.(tb)
  done;
  (tb_us, tb_mem, if n = 0 then 0.0 else !sum /. float_of_int n)

let jittery_params =
  Costmodel.params { Config.titan_x_pascal with Config.jitter_frac = 0.3; seed = 17 }

(* [Costmodel.profile] computes per ctaid projection; every TB must still
   get exactly what the per-TB reference evaluation gives it, and the
   columns [of_profile] expands from it exactly the model's. *)
let profile_matches_reference r (fl : Footprint.launch) =
  let profile = Costmodel.profile r fl in
  let p = Costmodel.repr_of_profile profile in
  let n = Footprint.tb_count fl in
  let columns_match ps kernel_seq =
    let c = Costmodel.of_profile ps ~kernel_seq profile in
    let tb_us, tb_mem, avg = model_cost ps ~kernel_seq r fl in
    bits c.Costmodel.tb_us = bits tb_us
    && bits c.Costmodel.tb_mem_requests = bits tb_mem
    && Int64.bits_of_float c.Costmodel.avg_tb_us = Int64.bits_of_float avg
    && bits (Costmodel.tb_us ps ~kernel_seq profile) = bits tb_us
    && Int64.bits_of_float (Costmodel.mem_requests profile)
       = Int64.bits_of_float (Costmodel.total_mem_requests c)
  in
  Costmodel.profile_tbs profile = n
  && bits p.Costmodel.prr_insts = bits (Array.init n (fun tb -> Footprint.per_tb_insts r fl ~tb))
  && bits p.Costmodel.prr_mem = bits (Array.init n (fun tb -> Footprint.per_tb_mem_insts r fl ~tb))
  && columns_match (Costmodel.params Config.titan_x_pascal) 0
  && columns_match jittery_params 5

(* Every distinct (kernel, launch configuration) of an app that differs
   from its reference. *)
let profile_mismatches (app : Command.app) =
  let seen = Hashtbl.create 64 in
  List.filter_map
    (fun (spec : Command.launch_spec) ->
      let fl = Command.footprint_launch spec in
      let key = (spec.Command.kernel.T.kname, fl) in
      if Hashtbl.mem seen key then None
      else begin
        Hashtbl.add seen key ();
        if profile_matches_reference (Symeval.analyze spec.Command.kernel) fl then None
        else Some spec.Command.kernel.T.kname
      end)
    (Command.launches app)

let test_profile_suite_reference () =
  List.iter
    (fun (name, gen) ->
      let app = gen () in
      Alcotest.(check (list string)) (name ^ " profiles bit-identical") [] (profile_mismatches app);
      (* No suite counter reads ctaid: every launch is costed from one row. *)
      List.iter
        (fun (spec : Command.launch_spec) ->
          let p = Costmodel.profile (Symeval.analyze spec.Command.kernel) (Command.footprint_launch spec) in
          Alcotest.(check bool) (name ^ " " ^ spec.Command.kernel.T.kname ^ ": one row") true
            (Costmodel.uniform_counts p <> None))
        (Command.launches app))
    Bm_workloads.Suite.all

let prop_profile_genapp_reference =
  QCheck2.Test.make ~name:"cost profile = per-TB reference on Genapp apps" ~count:40 ~long_factor:10
    QCheck2.Gen.(pair small_nat small_nat)
    (fun (seed, idx) ->
      let module Genapp = Bm_workloads.Genapp in
      let spec = Genapp.generate ~max_grid:48 (Bm_engine.Rng.create seed) idx in
      profile_mismatches (Genapp.build spec) = [])

(* Kernels whose loop trip counts read [ctaid], so TBs of one launch get
   different counts.  Each loop reads IN[counter]. *)
let ctaid_loop_kernel name bound_of =
  let b = B.create name in
  let inp = B.param_ptr b "IN" in
  let read i =
    let addr = B.elem_addr b ~base:inp ~index:i ~scale:4 in
    ignore (B.ld_global_f32 b ~addr ~offset:0)
  in
  bound_of b read;
  B.finish b

let cta b axis = B.mov_u32 b (T.Sreg (T.Ctaid axis))

let ctaid_kernels () =
  [
    ( "bound reads ctaid.x",
      ctaid_loop_kernel "cx" (fun b read ->
          let bound = B.add_u32 b (cta b T.X) (T.Imm 1) in
          B.loop b ~init:(T.Imm 0) ~bound ~step:1 read) );
    ( "bound reads ctaid.y",
      ctaid_loop_kernel "cy" (fun b read ->
          let bound = B.mad_lo_u32 b (cta b T.Y) (T.Imm 3) (T.Imm 2) in
          B.loop b ~init:(T.Imm 0) ~bound ~step:1 read) );
    ( "bound reads ctaid.z, nested",
      ctaid_loop_kernel "cz" (fun b read ->
          let bound = B.add_u32 b (cta b T.Z) (T.Imm 2) in
          B.loop b ~init:(T.Imm 0) ~bound:(T.Imm 3) ~step:1 (fun _ ->
              B.loop b ~init:(T.Imm 0) ~bound ~step:1 read)) );
    ( "inner init inherits ctaid.x through the outer counter",
      ctaid_loop_kernel "inherit" (fun b read ->
          let n = B.param_u32 b "n" in
          B.loop b ~init:(cta b T.X) ~bound:n ~step:1 (fun i ->
              B.loop b ~init:i ~bound:n ~step:1 read)) );
  ]

let test_profile_ctaid_reference () =
  let grids = [ ("2-D", { T.dx = 4; dy = 3; dz = 1 }); ("3-D", { T.dx = 3; dy = 2; dz = 4 }) ] in
  List.iter
    (fun (kname, k) ->
      let r = Symeval.analyze k in
      List.iter
        (fun (gname, grid) ->
          let fl = { Footprint.grid; block = T.dim3 64; args = [ ("IN", 1 lsl 20); ("n", 6) ] } in
          let label = Printf.sprintf "%s, %s grid" kname gname in
          Alcotest.(check bool) (label ^ ": bit-identical") true (profile_matches_reference r fl);
          let profile = Costmodel.profile r fl in
          let insts = (Costmodel.repr_of_profile profile).Costmodel.prr_insts in
          let varies = Array.exists (fun v -> v <> insts.(0)) insts in
          Alcotest.(check bool) (label ^ ": one row per projection, not one") varies
            (Costmodel.uniform_counts profile = None);
          (* On the 2-D grid every TB has ctaid.z = 0. *)
          Alcotest.(check bool) (label ^ ": counts vary by TB") true
            (varies || (kname = "bound reads ctaid.z, nested" && grid.T.dz = 1)))
        grids)
    (ctaid_kernels ())

(* for i < outer: for j = i .. n: read IN[j].  With outer = 0 the inner
   counter's init reads a zero-trip counter. *)
let triangular_kernel () =
  let b = B.create "triangular" in
  let outer = B.param_u32 b "outer" and n = B.param_u32 b "n" in
  let inp = B.param_ptr b "IN" in
  B.loop b ~init:(T.Imm 0) ~bound:outer ~step:1 (fun i ->
      B.loop b ~init:i ~bound:n ~step:1 (fun j ->
          let addr = B.elem_addr b ~base:inp ~index:j ~scale:4 in
          ignore (B.ld_global_f32 b ~addr ~offset:0)));
  B.finish b

let test_zero_trip_outer_loop () =
  let kernel = triangular_kernel () in
  let buf = { Command.buf_id = 0; base = 4096; bytes = 4096 } in
  let launch outer =
    {
      Command.kernel;
      grid = T.dim3 4;
      block = T.dim3 64;
      args = [ ("outer", Command.Int outer); ("n", Command.Int 16); ("IN", Command.Buf buf) ];
      stream = 0;
    }
  in
  let app =
    {
      Command.app_name = "triangular";
      commands = [ Command.Malloc buf; Command.Kernel_launch (launch 0); Command.Kernel_launch (launch 3) ];
    }
  in
  let prep = Bm_maestro.Prep.prepare Config.titan_x_pascal app in
  Alcotest.(check int) "both launches prepared" 2 (Array.length prep.Bm_maestro.Prep.p_launches);
  let r = Symeval.analyze kernel in
  let fl outer = Command.footprint_launch (launch outer) in
  Alcotest.(check (float 0.0)) "zero-trip nest executes no loads" 0.0
    (Footprint.per_tb_mem_insts r (fl 0) ~tb:0);
  Alcotest.(check bool) "outer = 0 matches the reference" true (profile_matches_reference r (fl 0));
  Alcotest.(check bool) "outer = 3 matches the reference" true (profile_matches_reference r (fl 3))

let test_stats_helpers () =
  let s =
    {
      Stats.total_us = 10.0;
      busy_us = 5.0;
      tb_dep_ready = [| [| 0.0; 1.0 |] |];
      tb_start = [| [| 2.0; 1.0 |] |];
      tb_finish = [| [| 4.0; 3.0 |] |];
      avg_concurrency = 2.0;
      base_mem_requests = 100.0;
      dep_mem_requests = 2.0;
    }
  in
  let stalls = Stats.stall_fractions s in
  Alcotest.(check int) "two stalls" 2 (Array.length stalls);
  Alcotest.(check (float 1e-9)) "stall of tb0" 1.0 stalls.(0);
  Alcotest.(check (float 1e-9)) "no stall for tb1" 0.0 stalls.(1);
  Alcotest.(check (float 1e-9)) "overhead pct" 2.0 (Stats.mem_overhead_pct s);
  Alcotest.(check (float 1e-9)) "busy concurrency" 4.0 (Stats.busy_concurrency s);
  let faster = { s with Stats.total_us = 5.0 } in
  Alcotest.(check (float 1e-9)) "speedup" 2.0 (Stats.speedup ~baseline:s faster)

let suite =
  [
    Alcotest.test_case "config: machine shape" `Quick test_config_slots;
    Alcotest.test_case "config: clock conversion" `Quick test_cycles_to_us;
    Alcotest.test_case "alloc: disjoint padded" `Quick test_alloc_disjoint;
    Alcotest.test_case "alloc: invalid size" `Quick test_alloc_invalid;
    Alcotest.test_case "command: arg resolution" `Quick test_footprint_launch_resolution;
    Alcotest.test_case "command: buffers of args" `Quick test_buffers_of_args;
    Alcotest.test_case "command: launches" `Quick test_launches;
    Alcotest.test_case "cost: monotone in work" `Quick test_cost_monotone_in_work;
    Alcotest.test_case "cost: warp waves" `Quick test_cost_warp_waves;
    Alcotest.test_case "cost: deterministic" `Quick test_cost_deterministic;
    Alcotest.test_case "cost: jitter bounded" `Quick test_cost_jitter_bounded;
    Alcotest.test_case "cost: memory requests" `Quick test_cost_mem_requests;
    Alcotest.test_case "cost: suite profiles = per-TB reference" `Quick test_profile_suite_reference;
    QCheck_alcotest.to_alcotest prop_profile_genapp_reference;
    Alcotest.test_case "cost: ctaid-dependent trips = reference" `Quick test_profile_ctaid_reference;
    Alcotest.test_case "cost: zero-trip outer loop prepares" `Quick test_zero_trip_outer_loop;
    Alcotest.test_case "stats: helpers" `Quick test_stats_helpers;
    QCheck_alcotest.to_alcotest prop_alloc_never_overlaps;
  ]
