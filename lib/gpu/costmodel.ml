module Footprint = Bm_analysis.Footprint
module Rng = Bm_engine.Rng

type t = {
  tb_us : float array;
  tb_mem_requests : float array;
  avg_tb_us : float;
}

(* The launch-sequence-independent half of the model: per-TB dynamic
   instruction and memory-instruction counts (range-analyzed loop trips
   included) plus the block's warp geometry.  Everything here is a pure
   function of (analysis result, launch configuration), so it is what the
   launch-time cache memoizes per launch configuration; the jitter half
   below is also keyed on the kernel sequence number and [params]. *)
type profile = {
  pr_insts : float array;  (* per-TB dynamic instructions *)
  pr_mem : float array;    (* per-TB dynamic memory instructions *)
  pr_warps : int;
  pr_warp_waves : float;
}

let profile result (launch : Footprint.launch) =
  let threads = Bm_ptx.Types.dim3_count launch.Footprint.block in
  let warps = max 1 ((threads + 31) / 32) in
  (* Four warp schedulers per SM: warps beyond four lanes serialize. *)
  let warp_waves = float_of_int (max 1 ((warps + 3) / 4)) in
  let insts, mem = Footprint.per_tb_counts result launch in
  { pr_insts = insts; pr_mem = mem; pr_warps = warps; pr_warp_waves = warp_waves }

(* Transparent view for the persistent analysis store: the mli keeps
   [profile] abstract so only the cache layers rebuild one, but the store
   must serialize it bit-exactly. *)
type profile_repr = {
  prr_insts : float array;
  prr_mem : float array;
  prr_warps : int;
  prr_warp_waves : float;
}

let repr_of_profile p =
  {
    prr_insts = Array.copy p.pr_insts;
    prr_mem = Array.copy p.pr_mem;
    prr_warps = p.pr_warps;
    prr_warp_waves = p.pr_warp_waves;
  }

let profile_of_repr r =
  {
    pr_insts = Array.copy r.prr_insts;
    pr_mem = Array.copy r.prr_mem;
    pr_warps = r.prr_warps;
    pr_warp_waves = r.prr_warp_waves;
  }

(* The five configuration fields the expansion reads, and nothing else:
   a cost column is a pure function of (profile, kernel seq, params), so
   this is what the launch-time cache keys cost columns on and what a
   captured graph persists. *)
type params = {
  seed : int;
  jitter_frac : float;
  cpi : float;
  mem_extra_cycles : float;
  clock_ghz : float;
}

let params (cfg : Config.t) =
  {
    seed = cfg.Config.seed;
    jitter_frac = cfg.Config.jitter_frac;
    cpi = cfg.Config.cpi;
    mem_extra_cycles = cfg.Config.mem_extra_cycles;
    clock_ghz = cfg.Config.clock_ghz;
  }

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_params a b =
  a.seed = b.seed && same_bits a.jitter_frac b.jitter_frac && same_bits a.cpi b.cpi
  && same_bits a.mem_extra_cycles b.mem_extra_cycles && same_bits a.clock_ghz b.clock_ghz

let profile_tbs p = Array.length p.pr_insts

let same_profile a b =
  let same x y = Array.length x = Array.length y && Array.for_all2 same_bits x y in
  same a.pr_insts b.pr_insts && same a.pr_mem b.pr_mem && a.pr_warps = b.pr_warps
  && same_bits a.pr_warp_waves b.pr_warp_waves

let of_profile ps ~kernel_seq p =
  let n = Array.length p.pr_insts in
  let tb_us = Array.make n 0.0 in
  let tb_mem = Array.make n 0.0 in
  let sum = ref 0.0 in
  for tb = 0 to n - 1 do
    let insts = p.pr_insts.(tb) in
    let mem = p.pr_mem.(tb) in
    let cycles = (insts *. ps.cpi) +. (mem *. ps.mem_extra_cycles) in
    (* [Config.cycles_to_us], on the params' clock. *)
    let base_us = cycles *. p.pr_warp_waves /. (ps.clock_ghz *. 1000.0) in
    let j = Rng.jitter (ps.seed + kernel_seq) tb in
    (* Heavy-tailed straggler factor: most TBs are near nominal, a few run
       much longer (data-dependent work).  The tail weight scales with the
       configured jitter so the default stays mild. *)
    let tail = 1.0 +. (6.0 *. ps.jitter_frac *. (j ** 12.0)) in
    let jittered = base_us *. (1.0 +. (ps.jitter_frac *. ((2.0 *. j) -. 1.0))) *. tail in
    tb_us.(tb) <- jittered;
    (* One coalesced request per warp per executed memory instruction. *)
    tb_mem.(tb) <- mem *. float_of_int p.pr_warps;
    sum := !sum +. jittered
  done;
  { tb_us; tb_mem_requests = tb_mem; avg_tb_us = (if n = 0 then 0.0 else !sum /. float_of_int n) }

(* A local float ref, not [Array.fold_left]: the polymorphic fold boxes
   every partial sum, and [Sim.run] lowers (so sums) every launch per run.
   Same left-to-right order, so the same bits. *)
let total_mem_requests t =
  let a = t.tb_mem_requests in
  let sum = ref 0.0 in
  for i = 0 to Array.length a - 1 do
    sum := !sum +. a.(i)
  done;
  !sum
