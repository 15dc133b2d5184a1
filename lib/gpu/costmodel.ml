module Footprint = Bm_analysis.Footprint
module Rng = Bm_engine.Rng
open Bm_ptx.Types

type t = {
  tb_us : float array;
  tb_mem_requests : float array;
  avg_tb_us : float;
}

(* The launch-sequence-independent half of the model: dynamic instruction
   and memory-instruction counts (range-analyzed loop trips included), one
   row per distinct ctaid projection, plus the block's warp geometry.
   Everything here is a pure function of (analysis result, launch
   configuration), so it is what the launch-time cache memoizes per launch
   configuration; the jitter half below is also keyed on the kernel
   sequence number and [params].

   TB [tb]'s ctaid on [pr_grid], reduced mod [pr_radix] as in
   [Footprint.counts], is its row.  A launch whose counters read no ctaid
   has one row (radix 1); a decoded per-TB payload is its own grid
   [(pr_tbs, 1, 1)] and radix, so TB [tb] is row [tb]. *)
type profile = {
  pr_tbs : int;
  pr_grid : dim3;
  pr_radix : dim3;
  pr_insts : float array;  (* per row: dynamic instructions *)
  pr_mem : float array;    (* per row: dynamic memory instructions *)
  pr_warps : int;
  pr_warp_waves : float;
}

let row p tb =
  if Array.length p.pr_insts = 1 then 0
  else
    let g = p.pr_grid and r = p.pr_radix in
    let yz = tb / g.dx in
    (tb mod g.dx mod r.dx) + (r.dx * ((yz mod g.dy mod r.dy) + (r.dy * (yz / g.dy mod r.dz))))

let profile result (launch : Footprint.launch) =
  let threads = dim3_count launch.Footprint.block in
  let warps = max 1 ((threads + 31) / 32) in
  (* Four warp schedulers per SM: warps beyond four lanes serialize. *)
  let warp_waves = float_of_int (max 1 ((warps + 3) / 4)) in
  let c = Footprint.counts result launch in
  {
    pr_tbs = dim3_count launch.Footprint.grid;
    pr_grid = launch.Footprint.grid;
    pr_radix = c.Footprint.c_radix;
    pr_insts = c.Footprint.c_insts;
    pr_mem = c.Footprint.c_mem;
    pr_warps = warps;
    pr_warp_waves = warp_waves;
  }

let line n = { dx = n; dy = 1; dz = 1 }

let uniform_profile ~tbs ~insts ~mem ~warps ~warp_waves =
  {
    pr_tbs = tbs;
    pr_grid = line tbs;
    pr_radix = line 1;
    pr_insts = [| insts |];
    pr_mem = [| mem |];
    pr_warps = warps;
    pr_warp_waves = warp_waves;
  }

let uniform_counts p =
  if Array.length p.pr_insts = 1 then Some (p.pr_insts.(0), p.pr_mem.(0)) else None

let profile_warps p = p.pr_warps
let profile_warp_waves p = p.pr_warp_waves

(* Transparent per-TB view for persistence and tests: the mli keeps
   [profile] abstract so only the cache layers rebuild one, but a
   multi-row profile persists TB by TB. *)
type profile_repr = {
  prr_insts : float array;
  prr_mem : float array;
  prr_warps : int;
  prr_warp_waves : float;
}

let repr_of_profile p =
  {
    prr_insts = Array.init p.pr_tbs (fun tb -> p.pr_insts.(row p tb));
    prr_mem = Array.init p.pr_tbs (fun tb -> p.pr_mem.(row p tb));
    prr_warps = p.pr_warps;
    prr_warp_waves = p.pr_warp_waves;
  }

let profile_of_repr r =
  let n = Array.length r.prr_insts in
  if Array.length r.prr_mem <> n then
    invalid_arg "Costmodel.profile_of_repr: count arrays differ in length";
  {
    pr_tbs = n;
    pr_grid = line n;
    pr_radix = line n;
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

let profile_tbs p = p.pr_tbs

let same_profile a b =
  a.pr_tbs = b.pr_tbs && a.pr_warps = b.pr_warps && same_bits a.pr_warp_waves b.pr_warp_waves
  &&
  (* Two one-row profiles agree on every TB when they agree on TB 0. *)
  let n = if Array.length a.pr_insts = 1 && Array.length b.pr_insts = 1 then min 1 a.pr_tbs else a.pr_tbs in
  let rec from tb =
    tb >= n
    ||
    let ra = row a tb and rb = row b tb in
    same_bits a.pr_insts.(ra) b.pr_insts.(rb) && same_bits a.pr_mem.(ra) b.pr_mem.(rb) && from (tb + 1)
  in
  from 0

(* The cost of each row is one base time; the loop over TBs draws only the
   jitter. *)
let tb_us ps ~kernel_seq p =
  let n = p.pr_tbs in
  let base =
    Array.init (Array.length p.pr_insts) (fun r ->
        let cycles = (p.pr_insts.(r) *. ps.cpi) +. (p.pr_mem.(r) *. ps.mem_extra_cycles) in
        (* [Config.cycles_to_us], on the params' clock. *)
        cycles *. p.pr_warp_waves /. (ps.clock_ghz *. 1000.0))
  in
  let us = Array.make n 0.0 in
  let seed = ps.seed + kernel_seq and jf = ps.jitter_frac in
  for tb = 0 to n - 1 do
    let base_us = base.(row p tb) in
    let j = Rng.jitter seed tb in
    (* Heavy-tailed straggler factor: most TBs are near nominal, a few run
       much longer (data-dependent work).  The tail weight scales with the
       configured jitter so the default stays mild. *)
    let tail = 1.0 +. (6.0 *. jf *. (j ** 12.0)) in
    us.(tb) <- base_us *. (1.0 +. (jf *. ((2.0 *. j) -. 1.0))) *. tail
  done;
  us

(* A local float ref, not [Array.fold_left]: the polymorphic fold boxes
   every partial sum.  Left to right, so the same bits as any other sum in
   TB order. *)
let sum a =
  let s = ref 0.0 in
  for i = 0 to Array.length a - 1 do
    s := !s +. a.(i)
  done;
  !s

(* One coalesced request per warp per executed memory instruction.  The
   products stay inline: a float returned by a helper would be boxed per
   TB. *)
let mem_requests p =
  let w = float_of_int p.pr_warps in
  let s = ref 0.0 in
  for tb = 0 to p.pr_tbs - 1 do
    s := !s +. (p.pr_mem.(row p tb) *. w)
  done;
  !s

let of_profile ps ~kernel_seq p =
  let n = p.pr_tbs and w = float_of_int p.pr_warps in
  let tb_us = tb_us ps ~kernel_seq p in
  let tb_mem_requests =
    if Array.length p.pr_mem = 1 then Array.make n (p.pr_mem.(0) *. w)
    else begin
      let a = Array.make n 0.0 in
      for tb = 0 to n - 1 do
        a.(tb) <- p.pr_mem.(row p tb) *. w
      done;
      a
    end
  in
  { tb_us; tb_mem_requests; avg_tb_us = (if n = 0 then 0.0 else sum tb_us /. float_of_int n) }

(* [Sim.run] lowers (so sums) every launch per run. *)
let total_mem_requests t = sum t.tb_mem_requests
