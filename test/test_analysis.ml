(* Tests for Algorithm 1: the static/non-static verdict, symbolic
   evaluation and per-thread-block value-range footprints. *)

open Bm_ptx
module T = Types
module B = Builder
module Symeval = Bm_analysis.Symeval
module Footprint = Bm_analysis.Footprint
module I = Bm_analysis.Sinterval

let vecadd = Test_ptx.vecadd
let matvec_loop = Test_ptx.matvec_loop

let indirect_kernel () =
  (* y[i] = x[idx[i]] — the address of the second load derives from the
     result of the first: Algorithm 1 must flag it non-static. *)
  let b = B.create "gather" in
  let i = B.global_linear_index b in
  let idx_ptr = B.param_ptr b "IDX" and x_ptr = B.param_ptr b "X" and y_ptr = B.param_ptr b "Y" in
  let addr_idx = B.elem_addr b ~base:idx_ptr ~index:i ~scale:4 in
  let v = B.ld_global_indirect_f32 b ~index_addr:addr_idx ~base:x_ptr in
  let addr_y = B.elem_addr b ~base:y_ptr ~index:i ~scale:4 in
  B.st_global_f32 b ~addr:addr_y ~offset:0 ~value:v;
  B.finish b

(* Algorithm 1's verdict is [Symeval.analyze]'s [static] and
   [nonstatic_reason]; the "slice:" cases pin it on the same kernels. *)
let test_slice_static () =
  Alcotest.(check bool) "vecadd is static" true (Symeval.analyze (vecadd ())).Symeval.static

let test_slice_nonstatic () =
  let r = Symeval.analyze (indirect_kernel ()) in
  Alcotest.(check bool) "gather is non-static" false r.Symeval.static;
  match r.Symeval.nonstatic_reason with
  | None -> Alcotest.fail "gather should carry a non-static reason"
  | Some reason -> Alcotest.(check string) "reason names the global load" "global load" reason

let test_slice_access_count () =
  let r = Symeval.analyze (vecadd ()) in
  Alcotest.(check int) "three global accesses" 3
    (List.length (List.sort_uniq compare (List.map (fun a -> a.Symeval.ainstr) r.Symeval.accesses)))

let test_symeval_vecadd () =
  let r = Symeval.analyze (vecadd ()) in
  Alcotest.(check bool) "static" true r.Symeval.static;
  let reads = List.filter (fun a -> a.Symeval.akind = `Read) r.Symeval.accesses in
  let writes = List.filter (fun a -> a.Symeval.akind = `Write) r.Symeval.accesses in
  Alcotest.(check int) "2 reads" 2 (List.length reads);
  Alcotest.(check int) "1 write" 1 (List.length writes);
  (* Every static address mentions exactly one pointer parameter. *)
  List.iter
    (fun a ->
      Alcotest.(check int)
        (Printf.sprintf "one param in %s" (Bm_analysis.Sym.to_string a.Symeval.aexpr))
        1
        (List.length (Bm_analysis.Sym.params a.Symeval.aexpr)))
    r.Symeval.accesses

let test_symeval_indirect () =
  let r = Symeval.analyze (indirect_kernel ()) in
  Alcotest.(check bool) "non-static" false r.Symeval.static;
  match r.Symeval.nonstatic_reason with
  | Some _ -> ()
  | None -> Alcotest.fail "expected a non-static reason"

let test_symeval_loop_counter () =
  let r = Symeval.analyze (matvec_loop ()) in
  Alcotest.(check bool) "static" true r.Symeval.static;
  Alcotest.(check int) "one recognized loop" 1 (List.length r.Symeval.counters);
  let c = List.hd r.Symeval.counters in
  Alcotest.(check int) "unit step" 1 c.Symeval.step

let launch_1d ?(block = 256) ?(args = []) grid =
  { Footprint.grid = T.dim3 grid; block = T.dim3 block; args }

(* Standard argument binding: n elements of 4 bytes per array, arrays at
   well-separated bases. *)
let vecadd_args n = [ ("n", n); ("A", 0x10000); ("B", 0x20000); ("C", 0x30000) ]

let test_footprint_vecadd () =
  let n = 1024 in
  let launch = launch_1d ~args:(vecadd_args n) 4 in
  match Footprint.analyze (vecadd ()) launch with
  | Footprint.Conservative r -> Alcotest.fail ("unexpectedly conservative: " ^ r)
  | Footprint.Per_tb fps ->
    Alcotest.(check int) "4 TBs" 4 (Array.length fps);
    (* TB 1 reads A[256..511] and B[256..511], writes C[256..511]. *)
    let fp = fps.(1) in
    Alcotest.(check int) "2 read intervals" 2 (List.length fp.Footprint.freads);
    let covers base lst =
      List.exists (fun i -> I.mem (base + (256 * 4)) i && I.mem (base + (511 * 4)) i) lst
    in
    Alcotest.(check bool) "reads A block 1" true (covers 0x10000 fp.Footprint.freads);
    Alcotest.(check bool) "reads B block 1" true (covers 0x20000 fp.Footprint.freads);
    Alcotest.(check bool) "writes C block 1" true (covers 0x30000 fp.Footprint.fwrites);
    (* TB 1 does not touch TB 0's slice of C. *)
    let w = List.hd fp.Footprint.fwrites in
    Alcotest.(check bool) "write disjoint from block 0" false (I.mem 0x30000 w)

let test_footprint_disjoint_blocks () =
  let n = 2048 in
  let launch = launch_1d ~args:(vecadd_args n) 8 in
  match Footprint.analyze (vecadd ()) launch with
  | Footprint.Conservative r -> Alcotest.fail r
  | Footprint.Per_tb fps ->
    (* Writes of distinct TBs never intersect for an elementwise kernel. *)
    for i = 0 to 7 do
      for j = i + 1 to 7 do
        List.iter
          (fun wi ->
            List.iter
              (fun wj ->
                Alcotest.(check bool)
                  (Printf.sprintf "TB%d and TB%d writes disjoint" i j)
                  false (I.intersects wi wj))
              fps.(j).Footprint.fwrites)
          fps.(i).Footprint.fwrites
      done
    done

let test_footprint_conservative () =
  let launch =
    launch_1d ~args:[ ("IDX", 0x1000); ("X", 0x2000); ("Y", 0x3000) ] 4
  in
  match Footprint.analyze (indirect_kernel ()) launch with
  | Footprint.Conservative _ -> ()
  | Footprint.Per_tb _ -> Alcotest.fail "gather must be conservative"

let test_footprint_matvec () =
  (* Row i of A has kdim elements; thread i reads the whole X vector. *)
  let kdim = 64 in
  let args = [ ("n", 256); ("kdim", kdim); ("A", 0x100000); ("X", 0x200000); ("Y", 0x300000) ] in
  let launch = launch_1d ~block:64 ~args 4 in
  match Footprint.analyze (matvec_loop ()) launch with
  | Footprint.Conservative r -> Alcotest.fail ("conservative: " ^ r)
  | Footprint.Per_tb fps ->
    let fp = fps.(0) in
    (* Some read interval covers all of X. *)
    let covers_x =
      List.exists
        (fun i -> I.mem 0x200000 i && I.mem (0x200000 + ((kdim - 1) * 4)) i)
        fp.Footprint.freads
    in
    Alcotest.(check bool) "reads all of X" true covers_x;
    (* TB 0 (threads 0..63) reads A rows 0..63 = bytes [A, A + 64*64*4). *)
    let covers_a =
      List.exists
        (fun i -> I.mem 0x100000 i && I.mem (0x100000 + (((64 * kdim) - 1) * 4)) i)
        fp.Footprint.freads
    in
    Alcotest.(check bool) "reads its rows of A" true covers_a

let test_per_tb_insts_loop_scaling () =
  let r = Symeval.analyze (matvec_loop ()) in
  let args k = [ ("n", 256); ("kdim", k); ("A", 0); ("X", 1 lsl 20); ("Y", 1 lsl 21) ] in
  let small = Footprint.per_tb_insts r (launch_1d ~block:64 ~args:(args 8) 4) ~tb:0 in
  let big = Footprint.per_tb_insts r (launch_1d ~block:64 ~args:(args 64) 4) ~tb:0 in
  Alcotest.(check bool) "8x loop -> more dynamic instructions" true (big > small *. 4.0)

let test_whole_footprint () =
  let n = 1024 in
  let launch = launch_1d ~args:(vecadd_args n) 4 in
  match Footprint.analyze (vecadd ()) launch with
  | Footprint.Conservative r -> Alcotest.fail r
  | Footprint.Per_tb fps ->
    let w = Footprint.whole fps in
    let covers base last lst = List.exists (fun i -> I.mem base i && I.mem last i) lst in
    Alcotest.(check bool) "whole reads cover A" true
      (covers 0x10000 (0x10000 + ((n - 1) * 4)) w.Footprint.freads);
    Alcotest.(check bool) "whole writes cover C" true
      (covers 0x30000 (0x30000 + ((n - 1) * 4)) w.Footprint.fwrites)

(* Property: the footprint over-approximates a direct concrete enumeration
   of the addresses an elementwise kernel touches. *)
let prop_footprint_sound =
  QCheck2.Test.make ~name:"elementwise footprint covers concrete addresses" ~count:50
    QCheck2.Gen.(pair (int_range 1 8) (int_range 1 5))
    (fun (grid, scale_pow) ->
      let scale = 1 lsl scale_pow in
      let b = B.create "ew" in
      let i = B.global_linear_index b in
      let p = B.param_ptr b "A" in
      let addr = B.elem_addr b ~base:p ~index:i ~scale in
      let v = B.ld_global_f32 b ~addr ~offset:0 in
      B.st_global_f32 b ~addr ~offset:0 ~value:v;
      let k = B.finish b in
      let block = 32 in
      let launch = { Footprint.grid = T.dim3 grid; block = T.dim3 block; args = [ ("A", 4096) ] } in
      match Footprint.analyze k launch with
      | Footprint.Conservative _ -> false
      | Footprint.Per_tb fps ->
        (* Every thread's concrete address must be in its TB's read set. *)
        let ok = ref true in
        for tb = 0 to grid - 1 do
          for t = 0 to block - 1 do
            let concrete = 4096 + (((tb * block) + t) * scale) in
            if not (List.exists (I.mem concrete) fps.(tb).Footprint.freads) then ok := false
          done
        done;
        !ok)

let suite =
  [
    Alcotest.test_case "slice: static vecadd" `Quick test_slice_static;
    Alcotest.test_case "slice: non-static gather" `Quick test_slice_nonstatic;
    Alcotest.test_case "slice: access enumeration" `Quick test_slice_access_count;
    Alcotest.test_case "symeval: vecadd accesses" `Quick test_symeval_vecadd;
    Alcotest.test_case "symeval: indirect flagged" `Quick test_symeval_indirect;
    Alcotest.test_case "symeval: loop counter" `Quick test_symeval_loop_counter;
    Alcotest.test_case "footprint: vecadd per-TB" `Quick test_footprint_vecadd;
    Alcotest.test_case "footprint: disjoint blocks" `Quick test_footprint_disjoint_blocks;
    Alcotest.test_case "footprint: conservative fallback" `Quick test_footprint_conservative;
    Alcotest.test_case "footprint: matvec loop ranges" `Quick test_footprint_matvec;
    Alcotest.test_case "footprint: dyn insts scale with loops" `Quick test_per_tb_insts_loop_scaling;
    Alcotest.test_case "footprint: whole-kernel join" `Quick test_whole_footprint;
    QCheck_alcotest.to_alcotest prop_footprint_sound;
  ]

(* --- guard refinement ------------------------------------------------ *)

let test_guard_recognized () =
  let r = Symeval.analyze (vecadd ()) in
  Alcotest.(check int) "one bounds check" 1 (List.length r.Symeval.guards);
  let g = List.hd r.Symeval.guards in
  Alcotest.(check bool) "bound is the n parameter" true
    (g.Symeval.g_bound = Bm_analysis.Sym.Param "n")

let test_guard_clamps_tail_tb () =
  (* n = 900 with 4 blocks of 256: the last TB covers only 132 elements. *)
  let n = 900 in
  let launch = launch_1d ~args:(vecadd_args n) 4 in
  match Footprint.analyze (vecadd ()) launch with
  | Footprint.Conservative r -> Alcotest.fail r
  | Footprint.Per_tb fps ->
    let w = List.hd fps.(3).Footprint.fwrites in
    Alcotest.(check bool) "covers its first element" true (I.mem (0x30000 + (768 * 4)) w);
    Alcotest.(check bool) "covers its last valid element" true (I.mem (0x30000 + (899 * 4)) w);
    Alcotest.(check bool) "does not cover past n" false (I.mem (0x30000 + (900 * 4)) w)

let test_guard_empties_dead_tb () =
  (* n = 512 with 4 blocks: TBs 2 and 3 are entirely past the bound. *)
  let n = 512 in
  let launch = launch_1d ~args:(vecadd_args n) 4 in
  match Footprint.analyze (vecadd ()) launch with
  | Footprint.Conservative r -> Alcotest.fail r
  | Footprint.Per_tb fps ->
    Alcotest.(check int) "TB2 reads nothing" 0 (List.length fps.(2).Footprint.freads);
    Alcotest.(check int) "TB3 writes nothing" 0 (List.length fps.(3).Footprint.fwrites);
    Alcotest.(check bool) "TB1 still active" true (fps.(1).Footprint.fwrites <> [])

let test_guard_tightens_relations () =
  (* A guarded chain with a padded grid must not create edges from dead
     parent TBs. *)
  let parent = Footprint.analyze (vecadd ()) (launch_1d ~args:(vecadd_args 512) 4) in
  let child_args = [ ("n", 512); ("A", 0x30000); ("B", 0x20000); ("C", 0x40000) ] in
  let child = Footprint.analyze (vecadd ()) (launch_1d ~args:child_args 4) in
  match Bm_depgraph.Bipartite.relate parent child with
  | Bm_depgraph.Bipartite.Graph g ->
    Alcotest.(check int) "dead child TBs have no parents" 0
      (Array.length g.Bm_depgraph.Bipartite.parents_of.(3));
    Alcotest.(check int) "live child TBs depend 1-to-1" 1
      (Array.length g.Bm_depgraph.Bipartite.parents_of.(0))
  | Bm_depgraph.Bipartite.Independent | Bm_depgraph.Bipartite.Fully_connected ->
    Alcotest.fail "expected graph"

(* --- parsing real PTX text (the JIT entry path) ----------------------- *)

let golden_ptx =
  {|
.visible .entry saxpy(
  .param .u32 n,
  .param .f32 alpha,
  .param .u64 .ptr X,
  .param .u64 .ptr Y
)
{
  mov.u32 %r1, %ctaid.x;
  mov.u32 %r2, %ntid.x;
  mov.u32 %r3, %tid.x;
  mad.lo.s32 %r4, %r1, %r2, %r3;
  ld.param.u32 %r5, [n];
  setp.ge.s32 %p1, %r4, %r5;
  @%p1 bra DONE;
  ld.param.u64 %rd1, [X];
  cvta.to.global.u64 %rd2, %rd1;
  ld.param.u64 %rd3, [Y];
  cvta.to.global.u64 %rd4, %rd3;
  mul.wide.s32 %rd5, %r4, 4;
  add.s64 %rd6, %rd2, %rd5;
  add.s64 %rd7, %rd4, %rd5;
  ld.global.f32 %f1, [%rd6];
  ld.global.f32 %f2, [%rd7];
  fma.rn.f32 %f3, %f1, %f2, %f2;
  st.global.f32 [%rd7], %f3;
DONE:
  ret;
}
|}

let test_golden_ptx_pipeline () =
  (* Full pipeline from PTX *text*, as the JIT would see it. *)
  let k = Bm_ptx.Parser.kernel_of_string golden_ptx in
  Alcotest.(check string) "name" "saxpy" k.T.kname;
  Alcotest.(check int) "params" 4 (List.length k.T.kparams);
  let r = Symeval.analyze k in
  Alcotest.(check bool) "static" true r.Symeval.static;
  Alcotest.(check int) "guard found in hand-written PTX" 1 (List.length r.Symeval.guards);
  let launch =
    { Footprint.grid = T.dim3 4; block = T.dim3 256;
      args = [ ("n", 1000); ("alpha", 0); ("X", 0x10000); ("Y", 0x20000) ] }
  in
  match Footprint.of_result r launch with
  | Footprint.Conservative reason -> Alcotest.fail reason
  | Footprint.Per_tb fps ->
    (* Y is read and written at the same indices: TB 3 clamped to n. *)
    let w = List.hd fps.(3).Footprint.fwrites in
    Alcotest.(check bool) "write covers last valid element" true (I.mem (0x20000 + (999 * 4)) w);
    Alcotest.(check bool) "write clamped at n" false (I.mem (0x20000 + (1000 * 4)) w)

let guard_suite =
  [
    Alcotest.test_case "guards: recognized" `Quick test_guard_recognized;
    Alcotest.test_case "guards: tail TB clamped" `Quick test_guard_clamps_tail_tb;
    Alcotest.test_case "guards: dead TBs empty" `Quick test_guard_empties_dead_tb;
    Alcotest.test_case "guards: relations tightened" `Quick test_guard_tightens_relations;
    Alcotest.test_case "golden PTX: saxpy pipeline" `Quick test_golden_ptx_pipeline;
  ]

let suite = suite @ guard_suite

(* --- nested loops ------------------------------------------------------ *)

let nested_loop_kernel () =
  (* for i0 < outer: for i1 < inner: read IN[i0*inner + i1]; one write. *)
  let b = B.create "nested" in
  let gid = B.global_linear_index b in
  let outer = B.param_u32 b "outer" in
  let inner = B.param_u32 b "inner" in
  let inp = B.param_ptr b "IN" and out = B.param_ptr b "OUT" in
  B.loop b ~init:(T.Imm 0) ~bound:outer ~step:1 (fun i0 ->
      B.loop b ~init:(T.Imm 0) ~bound:inner ~step:1 (fun i1 ->
          let idx = B.mad_lo_u32 b i0 inner i1 in
          let addr = B.elem_addr b ~base:inp ~index:idx ~scale:4 in
          ignore (B.ld_global_f32 b ~addr ~offset:0)));
  let waddr = B.elem_addr b ~base:out ~index:gid ~scale:4 in
  let z = B.fresh_f b in
  B.emit b (T.I { op = T.Mov; ty = T.F32; dst = Some z; srcs = [ T.Fimm 0.0 ]; offset = 0; guard = None });
  B.st_global_f32 b ~addr:waddr ~offset:0 ~value:z;
  B.finish b

let test_nested_loops_recognized () =
  let r = Symeval.analyze (nested_loop_kernel ()) in
  Alcotest.(check int) "two counters" 2 (List.length r.Symeval.counters);
  Alcotest.(check bool) "static" true r.Symeval.static

let test_nested_loops_footprint () =
  let k = nested_loop_kernel () in
  let launch =
    { Footprint.grid = T.dim3 2; block = T.dim3 32;
      args = [ ("outer", 4); ("inner", 8); ("IN", 0x1000); ("OUT", 0x9000) ] }
  in
  match Footprint.analyze k launch with
  | Footprint.Conservative r -> Alcotest.fail r
  | Footprint.Per_tb fps ->
    (* The doubly-nested read covers IN[0 .. outer*inner-1]. *)
    let rd = List.hd fps.(0).Footprint.freads in
    Alcotest.(check bool) "covers first" true (I.mem 0x1000 rd);
    Alcotest.(check bool) "covers last" true (I.mem (0x1000 + (31 * 4)) rd);
    Alcotest.(check bool) "stops at outer*inner" false (I.mem (0x1000 + (32 * 4) + 4) rd)

let test_nested_loops_insts () =
  let r = Symeval.analyze (nested_loop_kernel ()) in
  let launch inner =
    { Footprint.grid = T.dim3 2; block = T.dim3 32;
      args = [ ("outer", 4); ("inner", inner); ("IN", 0x1000); ("OUT", 0x9000) ] }
  in
  let small = Footprint.per_tb_insts r (launch 2) ~tb:0 in
  let big = Footprint.per_tb_insts r (launch 16) ~tb:0 in
  Alcotest.(check bool) "inner trip multiplies" true (big > 4.0 *. small)

let test_downward_loop () =
  (* for (i = hi-1; i >= 0; i--) read IN[i]: a negative-step loop. *)
  let b = B.create "down" in
  let hi = B.param_u32 b "hi" in
  let inp = B.param_ptr b "IN" in
  let start = B.sub_u32 b hi (T.Imm 1) in
  B.loop b ~init:start ~bound:(T.Imm (-1)) ~step:(-1) (fun i ->
      let addr = B.elem_addr b ~base:inp ~index:i ~scale:4 in
      ignore (B.ld_global_f32 b ~addr ~offset:0));
  let k = B.finish b in
  (* Builder's loop exits on [counter >= bound]?? For negative step the
     generated test is still setp.ge, which exits immediately at init >= -1.
     Symeval must classify this as an unsupported upward loop and the
     footprint falls back conservatively rather than crashing. *)
  let launch =
    { Footprint.grid = T.dim3 1; block = T.dim3 32; args = [ ("hi", 8); ("IN", 0x1000) ] }
  in
  match Footprint.analyze k launch with
  | Footprint.Conservative _ | Footprint.Per_tb _ -> Alcotest.(check pass) "no crash" () ()

let nested_suite =
  [
    Alcotest.test_case "nested loops: two counters" `Quick test_nested_loops_recognized;
    Alcotest.test_case "nested loops: footprint" `Quick test_nested_loops_footprint;
    Alcotest.test_case "nested loops: dynamic instructions" `Quick test_nested_loops_insts;
    Alcotest.test_case "loops: negative step no crash" `Quick test_downward_loop;
  ]

let suite = suite @ nested_suite

(* --- structural fingerprint (launch-time cache key) -------------------- *)

module Fingerprint = Bm_analysis.Fingerprint
module Templates = Bm_workloads.Templates

(* A genuine alpha-renaming: every distinct register maps to a fresh name
   drawn from a seeded permutation, labels get a suffix, and the kernel
   name changes too (the fingerprint must not depend on it). *)
let alpha_rename seed (k : T.kernel) =
  let regs : (string, string) Hashtbl.t = Hashtbl.create 16 in
  let n = ref 0 in
  let ren r =
    match Hashtbl.find_opt regs r with
    | Some r' -> r'
    | None ->
      let r' = Printf.sprintf "%%renamed_%d_%d" ((seed + !n) mod 97) !n in
      incr n;
      Hashtbl.add regs r r';
      r'
  in
  let operand = function T.Reg r -> T.Reg (ren r) | o -> o in
  let body =
    Array.map
      (function
        | T.Label l -> T.Label (l ^ "_t")
        | T.I { op; ty; dst; srcs; offset; guard } ->
          let op = match op with T.Bra l -> T.Bra (l ^ "_t") | op -> op in
          T.I
            {
              op;
              ty;
              dst = Option.map operand dst;
              srcs = List.map operand srcs;
              offset;
              guard = Option.map (fun (neg, p) -> (neg, ren p)) guard;
            })
      k.T.kbody
  in
  { k with T.kname = k.T.kname ^ "_twin"; T.kbody = body }

(* Single-instruction mutations that must change the fingerprint. *)
let mutate which at (k : T.kernel) =
  let body = Array.copy k.T.kbody in
  let is = ref [] in
  Array.iteri (fun i instr -> match instr with T.I _ -> is := i :: !is | T.Label _ -> ()) body;
  let is = Array.of_list (List.rev !is) in
  let i = is.(at mod Array.length is) in
  (match body.(i) with
  | T.Label _ -> assert false
  | T.I { op; ty; dst; srcs; offset; guard } ->
    body.(i) <-
      (if which then T.I { op; ty; dst; srcs; offset = offset + 4; guard }
       else T.I { op; ty; dst; srcs = srcs @ [ T.Imm 424242 ]; offset; guard }));
  { k with T.kbody = body }

let gen_template =
  QCheck2.Gen.(
    let* which = int_range 0 3 in
    let* work = int_range 0 12 in
    let+ halo = int_range 1 3 in
    match which with
    | 0 -> Templates.map1 ~name:"fp_map1" ~work
    | 1 -> Templates.stencil1d ~name:"fp_sten" ~halo ~work
    | 2 -> Templates.matvec ~name:"fp_mv" ~work
    | _ -> Templates.matmul ~name:"fp_mm" ~work)

let prop_fingerprint_alpha =
  QCheck2.Test.make ~name:"alpha-equivalent kernels share a fingerprint" ~count:100
    QCheck2.Gen.(pair gen_template small_nat)
    (fun (k, seed) ->
      Fingerprint.equal (Fingerprint.of_kernel k) (Fingerprint.of_kernel (alpha_rename seed k)))

let prop_fingerprint_mutation =
  QCheck2.Test.make ~name:"single-instruction mutation changes the fingerprint" ~count:100
    QCheck2.Gen.(triple gen_template bool small_nat)
    (fun (k, which, at) ->
      not (Fingerprint.equal (Fingerprint.of_kernel k) (Fingerprint.of_kernel (mutate which at k))))

let test_fingerprint_params_semantic () =
  (* Parameter names bind footprint args, so renaming one must NOT collide. *)
  let k = Templates.map1 ~name:"fp_p" ~work:2 in
  let renamed =
    {
      k with
      T.kparams =
        List.map
          (fun (p : T.param) ->
            if p.T.pptr then { p with T.pname = p.T.pname ^ "_r" } else p)
          k.T.kparams;
    }
  in
  Alcotest.(check bool) "param rename changes fingerprint" false
    (Fingerprint.equal (Fingerprint.of_kernel k) (Fingerprint.of_kernel renamed))

let fingerprint_suite =
  [
    QCheck_alcotest.to_alcotest prop_fingerprint_alpha;
    QCheck_alcotest.to_alcotest prop_fingerprint_mutation;
    Alcotest.test_case "fingerprint: param names semantic" `Quick test_fingerprint_params_semantic;
  ]

let suite = suite @ fingerprint_suite

(* --- staged footprints against the per-TB reference -------------------- *)

module Command = Bm_gpu.Command
module Sym = Bm_analysis.Sym

(* An evaluator's whole outcome, an escaping exception included. *)
let outcome of_result r fl =
  match of_result r fl with v -> Ok v | exception e -> Error (Printexc.to_string e)

let staged_matches r fl =
  outcome Footprint.of_result r fl = outcome Footprint.of_result_reference r fl

(* Every distinct (kernel, launch configuration) of an app whose staged
   footprints differ from the reference's, and how many there were. *)
let footprint_mismatches (app : Command.app) =
  let seen = Hashtbl.create 64 in
  let bad =
    List.filter_map
      (fun (spec : Command.launch_spec) ->
        let fl = Command.footprint_launch spec in
        let key = (spec.Command.kernel.T.kname, fl) in
        if Hashtbl.mem seen key then None
        else begin
          Hashtbl.add seen key ();
          if staged_matches (Symeval.analyze spec.Command.kernel) fl then None
          else Some spec.Command.kernel.T.kname
        end)
      (Command.launches app)
  in
  (bad, Hashtbl.length seen)

let test_staged_suite_reference () =
  let total =
    List.fold_left
      (fun total (name, gen) ->
        let bad, n = footprint_mismatches (gen ()) in
        Alcotest.(check (list string)) (name ^ " footprints identical") [] bad;
        total + n)
      0 Bm_workloads.Suite.all
  in
  Alcotest.(check int) "distinct suite launches" 811 total

let prop_staged_genapp_reference =
  QCheck2.Test.make ~name:"staged footprints = per-TB reference on Genapp apps" ~count:40
    QCheck2.Gen.(pair small_nat small_nat)
    (fun (seed, idx) ->
      let module Genapp = Bm_workloads.Genapp in
      let spec = Genapp.generate ~max_grid:48 (Bm_engine.Rng.create seed) idx in
      fst (footprint_mismatches (Genapp.build spec)) = [])

(* Hand-built analysis results reach expressions [Symeval] never emits for
   a static kernel, such as an [Unknown] leaf next to a counter. *)
let sp s = Sym.Special s
let gid_x = Sym.Add (Sym.Mul (sp (T.Ctaid T.X), sp (T.Ntid T.X)), sp (T.Tid T.X))

let hand_result ?(counters = []) ?(guards = []) accesses =
  {
    Symeval.kernel = vecadd ();
    accesses =
      List.mapi
        (fun i (akind, aexpr) -> { Symeval.ainstr = i; akind; aexpr; abytes = 4; aloops = [] })
        accesses;
    counters;
    guards;
    static = true;
    nonstatic_reason = None;
  }

let counter ?(init = Sym.Const 0) cid bound =
  { Symeval.cid; init; bound; cmp = T.Ge; step = 1; entry = 0; last = 0 }

let guard bound = { Symeval.g_expr = gid_x; g_bound = bound }

let hand_grids =
  [ ("1-D", T.dim3 4); ("3-D", { T.dx = 3; dy = 2; dz = 2 }); ("empty", { T.dx = 0; dy = 1; dz = 1 }) ]

let hand_launch grid args = { Footprint.grid; block = T.dim3 8; args = ("A", 0x1000) :: args }

let check_staged label r args =
  List.iter
    (fun (gname, grid) ->
      Alcotest.(check bool) (label ^ ", " ^ gname ^ " grid") true
        (staged_matches r (hand_launch grid args)))
    hand_grids

let elem e = Sym.Add (Sym.Param "A", Sym.Mul (e, Sym.Const 4))

let test_staged_guards () =
  (* vecadd: n = 900 leaves a tail TB, n = 512 two fully-guarded TBs. *)
  List.iter
    (fun n ->
      Alcotest.(check bool) (Printf.sprintf "vecadd, n = %d" n) true
        (staged_matches (Symeval.analyze (vecadd ())) (launch_1d ~args:(vecadd_args n) 4)))
    [ 900; 512; 0 ];
  check_staged "tail-guarded TB"
    (hand_result ~guards:[ guard (Sym.Param "n") ] [ (`Read, elem gid_x); (`Write, elem gid_x) ])
    [ ("n", 21) ];
  check_staged "guard bound reads ctaid"
    (hand_result
       ~guards:[ guard (Sym.Add (Sym.Param "n", sp (T.Ctaid T.X))) ]
       [ (`Read, elem gid_x) ])
    [ ("n", 13) ];
  (* Every TB is past the bound, or the grid is empty: the access that
     cannot be evaluated is never reached. *)
  let r = hand_result ~guards:[ guard (Sym.Param "n") ] [ (`Read, Sym.Unknown "opaque") ] in
  check_staged "fully-guarded TBs hide a non-static access" r [ ("n", 0) ];
  (match Footprint.of_result r (hand_launch (T.dim3 4) [ ("n", 0) ]) with
  | Footprint.Per_tb fps ->
    Alcotest.(check bool) "no TB reads" true (Array.for_all (fun fp -> fp.Footprint.freads = []) fps)
  | Footprint.Conservative reason -> Alcotest.fail reason);
  let empty_grid = hand_launch { T.dx = 0; dy = 1; dz = 1 } [] in
  match Footprint.of_result (hand_result [ (`Read, Sym.Unknown "opaque") ]) empty_grid with
  | Footprint.Per_tb fps -> Alcotest.(check int) "empty grid" 0 (Array.length fps)
  | Footprint.Conservative reason -> Alcotest.fail reason

let test_staged_ctaid_loops () =
  (* The bound is ctaid.x, so TB 0's loop runs zero times and its read is
     dropped; the write after the loop stays. *)
  let r =
    hand_result ~counters:[ counter 0 (sp (T.Ctaid T.X)) ]
      [ (`Read, elem (Sym.Counter 0)); (`Write, elem gid_x) ]
  in
  check_staged "loop bound reads ctaid.x" r [];
  (match Footprint.of_result r (hand_launch (T.dim3 4) []) with
  | Footprint.Per_tb fps ->
    Alcotest.(check int) "TB 0 skips its loop" 0 (List.length fps.(0).Footprint.freads);
    Alcotest.(check int) "TB 1 reads" 1 (List.length fps.(1).Footprint.freads)
  | Footprint.Conservative reason -> Alcotest.fail reason);
  (* A nest whose inner init reads the outer counter. *)
  check_staged "inner init reads a ctaid-dependent counter"
    (hand_result
       ~counters:[ counter 0 (sp (T.Ctaid T.Y)); counter ~init:(Sym.Counter 0) 1 (Sym.Param "n") ]
       [ (`Read, elem (Sym.Counter 1)) ])
    [ ("n", 5) ];
  (* A real kernel from the builder, the loop bound read from ctaid.x. *)
  let b = B.create "cx" in
  let inp = B.param_ptr b "A" in
  B.loop b ~init:(T.Imm 0) ~bound:(B.mov_u32 b (T.Sreg (T.Ctaid T.X))) ~step:1 (fun i ->
      let addr = B.elem_addr b ~base:inp ~index:i ~scale:4 in
      ignore (B.ld_global_f32 b ~addr ~offset:0));
  check_staged "builder kernel, bound = ctaid.x" (Symeval.analyze (B.finish b)) []

let test_staged_ctaid_divisor () =
  List.iter
    (fun (label, e) -> check_staged label (hand_result [ (`Read, elem e) ]) [])
    [
      ("divisor ctaid.x + 1", Sym.Div (gid_x, Sym.Add (sp (T.Ctaid T.X), Sym.Const 1)));
      (* Zero for TB 0: the kernel is conservative. *)
      ("divisor ctaid.x", Sym.Div (gid_x, sp (T.Ctaid T.X)));
      ("remainder by ctaid.y", Sym.Rem (gid_x, sp (T.Ctaid T.Y)));
      ("shift by ctaid.z", Sym.Shr (gid_x, sp (T.Ctaid T.Z)));
      ("divisor a range", Sym.Div (gid_x, sp (T.Tid T.X)));
    ]

(* [Add (Unknown, Counter)] evaluates the counter first: if its loop runs
   zero times the access is dropped before the unknown leaf is reached.
   With the operands the other way round the unknown leaf wins. *)
let test_staged_exception_precedence () =
  let zero_trip_bounds =
    [ ("folded", Sym.Const 0); ("per TB", Sym.Mul (sp (T.Ctaid T.X), Sym.Const 0)) ]
  in
  List.iter
    (fun (how, bound) ->
      let result e = hand_result ~counters:[ counter 0 bound ] [ (`Read, e) ] in
      let unknown_first = result (Sym.Add (Sym.Unknown "opaque", Sym.Counter 0)) in
      let counter_first = result (Sym.Add (Sym.Counter 0, Sym.Unknown "opaque")) in
      check_staged ("unknown + zero-trip counter, " ^ how) unknown_first [];
      check_staged ("zero-trip counter + unknown, " ^ how) counter_first [];
      let fl = hand_launch (T.dim3 4) [] in
      let nothing = { Footprint.freads = []; fwrites = [] } in
      Alcotest.(check bool) ("zero-trip counter drops the access, " ^ how) true
        (Footprint.of_result unknown_first fl = Footprint.Per_tb (Array.make 4 nothing));
      Alcotest.(check bool) ("unknown leaf makes the kernel conservative, " ^ how) true
        (Footprint.of_result counter_first fl = Footprint.Conservative "opaque"))
    zero_trip_bounds;
  (* Of two non-static accesses, the first in instruction order names the
     reason. *)
  check_staged "first non-static access wins"
    (hand_result [ (`Write, Sym.Div (gid_x, sp (T.Tid T.X))); (`Read, Sym.Unknown "opaque") ])
    []

(* TB-invariant intervals are computed once per launch and shared by every
   TB's footprint. *)
let test_staged_shares_invariants () =
  let r =
    hand_result ~counters:[ counter 0 (Sym.Param "n") ]
      [ (`Read, elem (Sym.Counter 0)); (`Write, Sym.Add (Sym.Param "A", Sym.Const 64)) ]
  in
  match Footprint.of_result r (hand_launch (T.dim3 4) [ ("n", 6) ]) with
  | Footprint.Conservative reason -> Alcotest.fail reason
  | Footprint.Per_tb fps ->
    Alcotest.(check bool) "loop read shared" true
      (List.hd fps.(0).Footprint.freads == List.hd fps.(3).Footprint.freads);
    Alcotest.(check bool) "fixed write shared" true
      (List.hd fps.(1).Footprint.fwrites == List.hd fps.(2).Footprint.fwrites)

let test_whole_mixed_lengths () =
  (* Positional joins while lengths agree, concatenation when one TB
     dropped an access. *)
  let fp reads = { Footprint.freads = reads; fwrites = [] } in
  let w =
    Footprint.whole
      [| fp [ I.range 0 3; I.range 8 11 ]; fp [ I.range 4 7; I.range 12 15 ]; fp [ I.range 16 19 ] |]
  in
  Alcotest.(check (list string)) "reads"
    [ "[0..7 /1]"; "[8..15 /1]"; "[16..19 /1]" ]
    (List.map I.to_string w.Footprint.freads)

(* Every distinct launch configuration of a suite app hashes apart.  The
   polymorphic [Hashtbl.hash] sees only the grid, the block and the first
   argument, and puts LUD's 46 configurations in 4 values, FFT's 25 in 3
   and GRAMSCHM's 192 in 65. *)
let test_hash_launch_suite () =
  List.iter
    (fun (name, configs) ->
      let launches =
        List.sort_uniq compare
          (List.map Command.footprint_launch (Command.launches (Bm_workloads.Suite.by_name name ())))
      in
      Alcotest.(check int) (name ^ ": distinct configurations") configs (List.length launches);
      Alcotest.(check int) (name ^ ": distinct hashes") configs
        (List.length (List.sort_uniq compare (List.map Footprint.hash_launch launches))))
    [ ("LUD", 46); ("FFT", 25); ("GRAMSCHM", 192) ]

let staged_suite =
  [
    Alcotest.test_case "staged footprints: suite = reference" `Quick test_staged_suite_reference;
    QCheck_alcotest.to_alcotest prop_staged_genapp_reference;
    Alcotest.test_case "staged footprints: guards" `Quick test_staged_guards;
    Alcotest.test_case "staged footprints: ctaid-dependent loops" `Quick test_staged_ctaid_loops;
    Alcotest.test_case "staged footprints: ctaid-dependent divisors" `Quick test_staged_ctaid_divisor;
    Alcotest.test_case "staged footprints: exception precedence" `Quick test_staged_exception_precedence;
    Alcotest.test_case "staged footprints: invariants shared" `Quick test_staged_shares_invariants;
    Alcotest.test_case "footprint: whole with mixed lengths" `Quick test_whole_mixed_lengths;
    Alcotest.test_case "footprint: hash_launch separates suite launches" `Quick
      test_hash_launch_suite;
  ]

let suite = suite @ staged_suite
