(* Tests for the concrete PTX interpreter, and the key cross-validation
   property of the whole reproduction: value-range footprints
   over-approximate the addresses kernels actually touch. *)

open Bm_ptx
module T = Types
module B = Builder
module Footprint = Bm_analysis.Footprint
module Symeval = Bm_analysis.Symeval
module I = Bm_analysis.Sinterval
module Templates = Bm_workloads.Templates

let d1 = T.dim3

(* --- semantics ------------------------------------------------------ *)

let test_vecadd_semantics () =
  (* C[i] = fma(B[i], A[i], B[i]) per the builder's fcompute chain: just
     check the kernel reads the right cells and writes the right cell. *)
  let k = Test_ptx.vecadd () in
  let mem = Interp.memory () in
  let a_base = 0x1000 and b_base = 0x2000 and c_base = 0x3000 in
  for i = 0 to 1023 do
    Interp.poke_f32 mem (a_base + (4 * i)) (float_of_int i);
    Interp.poke_f32 mem (b_base + (4 * i)) 1.0
  done;
  let args = [ ("n", 1024); ("A", a_base); ("B", b_base); ("C", c_base) ] in
  let tr =
    Interp.run_thread k ~grid:(d1 4) ~block:(d1 256) ~cta:(d1 1) ~tid:(d1 5) ~args mem
  in
  (* Thread (cta 1, tid 5) handles element 261. *)
  let addrs kind =
    List.filter_map
      (fun (a : Interp.access) -> if a.Interp.ia_kind = kind then Some a.Interp.ia_addr else None)
      tr.Interp.t_accesses
  in
  Alcotest.(check (list int)) "reads element 261 of A and B"
    [ a_base + (4 * 261); b_base + (4 * 261) ]
    (addrs `Read);
  Alcotest.(check (list int)) "writes element 261 of C" [ c_base + (4 * 261) ] (addrs `Write);
  Alcotest.(check bool) "wrote a finite float" true
    (Float.is_finite (Interp.peek_f32 mem (c_base + (4 * 261))))

let test_guard_skips_work () =
  let k = Test_ptx.vecadd () in
  let mem = Interp.memory () in
  let args = [ ("n", 10); ("A", 0x1000); ("B", 0x2000); ("C", 0x3000) ] in
  (* Thread 200 of block 0 is out of range: no global accesses. *)
  let tr = Interp.run_thread k ~grid:(d1 1) ~block:(d1 256) ~cta:(d1 0) ~tid:(d1 200) ~args mem in
  Alcotest.(check int) "no accesses past the guard" 0 (List.length tr.Interp.t_accesses)

let test_loop_semantics () =
  (* matvec runs kdim iterations: dynamic instructions scale with kdim. *)
  let k = Test_ptx.matvec_loop () in
  let mem = Interp.memory () in
  let args kd = [ ("n", 256); ("kdim", kd); ("A", 0x10000); ("X", 0x80000); ("Y", 0x90000) ] in
  let run kd =
    (Interp.run_thread k ~grid:(d1 4) ~block:(d1 64) ~cta:(d1 0) ~tid:(d1 0) ~args:(args kd) mem)
      .Interp.t_dyn_insts
  in
  let small = run 4 and big = run 32 in
  Alcotest.(check bool) "8x loop -> ~8x instructions" true
    (big > 6 * small / 2 && big > small + 100)

let test_loop_accesses () =
  let k = Test_ptx.matvec_loop () in
  let mem = Interp.memory () in
  let kd = 16 in
  let args = [ ("n", 256); ("kdim", kd); ("A", 0x10000); ("X", 0x80000); ("Y", 0x90000) ] in
  let tr = Interp.run_thread k ~grid:(d1 4) ~block:(d1 64) ~cta:(d1 0) ~tid:(d1 3) ~args mem in
  let reads = List.filter (fun a -> a.Interp.ia_kind = `Read) tr.Interp.t_accesses in
  (* kd iterations x (A row element + X element). *)
  Alcotest.(check int) "2 reads per iteration" (2 * kd) (List.length reads);
  let writes = List.filter (fun a -> a.Interp.ia_kind = `Write) tr.Interp.t_accesses in
  Alcotest.(check int) "single result write" 1 (List.length writes)

let test_atomic () =
  let b = B.create "atomic_k" in
  let i = B.global_linear_index b in
  ignore i;
  let p = B.param_ptr b "P" in
  let dst = B.fresh_r b in
  B.emit b
    (T.I { op = T.Atom (T.Global, "add"); ty = T.U32; dst = Some dst; srcs = [ p; T.Imm 5 ];
           offset = 0; guard = None });
  let k = B.finish b in
  let mem = Interp.memory () in
  Interp.poke_u32 mem 0x4000 37;
  let tr =
    Interp.run_thread k ~grid:(d1 1) ~block:(d1 1) ~cta:(d1 0) ~tid:(d1 0) ~args:[ ("P", 0x4000) ] mem
  in
  Alcotest.(check int) "memory updated" 42 (Interp.peek_u32 mem 0x4000);
  Alcotest.(check int) "read + write recorded" 2 (List.length tr.Interp.t_accesses)

let test_stuck_on_missing_param () =
  let k = Test_ptx.vecadd () in
  let mem = Interp.memory () in
  Alcotest.(check bool) "raises Stuck" true
    (try
       ignore (Interp.run_thread k ~grid:(d1 1) ~block:(d1 32) ~cta:(d1 0) ~tid:(d1 0) ~args:[] mem);
       false
     with Interp.Stuck _ -> true)

let test_fuel_limit () =
  let b = B.create "spin" in
  B.emit b (T.Label "L");
  B.emit b (T.I { op = T.Bra "L"; ty = T.B32; dst = None; srcs = []; offset = 0; guard = None });
  let k = B.finish b in
  let mem = Interp.memory () in
  Alcotest.(check bool) "fuel stops infinite loops" true
    (try
       ignore
         (Interp.run_thread ~fuel:1000 k ~grid:(d1 1) ~block:(d1 1) ~cta:(d1 0) ~tid:(d1 0) ~args:[] mem);
       false
     with Interp.Stuck _ -> true)

(* --- cross-validation: footprints cover executed addresses --------- *)

(* For a kernel and launch, run sampled threads concretely and assert every
   executed global access lies inside the TB's static footprint. *)
let check_soundness ?(sample_tbs = [ 0 ]) kernel (launch : Footprint.launch) =
  match Footprint.materialize (Footprint.analyze kernel launch) with
  | Error reason -> Alcotest.failf "unexpectedly conservative: %s" reason
  | Ok fps ->
    let mem = Interp.memory () in
    List.iter
      (fun tb ->
        let gx = launch.Footprint.grid.T.dx in
        let cta = { T.dx = tb mod gx; dy = tb / gx; dz = 0 } in
        let bd = T.dim3_count launch.Footprint.block in
        (* Sample first, middle, last threads of the TB. *)
        List.iter
          (fun t ->
            let tr =
              Interp.run_thread kernel ~grid:launch.Footprint.grid ~block:launch.Footprint.block
                ~cta ~tid:(d1 t) ~args:launch.Footprint.args mem
            in
            List.iter
              (fun (a : Interp.access) ->
                let fp = fps.(tb) in
                let intervals =
                  match a.Interp.ia_kind with
                  | `Read -> fp.Footprint.freads
                  | `Write -> fp.Footprint.fwrites
                in
                if not (List.exists (I.mem a.Interp.ia_addr) intervals) then
                  Alcotest.failf "TB %d thread %d: %s address %d not in footprint [%s]" tb t
                    (match a.Interp.ia_kind with `Read -> "read" | `Write -> "write")
                    a.Interp.ia_addr
                    (String.concat "; " (List.map I.to_string intervals)))
              tr.Interp.t_accesses)
          [ 0; bd / 2; bd - 1 ])
      sample_tbs

let base_args = [ ("IN", 0x100000); ("OUT", 0x200000); ("A", 0x300000); ("B", 0x400000);
                  ("G", 0x500000); ("X", 0x600000); ("Y", 0x700000); ("S", 0x800000);
                  ("Q", 0x900000); ("C", 0xA00000); ("M", 0xB00000); ("P", 0xC00000) ]

let launch ?(grid = 4) ?(block = 64) extra =
  { Footprint.grid = d1 grid; block = d1 block; args = extra @ base_args }

let test_soundness_map1 () =
  check_soundness ~sample_tbs:[ 0; 3 ] (Templates.map1 ~name:"s_map1" ~work:4)
    (launch [ ("n", 256) ])

let test_soundness_stencil () =
  check_soundness ~sample_tbs:[ 0; 2 ]
    (Templates.stencil1d ~name:"s_sten" ~halo:2 ~work:4)
    (launch [ ("n", 256) ])

let test_soundness_group_gather () =
  check_soundness
    (Templates.group_gather ~name:"s_gg" ~work:2)
    (launch [ ("n", 256); ("opg", 16); ("gs", 32) ])

let test_soundness_matvec () =
  check_soundness
    (Templates.matvec ~name:"s_mv" ~work:1)
    (launch [ ("n", 256); ("kdim", 24) ])

let test_soundness_matmul () =
  check_soundness
    (Templates.matmul ~name:"s_mm" ~work:1)
    (launch [ ("m", 16); ("n", 16); ("kdim", 8) ])

let test_soundness_fan2 () =
  check_soundness
    (Templates.fan2 ~name:"s_f2")
    (launch [ ("n", 240); ("size", 16); ("t", 0) ])

let test_soundness_wave () =
  check_soundness ~sample_tbs:[ 0; 3 ]
    (Templates.wave ~name:"s_wave" ~halo:2 ~work:4)
    (launch [ ("n", 256); ("smax", 199) ])

let test_soundness_update_off () =
  check_soundness
    (Templates.update_off ~name:"s_upd" ~work:2)
    (launch [ ("n", 256); ("aoff", 64); ("qoff", 0); ("nred", 8); ("qstride", 16) ])

(* Property: random elementwise affine kernels are covered. *)
let prop_soundness_affine =
  QCheck2.Test.make ~name:"footprints cover random affine kernels" ~count:60
    QCheck2.Gen.(triple (int_range 1 6) (int_range 1 8) (int_range 0 64))
    (fun (grid, scale, shift) ->
      let b = B.create "rand_affine" in
      let i = B.global_linear_index b in
      let n = B.param_u32 b "n" in
      B.guard_return_if_ge b i n;
      let p = B.param_ptr b "IN" and q = B.param_ptr b "OUT" in
      let idx = B.mad_lo_u32 b i (T.Imm scale) (T.Imm shift) in
      let addr = B.elem_addr b ~base:p ~index:idx ~scale:4 in
      let v = B.ld_global_f32 b ~addr ~offset:0 in
      let addr2 = B.elem_addr b ~base:q ~index:i ~scale:4 in
      B.st_global_f32 b ~addr:addr2 ~offset:0 ~value:v;
      let k = B.finish b in
      let block = 32 in
      let l =
        { Footprint.grid = d1 grid; block = d1 block;
          args = [ ("n", grid * block); ("IN", 0x10000); ("OUT", 0x90000) ] }
      in
      match Footprint.materialize (Footprint.analyze k l) with
      | Error _ -> false
      | Ok fps ->
        let mem = Interp.memory () in
        let ok = ref true in
        for tb = 0 to grid - 1 do
          for t = 0 to block - 1 do
            let tr =
              Interp.run_thread k ~grid:(d1 grid) ~block:(d1 block) ~cta:(d1 tb) ~tid:(d1 t)
                ~args:l.Footprint.args mem
            in
            List.iter
              (fun (a : Interp.access) ->
                let fp = fps.(tb) in
                let ivs =
                  match a.Interp.ia_kind with
                  | `Read -> fp.Footprint.freads
                  | `Write -> fp.Footprint.fwrites
                in
                if not (List.exists (I.mem a.Interp.ia_addr) ivs) then ok := false)
              tr.Interp.t_accesses
          done
        done;
        !ok)

let suite =
  [
    Alcotest.test_case "semantics: vecadd accesses" `Quick test_vecadd_semantics;
    Alcotest.test_case "semantics: bounds guard" `Quick test_guard_skips_work;
    Alcotest.test_case "semantics: loop trip counts" `Quick test_loop_semantics;
    Alcotest.test_case "semantics: loop accesses" `Quick test_loop_accesses;
    Alcotest.test_case "semantics: atomics" `Quick test_atomic;
    Alcotest.test_case "robustness: missing parameter" `Quick test_stuck_on_missing_param;
    Alcotest.test_case "robustness: fuel limit" `Quick test_fuel_limit;
    Alcotest.test_case "soundness: map1" `Quick test_soundness_map1;
    Alcotest.test_case "soundness: stencil1d" `Quick test_soundness_stencil;
    Alcotest.test_case "soundness: group_gather" `Quick test_soundness_group_gather;
    Alcotest.test_case "soundness: matvec" `Quick test_soundness_matvec;
    Alcotest.test_case "soundness: matmul" `Quick test_soundness_matmul;
    Alcotest.test_case "soundness: gaussian fan2" `Quick test_soundness_fan2;
    Alcotest.test_case "soundness: wavefront" `Quick test_soundness_wave;
    Alcotest.test_case "soundness: update_off" `Quick test_soundness_update_off;
    QCheck_alcotest.to_alcotest prop_soundness_affine;
  ]

(* --- remaining operator semantics -------------------------------------- *)

let straightline instrs =
  { T.kname = "ops"; kparams = []; kbody = Array.of_list (instrs @ [ T.I { op = T.Ret; ty = T.B32; dst = None; srcs = []; offset = 0; guard = None } ]) }

let i ?(ty = T.S32) ?dst ?(srcs = []) ?guard op = T.I { op; ty; dst; srcs; offset = 0; guard }

let reg_value trace name =
  match List.assoc_opt name trace.Interp.t_registers with
  | Some v -> v
  | None -> Alcotest.failf "register %s undefined" name

let run_ops instrs =
  let mem = Interp.memory () in
  Interp.run_thread (straightline instrs) ~grid:(d1 1) ~block:(d1 1) ~cta:(d1 0) ~tid:(d1 0)
    ~args:[] mem

let test_interp_selp () =
  let tr =
    run_ops
      [
        i (T.Setp T.Lt) ~dst:(T.Reg "%p1") ~srcs:[ T.Imm 3; T.Imm 5 ];
        i T.Selp ~ty:T.B32 ~dst:(T.Reg "%r1") ~srcs:[ T.Imm 10; T.Imm 20; T.Reg "%p1" ];
        i (T.Setp T.Gt) ~dst:(T.Reg "%p2") ~srcs:[ T.Imm 3; T.Imm 5 ];
        i T.Selp ~ty:T.B32 ~dst:(T.Reg "%r2") ~srcs:[ T.Imm 10; T.Imm 20; T.Reg "%p2" ];
      ]
  in
  Alcotest.(check bool) "true branch" true (reg_value tr "%r1" = Interp.Int 10);
  Alcotest.(check bool) "false branch" true (reg_value tr "%r2" = Interp.Int 20)

let test_interp_min_max_bitops () =
  let tr =
    run_ops
      [
        i T.Min ~dst:(T.Reg "%r1") ~srcs:[ T.Imm 7; T.Imm 3 ];
        i T.Max ~dst:(T.Reg "%r2") ~srcs:[ T.Imm 7; T.Imm 3 ];
        i T.And_ ~ty:T.B32 ~dst:(T.Reg "%r3") ~srcs:[ T.Imm 12; T.Imm 10 ];
        i T.Or_ ~ty:T.B32 ~dst:(T.Reg "%r4") ~srcs:[ T.Imm 12; T.Imm 10 ];
        i T.Xor ~ty:T.B32 ~dst:(T.Reg "%r5") ~srcs:[ T.Imm 12; T.Imm 10 ];
        i T.Shl ~ty:T.B32 ~dst:(T.Reg "%r6") ~srcs:[ T.Imm 3; T.Imm 4 ];
        i T.Shr ~ty:T.B32 ~dst:(T.Reg "%r7") ~srcs:[ T.Imm 48; T.Imm 4 ];
      ]
  in
  List.iter
    (fun (r, v) -> Alcotest.(check bool) r true (reg_value tr r = Interp.Int v))
    [ ("%r1", 3); ("%r2", 7); ("%r3", 8); ("%r4", 14); ("%r5", 6); ("%r6", 48); ("%r7", 3) ]

let test_interp_funary () =
  let tr =
    run_ops
      [
        i T.Mov ~ty:T.F32 ~dst:(T.Reg "%f1") ~srcs:[ T.Fimm 16.0 ];
        i (T.Funary "sqrt") ~ty:T.F32 ~dst:(T.Reg "%f2") ~srcs:[ T.Reg "%f1" ];
        i (T.Funary "rcp") ~ty:T.F32 ~dst:(T.Reg "%f3") ~srcs:[ T.Reg "%f1" ];
      ]
  in
  Alcotest.(check bool) "sqrt" true (reg_value tr "%f2" = Interp.Float 4.0);
  Alcotest.(check bool) "rcp" true (reg_value tr "%f3" = Interp.Float 0.0625)

let test_interp_div_by_zero_stuck () =
  Alcotest.(check bool) "div by zero is Stuck" true
    (try
       ignore (run_ops [ i T.Div ~dst:(T.Reg "%r1") ~srcs:[ T.Imm 4; T.Imm 0 ] ]);
       false
     with Interp.Stuck _ -> true)

let test_interp_negated_guard () =
  let tr =
    run_ops
      [
        i (T.Setp T.Lt) ~dst:(T.Reg "%p1") ~srcs:[ T.Imm 9; T.Imm 5 ];
        (* p1 false: @!%p1 executes, @%p1 skips *)
        i T.Mov ~dst:(T.Reg "%r1") ~srcs:[ T.Imm 111 ] ~guard:(true, "%p1");
        i T.Mov ~dst:(T.Reg "%r2") ~srcs:[ T.Imm 0 ];
        i T.Mov ~dst:(T.Reg "%r2") ~srcs:[ T.Imm 222 ] ~guard:(false, "%p1");
      ]
  in
  Alcotest.(check bool) "negated guard ran" true (reg_value tr "%r1" = Interp.Int 111);
  Alcotest.(check bool) "plain guard skipped" true (reg_value tr "%r2" = Interp.Int 0)

let ops_suite =
  [
    Alcotest.test_case "interp: selp" `Quick test_interp_selp;
    Alcotest.test_case "interp: min/max/bitops" `Quick test_interp_min_max_bitops;
    Alcotest.test_case "interp: float unary" `Quick test_interp_funary;
    Alcotest.test_case "interp: div by zero" `Quick test_interp_div_by_zero_stuck;
    Alcotest.test_case "interp: guard polarity" `Quick test_interp_negated_guard;
  ]

let suite = suite @ ops_suite
