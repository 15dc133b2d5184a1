(* Tests for the PTX IR: builder output, printer/parser round trips, CFG. *)

open Bm_ptx
module T = Types
module B = Builder

(* A reference vecadd kernel used across several suites. *)
let vecadd () =
  let b = B.create "vecadd" in
  let i = B.global_linear_index b in
  let n = B.param_u32 b "n" in
  B.guard_return_if_ge b i n;
  let a_ptr = B.param_ptr b "A" and b_ptr = B.param_ptr b "B" and c_ptr = B.param_ptr b "C" in
  let addr_a = B.elem_addr b ~base:a_ptr ~index:i ~scale:4 in
  let addr_b = B.elem_addr b ~base:b_ptr ~index:i ~scale:4 in
  let addr_c = B.elem_addr b ~base:c_ptr ~index:i ~scale:4 in
  let va = B.ld_global_f32 b ~addr:addr_a ~offset:0 in
  let vb = B.ld_global_f32 b ~addr:addr_b ~offset:0 in
  let sum = B.fcompute b 1 [ va; vb ] in
  B.st_global_f32 b ~addr:addr_c ~offset:0 ~value:sum;
  B.finish b

let matvec_loop () =
  (* Per-thread loop over a row: y[i] = sum_k A[i*k_dim + k] * x[k]. *)
  let b = B.create "matvec" in
  let i = B.global_linear_index b in
  let n = B.param_u32 b "n" in
  B.guard_return_if_ge b i n;
  let kdim = B.param_u32 b "kdim" in
  let a_ptr = B.param_ptr b "A" and x_ptr = B.param_ptr b "X" and y_ptr = B.param_ptr b "Y" in
  let row_base = B.mul_lo_u32 b i kdim in
  B.loop b ~init:(T.Imm 0) ~bound:kdim ~step:1 (fun k ->
      let idx = B.add_u32 b row_base k in
      let addr_a = B.elem_addr b ~base:a_ptr ~index:idx ~scale:4 in
      let addr_x = B.elem_addr b ~base:x_ptr ~index:k ~scale:4 in
      let va = B.ld_global_f32 b ~addr:addr_a ~offset:0 in
      let vx = B.ld_global_f32 b ~addr:addr_x ~offset:0 in
      ignore (B.fcompute b 1 [ va; vx ]));
  let addr_y = B.elem_addr b ~base:y_ptr ~index:i ~scale:4 in
  let zero = B.fresh_f b in
  B.emit b (T.I { op = T.Mov; ty = T.F32; dst = Some zero; srcs = [ T.Fimm 0.0 ]; offset = 0; guard = None });
  B.st_global_f32 b ~addr:addr_y ~offset:0 ~value:zero;
  B.finish b

let test_builder_shape () =
  let k = vecadd () in
  Alcotest.(check string) "name" "vecadd" k.T.kname;
  Alcotest.(check int) "param count" 4 (List.length k.T.kparams);
  let names = List.map (fun p -> p.T.pname) k.T.kparams in
  Alcotest.(check (list string)) "param order" [ "n"; "A"; "B"; "C" ] names;
  let ptrs = List.filter (fun p -> p.T.pptr) k.T.kparams in
  Alcotest.(check int) "pointer params" 3 (List.length ptrs)

let test_roundtrip_vecadd () =
  let k = vecadd () in
  let text = Printer.kernel_to_string k in
  let k' = Parser.kernel_of_string text in
  Alcotest.(check string) "reprint equal" text (Printer.kernel_to_string k')

let test_roundtrip_loop () =
  let k = matvec_loop () in
  let text = Printer.kernel_to_string k in
  let k' = Parser.kernel_of_string text in
  Alcotest.(check string) "reprint equal" text (Printer.kernel_to_string k')

let test_parse_operands () =
  let check s expected = Alcotest.(check bool) s true (Parser.operand_of_string s = expected) in
  check "%r1" (T.Reg "%r1");
  check "%tid.x" (T.Sreg (T.Tid T.X));
  check "%nctaid.z" (T.Sreg (T.Nctaid T.Z));
  check "42" (T.Imm 42);
  check "-7" (T.Imm (-7));
  check "LOOP" (T.Sym "LOOP")

let test_parse_errors () =
  let bad = ".visible .entry k(\n)\n{\n  frobnicate;\n}\n" in
  Alcotest.check_raises "unknown opcode"
    (Parser.Parse_error "line 4: missing type suffix")
    (fun () -> ignore (Parser.kernel_of_string bad))

let test_parse_multi () =
  let text = Printer.kernel_to_string (vecadd ()) ^ "\n" ^ Printer.kernel_to_string (matvec_loop ()) in
  let ks = Parser.kernels_of_string text in
  Alcotest.(check (list string)) "two kernels" [ "vecadd"; "matvec" ]
    (List.map (fun k -> k.T.kname) ks)

let test_cfg_straightline () =
  let b = B.create "k" in
  let i = B.global_linear_index b in
  let p = B.param_ptr b "A" in
  let addr = B.elem_addr b ~base:p ~index:i ~scale:4 in
  let v = B.ld_global_f32 b ~addr ~offset:0 in
  B.st_global_f32 b ~addr ~offset:0 ~value:v;
  let k = B.finish b in
  let cfg = Cfg.build k in
  Alcotest.(check int) "single block" 1 (Array.length cfg.Cfg.blocks)

let test_cfg_guarded () =
  let k = vecadd () in
  let cfg = Cfg.build k in
  (* Bounds check splits the kernel into: prologue, main body, epilogue. *)
  Alcotest.(check int) "three blocks" 3 (Array.length cfg.Cfg.blocks);
  Alcotest.(check (list int)) "prologue branches both ways" [ 2; 1 ] cfg.Cfg.blocks.(0).Cfg.succs;
  Alcotest.(check bool) "no back edges" true (Cfg.back_edges cfg = [])

let test_cfg_loop () =
  let k = matvec_loop () in
  let cfg = Cfg.build k in
  let backs = Cfg.back_edges cfg in
  Alcotest.(check int) "one back edge" 1 (List.length backs);
  let src, header = List.hd backs in
  let loop = Cfg.natural_loop cfg ~src ~header in
  Alcotest.(check bool) "loop has >= 2 blocks" true (List.length loop >= 2);
  Alcotest.(check bool) "header in loop" true (List.mem header loop)

let test_dominators_entry () =
  let k = matvec_loop () in
  let cfg = Cfg.build k in
  let idom = Cfg.dominators cfg in
  Alcotest.(check int) "entry is its own idom" 0 idom.(0);
  Array.iteri
    (fun b d ->
      if b <> 0 then Alcotest.(check bool) (Printf.sprintf "idom of %d is earlier" b) true (d < b || d = 0))
    idom

let test_instr_helpers () =
  let k = vecadd () in
  let globals =
    Array.to_list k.T.kbody |> List.filter T.is_global_access |> List.length
  in
  Alcotest.(check int) "2 loads + 1 store" 3 globals;
  Alcotest.(check bool) "instr_count positive" true (T.instr_count k.T.kbody > 10)

let prop_roundtrip_random_arith =
  (* Random straight-line arithmetic kernels round-trip through the text. *)
  let gen =
    QCheck2.Gen.(list_size (int_range 1 30) (pair (int_range 0 5) (pair small_int small_int)))
  in
  QCheck2.Test.make ~name:"printer/parser round trip on random kernels" ~count:100 gen
    (fun ops ->
      let b = B.create "rand" in
      let i = B.global_linear_index b in
      let last = ref i in
      List.iter
        (fun (which, (x, y)) ->
          let imm = T.Imm ((x mod 1000) + 1) in
          let other = T.Imm ((y mod 1000) + 1) in
          last :=
            (match which with
            | 0 -> B.add_u32 b !last imm
            | 1 -> B.sub_u32 b !last imm
            | 2 -> B.mul_lo_u32 b !last imm
            | 3 -> B.mad_lo_u32 b !last imm other
            | 4 -> B.shl_u32 b !last (x mod 8)
            | _ -> B.rem_u32 b !last imm))
        ops;
      let p = B.param_ptr b "A" in
      let addr = B.elem_addr b ~base:p ~index:!last ~scale:4 in
      let v = B.ld_global_f32 b ~addr ~offset:0 in
      B.st_global_f32 b ~addr ~offset:4 ~value:v;
      let k = B.finish b in
      let text = Printer.kernel_to_string k in
      let k' = Parser.kernel_of_string text in
      Printer.kernel_to_string k' = text)

let suite =
  [
    Alcotest.test_case "builder: kernel shape" `Quick test_builder_shape;
    Alcotest.test_case "roundtrip: vecadd" `Quick test_roundtrip_vecadd;
    Alcotest.test_case "roundtrip: loop kernel" `Quick test_roundtrip_loop;
    Alcotest.test_case "parser: operands" `Quick test_parse_operands;
    Alcotest.test_case "parser: error reporting" `Quick test_parse_errors;
    Alcotest.test_case "parser: multiple kernels" `Quick test_parse_multi;
    Alcotest.test_case "cfg: straight line" `Quick test_cfg_straightline;
    Alcotest.test_case "cfg: guarded kernel" `Quick test_cfg_guarded;
    Alcotest.test_case "cfg: loop detection" `Quick test_cfg_loop;
    Alcotest.test_case "cfg: dominators" `Quick test_dominators_entry;
    Alcotest.test_case "types: helpers" `Quick test_instr_helpers;
    QCheck_alcotest.to_alcotest prop_roundtrip_random_arith;
  ]

(* --- full opcode round-trip coverage --------------------------------- *)

let all_instructions =
  let r1 = T.Reg "%r1" and r2 = T.Reg "%r2" and r3 = T.Reg "%r3" in
  let rd = T.Reg "%rd1" and f1 = T.Reg "%f1" and f2 = T.Reg "%f2" and p = T.Reg "%p1" in
  let i ?(ty = T.S32) ?dst ?(srcs = []) ?(offset = 0) ?guard op =
    T.I { op; ty; dst; srcs; offset; guard }
  in
  [
    i T.Mov ~dst:r1 ~srcs:[ T.Imm 7 ];
    i T.Mov ~ty:T.F32 ~dst:f1 ~srcs:[ T.Fimm 1.5 ];
    i T.Add ~dst:r1 ~srcs:[ r2; r3 ];
    i T.Sub ~dst:r1 ~srcs:[ r2; T.Imm 3 ];
    i T.Mul_lo ~dst:r1 ~srcs:[ r2; r3 ];
    i T.Mul_wide ~dst:rd ~srcs:[ r2; T.Imm 4 ];
    i T.Mad_lo ~dst:r1 ~srcs:[ r2; r3; r1 ];
    i T.Mad_wide ~ty:T.S64 ~dst:rd ~srcs:[ r2; r3; r1 ];
    i T.Div ~dst:r1 ~srcs:[ r2; r3 ];
    i T.Rem ~dst:r1 ~srcs:[ r2; r3 ];
    i T.Shl ~ty:T.B32 ~dst:r1 ~srcs:[ r2; T.Imm 2 ];
    i T.Shr ~ty:T.U32 ~dst:r1 ~srcs:[ r2; T.Imm 2 ];
    i T.And_ ~ty:T.B32 ~dst:r1 ~srcs:[ r2; r3 ];
    i T.Or_ ~ty:T.B32 ~dst:r1 ~srcs:[ r2; r3 ];
    i T.Xor ~ty:T.B32 ~dst:r1 ~srcs:[ r2; r3 ];
    i T.Not_ ~ty:T.B32 ~dst:r1 ~srcs:[ r2 ];
    i T.Neg ~dst:r1 ~srcs:[ r2 ];
    i T.Min ~dst:r1 ~srcs:[ r2; r3 ];
    i T.Max ~dst:r1 ~srcs:[ r2; r3 ];
    i (T.Cvt T.U32) ~ty:T.U64 ~dst:rd ~srcs:[ r1 ];
    i (T.Cvta T.Global) ~ty:T.U64 ~dst:rd ~srcs:[ rd ];
    i (T.Setp T.Lt) ~dst:p ~srcs:[ r1; r2 ];
    i (T.Setp T.Eq) ~ty:T.F32 ~dst:p ~srcs:[ f1; f2 ];
    i T.Selp ~ty:T.B32 ~dst:r1 ~srcs:[ r2; r3; p ];
    i (T.Ld T.Param_space) ~ty:T.U64 ~dst:rd ~srcs:[ T.Sym "A" ];
    i (T.Ld T.Global) ~ty:T.F32 ~dst:f1 ~srcs:[ rd ] ~offset:8;
    i (T.Ld T.Shared) ~ty:T.U32 ~dst:r1 ~srcs:[ rd ];
    i (T.St T.Global) ~ty:T.F32 ~srcs:[ rd; f1 ] ~offset:4;
    i (T.St T.Local) ~ty:T.U32 ~srcs:[ rd; r1 ];
    i (T.Atom (T.Global, "add")) ~ty:T.U32 ~dst:r1 ~srcs:[ rd; r2 ];
    i (T.Atom (T.Global, "max")) ~ty:T.U32 ~dst:r1 ~srcs:[ rd; r2 ];
    T.Label "L1";
    i (T.Bra "L1");
    i (T.Bra "L1") ~guard:(false, "%p1");
    i (T.Bra "L1") ~guard:(true, "%p1");
    i T.Bar;
    i T.Fma ~ty:T.F32 ~dst:f1 ~srcs:[ f1; f2; f1 ];
    i (T.Funary "sqrt") ~ty:T.F32 ~dst:f1 ~srcs:[ f2 ];
    i (T.Funary "rcp") ~ty:T.F32 ~dst:f1 ~srcs:[ f2 ];
    i (T.Funary "ex2") ~ty:T.F32 ~dst:f1 ~srcs:[ f2 ];
    i T.Ret;
  ]

let test_opcode_roundtrip_coverage () =
  let k =
    { T.kname = "coverage";
      kparams = [ { T.pname = "A"; pty = T.U64; pptr = true } ];
      kbody = Array.of_list all_instructions }
  in
  let text = Printer.kernel_to_string k in
  let k' = Parser.kernel_of_string text in
  Alcotest.(check int) "same instruction count" (Array.length k.T.kbody) (Array.length k'.T.kbody);
  Alcotest.(check string) "reprint identical" text (Printer.kernel_to_string k')

let test_all_types_roundtrip () =
  List.iter
    (fun ty ->
      let k =
        { T.kname = "tyk"; kparams = [];
          kbody =
            [| T.I { op = T.Mov; ty; dst = Some (T.Reg "%r1"); srcs = [ T.Imm 1 ]; offset = 0; guard = None };
               T.I { op = T.Ret; ty = T.B32; dst = None; srcs = []; offset = 0; guard = None } |] }
      in
      let text = Printer.kernel_to_string k in
      Alcotest.(check string) (T.ty_name ty) text (Printer.kernel_to_string (Parser.kernel_of_string text)))
    [ T.U16; T.U32; T.U64; T.S32; T.S64; T.F32; T.F64; T.B32; T.B64 ]

let coverage_suite =
  [
    Alcotest.test_case "roundtrip: every opcode" `Quick test_opcode_roundtrip_coverage;
    Alcotest.test_case "roundtrip: every type" `Quick test_all_types_roundtrip;
  ]

let suite = suite @ coverage_suite

(* --- parser negative cases -------------------------------------------- *)

let expect_parse_error name text =
  Alcotest.test_case name `Quick (fun () ->
      match Parser.kernels_of_string text with
      | exception Parser.Parse_error _ -> ()
      | _ -> Alcotest.fail "expected a parse error")

let negative_suite =
  [
    expect_parse_error "parser: truncated kernel" ".visible .entry k(\n)\n{\n  ret;\n";
    expect_parse_error "parser: missing header" "  mov.u32 %r1, 0;\n";
    expect_parse_error "parser: bad param" ".visible .entry k(\n  .spam .u32 n\n)\n{\n  ret;\n}\n";
    expect_parse_error "parser: bad type" ".visible .entry k(\n)\n{\n  mov.q77 %r1, 0;\n}\n";
    expect_parse_error "parser: st without address"
      ".visible .entry k(\n)\n{\n  st.global.f32 %f1, %f2;\n}\n";
    expect_parse_error "parser: ld without register"
      ".visible .entry k(\n)\n{\n  ld.global.f32 7, [%rd1];\n}\n";
    expect_parse_error "parser: bad address offset"
      ".visible .entry k(\n)\n{\n  ld.global.f32 %f1, [%rd1+zz];\n}\n";
    expect_parse_error "parser: bra without label" ".visible .entry k(\n)\n{\n  bra;\n}\n";
  ]

let test_parser_tolerates_comments_and_blanks () =
  let text =
    "// module header\n\n.visible .entry k(\n  .param .u32 n // count\n)\n{\n\n  ret; // done\n}\n"
  in
  let k = Parser.kernel_of_string text in
  Alcotest.(check string) "parsed" "k" k.T.kname

let suite =
  suite @ negative_suite
  @ [
      Alcotest.test_case "parser: comments and blanks" `Quick test_parser_tolerates_comments_and_blanks;
      expect_parse_error "parser: guard without predicate"
        ".visible .entry k(\n)\n{\n  @ bra L_END;\nL_END:\n  ret;\n}\n";
      expect_parse_error "parser: negated guard without predicate"
        ".visible .entry k(\n)\n{\n  @! bra L_END;\nL_END:\n  ret;\n}\n";
    ]

(* --- byte fuzz of the parser ------------------------------------------ *)

(* 1-3 byte edits (replace, insert, delete) of one printed suite kernel,
   see Bytefuzz.  Whatever the bytes, [Parser.kernels_of_string] returns
   kernels or raises its documented [Parse_error], nothing else. *)
let fuzz_corpus =
  lazy
    (let seen = Hashtbl.create 64 in
     List.iter
       (fun (_, mk) ->
         List.iter
           (fun (spec : Bm_gpu.Command.launch_spec) ->
             let k = spec.Bm_gpu.Command.kernel in
             if not (Hashtbl.mem seen k.T.kname) then
               Hashtbl.add seen k.T.kname (Printer.kernel_to_string k))
           (Bm_gpu.Command.launches (mk ())))
       Bm_workloads.Suite.all;
     Array.of_list (List.sort compare (Hashtbl.fold (fun _ text acc -> text :: acc) seen [])))

let prop_parser_byte_fuzz =
  let corpus = Array.length (Lazy.force fuzz_corpus) in
  QCheck2.Test.make ~name:"parser: byte-mutated kernels never raise" ~count:2000 ~long_factor:10
    ~print:(Bytefuzz.print ~what:"kernel")
    (Bytefuzz.gen ~corpus ~alphabet:"0123456789%.,;:[]+-@!{}() \nrdfpxyz")
    (fun (k, edits) ->
      match Parser.kernels_of_string (Bytefuzz.mutate (Lazy.force fuzz_corpus).(k) edits) with
      | (_ : T.kernel list) -> true
      | exception Parser.Parse_error _ -> true
      | exception e -> QCheck2.Test.fail_reportf "raised %s" (Printexc.to_string e))

let suite = suite @ [ QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 19 |]) prop_parser_byte_fuzz ]
