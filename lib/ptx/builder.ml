open Types

type t = {
  name : string;
  mutable params : param list;
  mutable body : instr list;  (* reversed *)
  mutable next_r : int;
  mutable next_rd : int;
  mutable next_f : int;
  mutable next_p : int;
  mutable next_label : int;
  param_regs : (string, operand) Hashtbl.t;
  end_label : string;
  mutable uses_end : bool;
}

let create name =
  {
    name;
    params = [];
    body = [];
    next_r = 1;
    next_rd = 1;
    next_f = 1;
    next_p = 1;
    next_label = 1;
    param_regs = Hashtbl.create 8;
    end_label = "BB_RET";
    uses_end = false;
  }

let fresh_r t =
  let r = Reg (Printf.sprintf "%%r%d" t.next_r) in
  t.next_r <- t.next_r + 1;
  r

let fresh_rd t =
  let r = Reg (Printf.sprintf "%%rd%d" t.next_rd) in
  t.next_rd <- t.next_rd + 1;
  r

let fresh_f t =
  let r = Reg (Printf.sprintf "%%f%d" t.next_f) in
  t.next_f <- t.next_f + 1;
  r

let fresh_p t =
  let r = Reg (Printf.sprintf "%%p%d" t.next_p) in
  t.next_p <- t.next_p + 1;
  r

let fresh_label t prefix =
  let l = Printf.sprintf "%s_%d" prefix t.next_label in
  t.next_label <- t.next_label + 1;
  l

let emit t i = t.body <- i :: t.body

let simple t op ty dst srcs = emit t (I { op; ty; dst; srcs; offset = 0; guard = None })

let param_ptr t name =
  match Hashtbl.find_opt t.param_regs name with
  | Some r -> r
  | None ->
    t.params <- t.params @ [ { pname = name; pty = U64; pptr = true } ];
    let raw = fresh_rd t in
    let cvt = fresh_rd t in
    emit t (I { op = Ld Param_space; ty = U64; dst = Some raw; srcs = [ Sym name ]; offset = 0; guard = None });
    simple t (Cvta Global) U64 (Some cvt) [ raw ];
    Hashtbl.add t.param_regs name cvt;
    cvt

let param_u32 t name =
  match Hashtbl.find_opt t.param_regs name with
  | Some r -> r
  | None ->
    t.params <- t.params @ [ { pname = name; pty = U32; pptr = false } ];
    let r = fresh_r t in
    emit t (I { op = Ld Param_space; ty = U32; dst = Some r; srcs = [ Sym name ]; offset = 0; guard = None });
    Hashtbl.add t.param_regs name r;
    r

let mov_u32 t src =
  let d = fresh_r t in
  simple t Mov U32 (Some d) [ src ];
  d

let binop t op x y =
  let d = fresh_r t in
  simple t op U32 (Some d) [ x; y ];
  d

let add_u32 t x y = binop t Add x y
let sub_u32 t x y = binop t Sub x y
let mul_lo_u32 t x y = binop t Mul_lo x y
let div_u32 t x y = binop t Div x y
let rem_u32 t x y = binop t Rem x y
let min_u32 t x y = binop t Min x y
let max_u32 t x y = binop t Max x y

let mad_lo_u32 t a b c =
  let d = fresh_r t in
  simple t Mad_lo S32 (Some d) [ a; b; c ];
  d

let shl_u32 t x k = binop t Shl x (Imm k)

let global_linear_index t =
  let ctaid = mov_u32 t (Sreg (Ctaid X)) in
  let ntid = mov_u32 t (Sreg (Ntid X)) in
  let tid = mov_u32 t (Sreg (Tid X)) in
  mad_lo_u32 t ctaid ntid tid

let block_index t = mov_u32 t (Sreg (Ctaid X))

let elem_addr t ~base ~index ~scale =
  let wide = fresh_rd t in
  simple t Mul_wide S32 (Some wide) [ index; Imm scale ];
  let addr = fresh_rd t in
  simple t Add S64 (Some addr) [ base; wide ];
  addr

let ld_global_f32 t ~addr ~offset =
  let d = fresh_f t in
  emit t (I { op = Ld Global; ty = F32; dst = Some d; srcs = [ addr ]; offset; guard = None });
  d

let st_global_f32 t ~addr ~offset ~value =
  emit t (I { op = St Global; ty = F32; dst = None; srcs = [ addr; value ]; offset; guard = None })

let ld_global_indirect_f32 t ~index_addr ~base =
  let idx = fresh_r t in
  emit t (I { op = Ld Global; ty = U32; dst = Some idx; srcs = [ index_addr ]; offset = 0; guard = None });
  let addr = elem_addr t ~base ~index:idx ~scale:4 in
  ld_global_f32 t ~addr ~offset:0

let guard_return_if_ge t index bound =
  let p = fresh_p t in
  (match p with
  | Reg pr ->
    simple t (Setp Ge) S32 (Some p) [ index; bound ];
    t.uses_end <- true;
    emit t (I { op = Bra t.end_label; ty = B32; dst = None; srcs = []; offset = 0; guard = Some (false, pr) })
  | Imm _ | Fimm _ | Sreg _ | Sym _ -> assert false)

let fcompute t n inputs =
  let acc = fresh_f t in
  simple t Mov F32 (Some acc) [ Fimm 0.0 ];
  let inputs = if inputs = [] then [ acc ] else inputs in
  let narr = Array.of_list inputs in
  let cur = ref acc in
  for i = 0 to n - 1 do
    let d = fresh_f t in
    let x = narr.(i mod Array.length narr) in
    simple t Fma F32 (Some d) [ x; !cur; x ];
    cur := d
  done;
  !cur

let loop t ~init ~bound ~step body =
  let head = fresh_label t "BB_LOOP" in
  let exit = fresh_label t "BB_EXIT" in
  let counter = mov_u32 t init in
  let counter_reg = match counter with Reg r -> r | _ -> assert false in
  emit t (Label head);
  let p = fresh_p t in
  let pr = match p with Reg r -> r | _ -> assert false in
  simple t (Setp Ge) S32 (Some p) [ counter; bound ];
  emit t (I { op = Bra exit; ty = B32; dst = None; srcs = []; offset = 0; guard = Some (false, pr) });
  body counter;
  (* Increment in place: the induction register is redefined, which is what
     real PTX does and what the induction-variable recognizer expects. *)
  emit t
    (I
       {
         op = Add;
         ty = U32;
         dst = Some (Reg counter_reg);
         srcs = [ Reg counter_reg; Imm step ];
         offset = 0;
         guard = None;
       });
  emit t (I { op = Bra head; ty = B32; dst = None; srcs = []; offset = 0; guard = None });
  emit t (Label exit)

let finish t =
  if t.uses_end then emit t (Label t.end_label);
  emit t (I { op = Ret; ty = B32; dst = None; srcs = []; offset = 0; guard = None });
  { kname = t.name; kparams = t.params; kbody = Array.of_list (List.rev t.body) }

let global_linear_index_2d t ~width =
  let cx = mov_u32 t (Sreg (Ctaid X)) in
  let nx = mov_u32 t (Sreg (Ntid X)) in
  let tx = mov_u32 t (Sreg (Tid X)) in
  let col = mad_lo_u32 t cx nx tx in
  let cy = mov_u32 t (Sreg (Ctaid Y)) in
  let ny = mov_u32 t (Sreg (Ntid Y)) in
  let ty = mov_u32 t (Sreg (Tid Y)) in
  let row = mad_lo_u32 t cy ny ty in
  let base = mul_lo_u32 t row width in
  add_u32 t base col
