open Types

exception Parse_error of string

let fail lineno msg = raise (Parse_error (Printf.sprintf "line %d: %s" lineno msg))

let strip_comment line =
  match String.index_opt line '/' with
  | Some i when i + 1 < String.length line && line.[i + 1] = '/' -> String.sub line 0 i
  | Some _ | None -> line

let split_on_chars chars s =
  let buf = Buffer.create 16 in
  let out = ref [] in
  let flush () =
    if Buffer.length buf > 0 then begin
      out := Buffer.contents buf :: !out;
      Buffer.clear buf
    end
  in
  String.iter (fun c -> if List.mem c chars then flush () else Buffer.add_char buf c) s;
  flush ();
  List.rev !out

let axis_of_string lineno = function
  | "x" -> X
  | "y" -> Y
  | "z" -> Z
  | s -> fail lineno ("bad axis: " ^ s)

let special_of_string lineno s =
  match split_on_chars [ '.' ] s with
  | [ "%tid"; a ] -> Tid (axis_of_string lineno a)
  | [ "%ntid"; a ] -> Ntid (axis_of_string lineno a)
  | [ "%ctaid"; a ] -> Ctaid (axis_of_string lineno a)
  | [ "%nctaid"; a ] -> Nctaid (axis_of_string lineno a)
  | _ -> fail lineno ("bad special register: " ^ s)

let is_special s =
  List.exists
    (fun p -> String.length s > String.length p && String.sub s 0 (String.length p) = p)
    [ "%tid."; "%ntid."; "%ctaid."; "%nctaid." ]

let ty_of_string lineno = function
  | "u16" -> U16
  | "u32" -> U32
  | "u64" -> U64
  | "s32" -> S32
  | "s64" -> S64
  | "f32" -> F32
  | "f64" -> F64
  | "b32" -> B32
  | "b64" -> B64
  | "pred" -> Pred
  | s -> fail lineno ("bad type: " ^ s)

let space_of_string lineno = function
  | "global" -> Global
  | "shared" -> Shared
  | "local" -> Local
  | "param" -> Param_space
  | s -> fail lineno ("bad state space: " ^ s)

let cmp_of_string lineno = function
  | "eq" -> Eq
  | "ne" -> Ne
  | "lt" -> Lt
  | "le" -> Le
  | "gt" -> Gt
  | "ge" -> Ge
  | s -> fail lineno ("bad comparison: " ^ s)

(* Parse a bare (non-address) operand. *)
let operand_bare lineno s =
  if s = "" then fail lineno "empty operand"
  else if s.[0] = '%' then if is_special s then Sreg (special_of_string lineno s) else Reg s
  else
    match int_of_string_opt s with
    | Some n -> Imm n
    | None -> (
      match float_of_string_opt s with
      | Some f when String.length s > 0 && (s.[0] = '-' || (s.[0] >= '0' && s.[0] <= '9')) ->
        Fimm f
      | Some _ | None -> Sym s)

(* Parse an address "[base]" or "[base+off]" into (base, offset). *)
let address lineno s =
  let inner = String.sub s 1 (String.length s - 2) in
  match String.index_opt inner '+' with
  | None -> (operand_bare lineno inner, 0)
  | Some i ->
    let base = String.sub inner 0 i in
    let off = String.sub inner (i + 1) (String.length inner - i - 1) in
    (match int_of_string_opt off with
    | Some n -> (operand_bare lineno base, n)
    | None -> fail lineno ("bad address offset: " ^ off))

let operand_of_string s = operand_bare 0 (String.trim s)

type raw_operand = Bare of operand | Addr of operand * int

let raw_operand lineno s =
  let s = String.trim s in
  if String.length s >= 2 && s.[0] = '[' && s.[String.length s - 1] = ']' then
    let base, off = address lineno s in
    Addr (base, off)
  else Bare (operand_bare lineno s)

let is_modifier = function
  | "rn" | "rz" | "rm" | "rp" | "ftz" | "approx" | "full" | "sat" | "sync" | "uni" -> true
  | _ -> false

(* Decode a dotted opcode into (op, ty).  Branch targets are patched in by
   the caller since they live in the operand list. *)
let decode_opcode lineno parts =
  let last_ty rest =
    match List.rev (List.filter (fun p -> not (is_modifier p)) rest) with
    | t :: _ -> ty_of_string lineno t
    | [] -> fail lineno "missing type suffix"
  in
  match parts with
  | [] -> fail lineno "empty opcode"
  | "mov" :: rest -> (Mov, last_ty rest)
  | "add" :: rest -> (Add, last_ty rest)
  | "sub" :: rest -> (Sub, last_ty rest)
  | "mul" :: "lo" :: rest -> (Mul_lo, last_ty rest)
  | "mul" :: "wide" :: rest -> (Mul_wide, last_ty rest)
  | "mul" :: rest -> (Mul_lo, last_ty rest)
  | "mad" :: "lo" :: rest -> (Mad_lo, last_ty rest)
  | "mad" :: "wide" :: rest -> (Mad_wide, last_ty rest)
  | "div" :: rest -> (Div, last_ty rest)
  | "rem" :: rest -> (Rem, last_ty rest)
  | "shl" :: rest -> (Shl, last_ty rest)
  | "shr" :: rest -> (Shr, last_ty rest)
  | "and" :: rest -> (And_, last_ty rest)
  | "or" :: rest -> (Or_, last_ty rest)
  | "xor" :: rest -> (Xor, last_ty rest)
  | "not" :: rest -> (Not_, last_ty rest)
  | "neg" :: rest -> (Neg, last_ty rest)
  | "min" :: rest -> (Min, last_ty rest)
  | "max" :: rest -> (Max, last_ty rest)
  | "cvt" :: rest -> (
    match List.filter (fun p -> not (is_modifier p)) rest with
    | [ dst; src ] -> (Cvt (ty_of_string lineno src), ty_of_string lineno dst)
    | _ -> fail lineno "cvt needs two types")
  | "cvta" :: "to" :: sp :: rest -> (Cvta (space_of_string lineno sp), last_ty rest)
  | "setp" :: c :: rest -> (Setp (cmp_of_string lineno c), last_ty rest)
  | "selp" :: rest -> (Selp, last_ty rest)
  | "ld" :: sp :: rest -> (Ld (space_of_string lineno sp), last_ty rest)
  | "st" :: sp :: rest -> (St (space_of_string lineno sp), last_ty rest)
  | "atom" :: sp :: aop :: rest -> (Atom (space_of_string lineno sp, aop), last_ty rest)
  | [ "bra" ] -> (Bra "", B32)
  | "bar" :: _ -> (Bar, B32)
  | [ "ret" ] -> (Ret, B32)
  | "fma" :: rest -> (Fma, last_ty rest)
  | name :: rest -> (Funary name, last_ty rest)

let parse_instruction lineno line =
  let line = String.trim line in
  if String.length line >= 2 && line.[String.length line - 1] = ':' then
    Label (String.sub line 0 (String.length line - 1))
  else begin
    (* Optional guard. *)
    let guard, rest =
      if line.[0] = '@' then begin
        match String.index_opt line ' ' with
        | None -> fail lineno "guard without instruction"
        | Some sp ->
          let g = String.sub line 1 (sp - 1) in
          let guard =
            if String.starts_with ~prefix:"!" g then (true, String.sub g 1 (String.length g - 1))
            else (false, g)
          in
          if snd guard = "" then fail lineno "guard without predicate register";
          (Some guard, String.trim (String.sub line sp (String.length line - sp)))
      end
      else (None, line)
    in
    let rest =
      if String.length rest > 0 && rest.[String.length rest - 1] = ';' then
        String.sub rest 0 (String.length rest - 1)
      else rest
    in
    let opcode_text, operand_text =
      match String.index_opt rest ' ' with
      | None -> (rest, "")
      | Some sp -> (String.sub rest 0 sp, String.sub rest sp (String.length rest - sp))
    in
    let op, ty = decode_opcode lineno (split_on_chars [ '.' ] opcode_text) in
    let raw_operands =
      if String.trim operand_text = "" then []
      else List.map (raw_operand lineno) (split_on_chars [ ',' ] operand_text)
    in
    match (op, raw_operands) with
    | Bra _, [ Bare (Sym target) ] ->
      I { op = Bra target; ty; dst = None; srcs = []; offset = 0; guard }
    | Bra _, _ -> fail lineno "bra needs a label operand"
    | Bar, _ -> I { op = Bar; ty; dst = None; srcs = []; offset = 0; guard }
    | Ret, _ -> I { op = Ret; ty; dst = None; srcs = []; offset = 0; guard }
    | Ld _, [ Bare (Reg _ as d); Addr (base, offset) ] ->
      I { op; ty; dst = Some d; srcs = [ base ]; offset; guard }
    | Ld _, _ -> fail lineno "ld needs a register and an address"
    | St _, [ Addr (base, offset); Bare value ] ->
      I { op; ty; dst = None; srcs = [ base; value ]; offset; guard }
    | St _, _ -> fail lineno "st needs an address and a value"
    | Atom _, Bare (Reg _ as d) :: Addr (base, offset) :: rest ->
      let rest =
        List.map (function Bare o -> o | Addr _ -> fail lineno "unexpected address") rest
      in
      I { op; ty; dst = Some d; srcs = base :: rest; offset; guard }
    | Atom _, _ -> fail lineno "atom needs a register and an address"
    | _, Bare (Reg _ as d) :: rest ->
      let rest =
        List.map (function Bare o -> o | Addr _ -> fail lineno "unexpected address") rest
      in
      I { op; ty; dst = Some d; srcs = rest; offset = 0; guard }
    | _, [] -> I { op; ty; dst = None; srcs = []; offset = 0; guard }
    | _, _ -> fail lineno "expected a destination register"
  end

let parse_param lineno line =
  (* ".param .u64 .ptr NAME" or ".param .u32 NAME", possibly with a comma. *)
  let line = String.trim line in
  let line =
    if String.length line > 0 && line.[String.length line - 1] = ',' then
      String.sub line 0 (String.length line - 1)
    else line
  in
  match split_on_chars [ ' '; '\t' ] line with
  | [ ".param"; ty; ".ptr"; name ] when String.length ty > 1 && ty.[0] = '.' ->
    { pname = name; pty = ty_of_string lineno (String.sub ty 1 (String.length ty - 1)); pptr = true }
  | [ ".param"; ty; name ] when String.length ty > 1 && ty.[0] = '.' ->
    { pname = name; pty = ty_of_string lineno (String.sub ty 1 (String.length ty - 1)); pptr = false }
  | _ -> fail lineno ("bad parameter declaration: " ^ line)

type state = Toplevel | In_params of string * param list | In_body of string * param list * instr list

let kernels_of_string text =
  let lines = String.split_on_char '\n' text in
  let kernels = ref [] in
  let state = ref Toplevel in
  List.iteri
    (fun idx raw ->
      let lineno = idx + 1 in
      let line = String.trim (strip_comment raw) in
      if line <> "" then
        match !state with
        | Toplevel ->
          if String.length line >= 7 && String.sub line 0 7 = ".visibl" then begin
            (* ".visible .entry NAME(" *)
            let tokens = split_on_chars [ ' '; '\t'; '(' ] line in
            match tokens with
            | [ ".visible"; ".entry"; name ] -> state := In_params (name, [])
            | _ -> fail lineno ("bad kernel header: " ^ line)
          end
          else fail lineno ("expected kernel header, got: " ^ line)
        | In_params (name, params) ->
          if line = ")" then state := In_body (name, List.rev params, [])
          else if line = "{" then ()
          else state := In_params (name, parse_param lineno line :: params)
        | In_body (name, params, body) ->
          if line = "{" then ()
          else if line = "}" then begin
            kernels := { kname = name; kparams = params; kbody = Array.of_list (List.rev body) } :: !kernels;
            state := Toplevel
          end
          else state := In_body (name, params, parse_instruction lineno line :: body))
    lines;
  (match !state with
  | Toplevel -> ()
  | In_params _ | In_body _ -> raise (Parse_error "unexpected end of input"));
  List.rev !kernels

let kernel_of_string text =
  match kernels_of_string text with
  | [ k ] -> k
  | ks -> raise (Parse_error (Printf.sprintf "expected exactly one kernel, found %d" (List.length ks)))
