(* Minimal JSON tree, emitter and recursive-descent parser.

   The repo deliberately carries no third-party JSON dependency; the trace
   exporter hand-rolls its output and the BENCH trajectory files need to be
   read back for regression comparison, so this module centralizes both
   directions.  The emitter is deterministic (object fields keep insertion
   order) so committed BENCH_*.json files diff cleanly across PRs. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* --- emitter ----------------------------------------------------------- *)

let needs_escape c = c = '"' || c = '\\' || Char.code c < 0x20

let add_escaped buf s =
  if not (String.exists needs_escape s) then Buffer.add_string buf s
  else
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s

(* Integral values below 1e15 print as [%.0f] would, without going
   through Printf: [string_of_int] of the truncation, except that -0.0
   keeps its sign ("-0"). *)
let number_to_string x =
  if Float.is_integer x && Float.abs x < 1e15 then
    if x = 0.0 && Float.sign_bit x then "-0" else string_of_int (int_of_float x)
  else Printf.sprintf "%.12g" x

let to_string ?(pretty = false) t =
  let buf = Buffer.create 4096 in
  let indent n = if pretty then Buffer.add_string buf (String.make (2 * n) ' ') in
  let nl () = if pretty then Buffer.add_char buf '\n' in
  let rec go depth = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Num x ->
      (* JSON has no NaN/infinity; degrade to null rather than emit garbage. *)
      if Float.is_nan x || Float.abs x = infinity then Buffer.add_string buf "null"
      else Buffer.add_string buf (number_to_string x)
    | Str s ->
      Buffer.add_char buf '"';
      add_escaped buf s;
      Buffer.add_char buf '"'
    | Arr [] -> Buffer.add_string buf "[]"
    | Arr xs ->
      Buffer.add_char buf '[';
      nl ();
      List.iteri
        (fun i x ->
          if i > 0 then begin
            Buffer.add_char buf ',';
            nl ()
          end;
          indent (depth + 1);
          go (depth + 1) x)
        xs;
      nl ();
      indent depth;
      Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj fields ->
      Buffer.add_char buf '{';
      nl ();
      List.iteri
        (fun i (k, v) ->
          if i > 0 then begin
            Buffer.add_char buf ',';
            nl ()
          end;
          indent (depth + 1);
          Buffer.add_char buf '"';
          add_escaped buf k;
          Buffer.add_string buf (if pretty then "\": " else "\":");
          go (depth + 1) v)
        fields;
      nl ();
      indent depth;
      Buffer.add_char buf '}'
  in
  go 0 t;
  if pretty then Buffer.add_char buf '\n';
  Buffer.contents buf

(* --- parser ------------------------------------------------------------ *)

exception Parse_error of string

let parse_error pos fmt =
  Printf.ksprintf (fun msg -> raise (Parse_error (Printf.sprintf "at byte %d: %s" pos msg))) fmt

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | Some c' -> parse_error !pos "expected %c, found %c" c c'
    | None -> parse_error !pos "expected %c, found end of input" c
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      value
    end
    else parse_error !pos "invalid literal"
  in
  let parse_string () =
    expect '"';
    (* Bulk-scan the clean run up to the next quote or escape: a string
       with no escapes at all — the common case, and megabytes at a time
       for the disk store's packed payloads — is a single substring copy
       instead of a char-by-char Buffer fill. *)
    let scan_clean from =
      let i = ref from in
      while
        !i < n
        &&
        let c = s.[!i] in
        c <> '"' && c <> '\\'
      do
        incr i
      done;
      !i
    in
    let start = !pos in
    let first = scan_clean start in
    if first >= n then parse_error first "unterminated string"
    else if s.[first] = '"' then begin
      pos := first + 1;
      String.sub s start (first - start)
    end
    else begin
      let buf = Buffer.create (first - start + 16) in
      Buffer.add_substring buf s start (first - start);
      pos := first;
      let rec loop () =
      if !pos >= n then parse_error !pos "unterminated string";
      let c = s.[!pos] in
      advance ();
      match c with
      | '"' -> Buffer.contents buf
      | '\\' ->
        (if !pos >= n then parse_error !pos "unterminated escape";
         let e = s.[!pos] in
         advance ();
         match e with
         | '"' -> Buffer.add_char buf '"'
         | '\\' -> Buffer.add_char buf '\\'
         | '/' -> Buffer.add_char buf '/'
         | 'n' -> Buffer.add_char buf '\n'
         | 't' -> Buffer.add_char buf '\t'
         | 'r' -> Buffer.add_char buf '\r'
         | 'b' -> Buffer.add_char buf '\b'
         | 'f' -> Buffer.add_char buf '\012'
         | 'u' ->
           if !pos + 4 > n then parse_error !pos "truncated \\u escape";
           let hex = String.sub s !pos 4 in
           pos := !pos + 4;
           let code =
             try int_of_string ("0x" ^ hex)
             with _ -> parse_error !pos "invalid \\u escape %S" hex
           in
           (* Encode the BMP codepoint as UTF-8 (surrogate pairs degrade to
              two 3-byte sequences, which is fine for our metric names). *)
           if code < 0x80 then Buffer.add_char buf (Char.chr code)
           else if code < 0x800 then begin
             Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
             Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
           end
           else begin
             Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
             Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
             Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
           end
         | c -> parse_error !pos "invalid escape \\%c" c);
        loop ()
      | c ->
        Buffer.add_char buf c;
        let next = scan_clean !pos in
        Buffer.add_substring buf s !pos (next - !pos);
        pos := next;
        loop ()
    in
      loop ()
    end
  in
  (* Strict RFC 8259 number grammar:
       number = [ "-" ] int [ frac ] [ exp ]
       int    = "0" / digit1-9 *digit
       frac   = "." 1*digit
       exp    = ("e" / "E") [ "-" / "+" ] 1*digit
     [float_of_string] alone would also accept OCaml-only literals — [nan],
     [infinity], [1_000], hex floats like [0x1p3], a leading [+] — which
     must not round-trip from BENCH files written by other tools. *)
  let parse_number () =
    let start = !pos in
    let digit c = c >= '0' && c <= '9' in
    let at_digit () = !pos < n && digit s.[!pos] in
    let digits1 what =
      if not (at_digit ()) then parse_error !pos "expected digit in %s" what;
      while at_digit () do
        advance ()
      done
    in
    if peek () = Some '-' then advance ();
    (match peek () with
    | Some '0' -> advance () (* a leading zero must stand alone: no 0123 *)
    | Some c when digit c -> digits1 "number"
    | Some _ | None -> parse_error !pos "expected digit in number");
    if peek () = Some '.' then begin
      advance ();
      digits1 "fraction"
    end;
    (match peek () with
    | Some ('e' | 'E') ->
      advance ();
      (match peek () with Some ('+' | '-') -> advance () | Some _ | None -> ());
      digits1 "exponent"
    | Some _ | None -> ());
    let tok = String.sub s start (!pos - start) in
    match float_of_string_opt tok with
    | Some x -> Num x
    | None -> parse_error start "invalid number %S" tok
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> parse_error !pos "unexpected end of input"
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let fields = ref [] in
        let rec members () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          fields := (k, v) :: !fields;
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); members ()
          | Some '}' -> advance ()
          | _ -> parse_error !pos "expected , or } in object"
        in
        members ();
        Obj (List.rev !fields)
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        Arr []
      end
      else begin
        let items = ref [] in
        let rec elements () =
          let v = parse_value () in
          items := v :: !items;
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); elements ()
          | Some ']' -> advance ()
          | _ -> parse_error !pos "expected , or ] in array"
        in
        elements ();
        Arr (List.rev !items)
      end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
  in
  match parse_value () with
  | v ->
    skip_ws ();
    if !pos <> n then Error (Printf.sprintf "at byte %d: trailing garbage" !pos) else Ok v
  | exception Parse_error msg -> Error msg

(* --- accessors --------------------------------------------------------- *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_float = function Num x -> Some x | Null -> Some nan | _ -> None
let to_int = function Num x when Float.is_integer x -> Some (int_of_float x) | _ -> None
let to_str = function Str s -> Some s | _ -> None
let to_list = function Arr xs -> Some xs | _ -> None
let to_obj = function Obj fields -> Some fields | _ -> None
