(* geomean and mean share one empty-input contract: raise.  A silent
   default (the old 1.0 / 0.0 split) turns a filtered-to-nothing sweep
   into a plausible-looking summary figure. *)
let geomean xs =
  if xs = [] then invalid_arg "Report.geomean: empty";
  let xs = List.filter (fun x -> x > 0.0) xs in
  match xs with
  | [] -> invalid_arg "Report.geomean: no positive entries"
  | _ ->
    let sum = List.fold_left (fun acc x -> acc +. log x) 0.0 xs in
    exp (sum /. float_of_int (List.length xs))

let mean = function
  | [] -> invalid_arg "Report.mean: empty"
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* Stdlib's ternary heap sort ([Array.sort]) specialized to a NaN-free
   float array: the same comparisons in the same order, so equal keys
   ([0.0] and [-0.0]) land where [Array.sort compare] puts them, but on
   unboxed floats, with no comparison closure and the recursion unrolled
   into loops (a float crossing a call would be boxed). *)
let sort_floats (a : float array) =
  (* The greatest of [i]'s up to three sons in the heap [a.(0 .. l - 1)],
     or -1 when it has none. *)
  let maxson l i =
    let i31 = i + i + i + 1 in
    if i31 + 2 < l then begin
      let x = if a.(i31) < a.(i31 + 1) then i31 + 1 else i31 in
      if a.(x) < a.(i31 + 2) then i31 + 2 else x
    end
    else if i31 + 1 < l && a.(i31) < a.(i31 + 1) then i31 + 1
    else if i31 < l then i31
    else -1
  in
  let l = Array.length a in
  for i = ((l + 1) / 3) - 1 downto 0 do
    let e = a.(i) and k = ref i and go = ref true in
    while !go do
      let j = maxson l !k in
      if j >= 0 && a.(j) > e then begin
        a.(!k) <- a.(j);
        k := j
      end
      else begin
        a.(!k) <- e;
        go := false
      end
    done
  done;
  for i = l - 1 downto 2 do
    let e = a.(i) in
    a.(i) <- a.(0);
    let k = ref 0 and j = ref (maxson i 0) in
    while !j >= 0 do
      a.(!k) <- a.(!j);
      k := !j;
      j := maxson i !k
    done;
    let go = ref true in
    while !go do
      let father = (!k - 1) / 3 in
      if a.(father) < e then begin
        a.(!k) <- a.(father);
        if father > 0 then k := father
        else begin
          a.(0) <- e;
          go := false
        end
      end
      else begin
        a.(!k) <- e;
        go := false
      end
    done
  done;
  if l > 1 then begin
    let e = a.(1) in
    a.(1) <- a.(0);
    a.(0) <- e
  end

(* The non-NaN entries, sorted once.  NaNs are skipped rather than sorted:
   [compare] orders nan below every float, which would silently shift
   every rank. *)
let sorted_finite what (xs : float array) =
  let n = ref 0 in
  for i = 0 to Array.length xs - 1 do
    if not (Float.is_nan xs.(i)) then incr n
  done;
  if !n = 0 then invalid_arg ("Report." ^ what ^ ": empty");
  let s =
    if !n = Array.length xs then Array.copy xs
    else begin
      let s = Array.make !n 0.0 and k = ref 0 in
      for i = 0 to Array.length xs - 1 do
        if not (Float.is_nan xs.(i)) then begin
          s.(!k) <- xs.(i);
          incr k
        end
      done;
      s
    end
  in
  sort_floats s;
  s

(* Linear interpolation between the closest ranks of [sorted]. *)
let rank_value (sorted : float array) p =
  let n = Array.length sorted in
  if n = 1 then sorted.(0)
  else begin
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (floor rank) in
    let hi = min (n - 1) (lo + 1) in
    let frac = rank -. float_of_int lo in
    (sorted.(lo) *. (1.0 -. frac)) +. (sorted.(hi) *. frac)
  end

let percentiles xs ps =
  Array.iter
    (fun p ->
      if Float.is_nan p || p < 0.0 || p > 100.0 then invalid_arg "Report.percentile: p out of [0,100]")
    ps;
  let sorted = sorted_finite "percentile" xs in
  Array.map (rank_value sorted) ps

let percentile xs p = (percentiles xs [| p |]).(0)

let quartiles xs =
  let sorted = sorted_finite "percentile" xs in
  (rank_value sorted 25.0, rank_value sorted 50.0, rank_value sorted 75.0)

type table = {
  title : string;
  columns : string list;
  mutable rows : string list list;  (* reversed *)
}

let table ~title ~columns = { title; columns; rows = [] }

let row t cells =
  if List.length cells <> List.length t.columns then
    invalid_arg "Report.row: cell count mismatch";
  t.rows <- cells :: t.rows

(* Column alignment must count displayed characters, not bytes: a UTF-8
   cell (kernel names are user-supplied) is wider in bytes than on screen.
   Counting non-continuation bytes (those not matching 10xxxxxx) gives the
   scalar count without decoding; invalid bytes count as one column each,
   matching how terminals render replacement characters. *)
let utf8_length s =
  let n = ref 0 in
  String.iter (fun c -> if Char.code c land 0xC0 <> 0x80 then incr n) s;
  !n

let to_string t =
  let buf = Buffer.create 1024 in
  let rows = List.rev t.rows in
  let all = t.columns :: rows in
  let ncols = List.length t.columns in
  let widths = Array.make ncols 0 in
  List.iter
    (List.iteri (fun i cell -> widths.(i) <- max widths.(i) (utf8_length cell)))
    all;
  let line c =
    Buffer.add_char buf '+';
    Array.iter (fun w -> Buffer.add_string buf (String.make (w + 2) c ^ "+")) widths;
    Buffer.add_char buf '\n'
  in
  let add_row cells =
    Buffer.add_char buf '|';
    List.iteri
      (fun i cell ->
        (* Manual padding: Printf's %-*s pads by bytes. *)
        let pad = String.make (widths.(i) - utf8_length cell) ' ' in
        Buffer.add_string buf (" " ^ cell ^ pad ^ " |"))
      cells;
    Buffer.add_char buf '\n'
  in
  Buffer.add_string buf (Printf.sprintf "\n== %s ==\n" t.title);
  line '-';
  add_row t.columns;
  line '=';
  List.iter add_row rows;
  line '-';
  Buffer.contents buf

let print t = print_string (to_string t)

let pct speedup = Printf.sprintf "%+.1f%%" ((speedup -. 1.0) *. 100.0)

let f2 x = Printf.sprintf "%.2f" x

(* RFC 4180 field quoting, shared by every CSV exporter in the repo
   (Bm_report.Trace, Bm_metrics) so kernel names with commas/quotes/newlines
   cannot corrupt a row. *)
let csv_field s =
  let needs_quoting =
    String.exists (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r') s
  in
  if not needs_quoting then s
  else begin
    let buf = Buffer.create (String.length s + 8) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buf "\"\"" else Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"';
    Buffer.contents buf
  end
