(* Shared JSON codec helpers for the persistence layers (captured graphs
   in Graph, the disk-backed analysis store): one codec per
   value, so a relation, an integer array or a cost profile has the same
   bytes in both.  Floats persist as IEEE-754 bit patterns: the JSON
   emitter prints numbers with %.12g, which is lossy, and both replay and
   disk-warm preparation must be bit-identical to the fresh
   computation. *)

module Json = Bm_metrics.Json
module Bipartite = Bm_depgraph.Bipartite
module Costmodel = Bm_gpu.Costmodel

exception Bad of string

let bad fmt = Printf.ksprintf (fun msg -> raise (Bad msg)) fmt

let json_of_float f = Json.Str (Printf.sprintf "%016Lx" (Int64.bits_of_float f))

let float_of_json ~what = function
  | Json.Str s when String.length s = 16 -> (
    match Int64.of_string_opt ("0x" ^ s) with
    | Some bits -> Int64.float_of_bits bits
    | None -> bad "%s: invalid float bits %S" what s)
  | _ -> bad "%s: expected a 16-hex-digit float" what

let int_of_json ~what j =
  match Json.to_int j with Some i -> i | None -> bad "%s: expected an integer" what

let str_of_json ~what j =
  match Json.to_str j with Some s -> s | None -> bad "%s: expected a string" what

let list_of_json ~what j =
  match Json.to_list j with Some l -> l | None -> bad "%s: expected an array" what

let field ~what name j =
  match Json.member name j with Some v -> v | None -> bad "%s: missing field %S" what name

let int_field ~what name j = int_of_json ~what:(what ^ "." ^ name) (field ~what name j)
let str_field ~what name j = str_of_json ~what:(what ^ "." ^ name) (field ~what name j)

(* Delta + run-length packing: persisted integer payloads are dominated
   by structured sequences — monotone id lists, affine per-TB address
   progressions, step-function parent maps — whose successive differences
   are long runs of one constant.  The token stream covers the DELTA
   sequence (the first delta is from 0): [D] is one delta, [N*D] repeats
   delta D N times.  A structureless sequence degrades to one token per
   element. *)

(* [iter emit] calls [emit] on each element in order. *)
let json_of_packed_ints iter =
  let buf = Buffer.create 256 in
  let emit n d =
    if Buffer.length buf > 0 then Buffer.add_char buf ',';
    if n > 1 then begin
      Buffer.add_string buf (string_of_int n);
      Buffer.add_char buf '*'
    end;
    Buffer.add_string buf (string_of_int d)
  in
  let prev = ref 0 in
  let run_d = ref 0 in
  let run_n = ref 0 in
  iter (fun v ->
      let d = v - !prev in
      prev := v;
      if !run_n > 0 && d = !run_d then incr run_n
      else begin
        if !run_n > 0 then emit !run_n !run_d;
        run_d := d;
        run_n := 1
      end);
  if !run_n > 0 then emit !run_n !run_d;
  Json.Str (Buffer.contents buf)

let json_of_packed_ints_rle a = json_of_packed_ints (fun emit -> Array.iter emit a)

(* Decoded payloads are capped so a garbled repeat count reads as Bad
   rather than an allocation blow-up: every decode covers hostile file
   contents.  The caller's [limit] is the tightest length it knows (a
   node's TB count, a launch grid, a buffer list); [max_packed_elems] caps
   it, and a run that would pass it is rejected before the array grows. *)
let max_packed_elems = 1 lsl 30

(* Room in the doubling array [out], holding [total] elements, for [extra]
   more, or Bad past [limit]. *)
let ensure ~what ~limit out total extra zero =
  let need = total + extra in
  if need > limit then bad "%s: packed payload longer than %d elements" what limit;
  let cap = Array.length !out in
  if need > cap then begin
    let ncap = ref (cap * 2) in
    while !ncap < need do
      ncap := !ncap * 2
    done;
    let na = Array.make !ncap zero in
    Array.blit !out 0 na 0 total;
    out := na
  end

let packed_ints_rle_of_json ~what ~limit j =
  let limit = min limit max_packed_elems in
  let s = str_of_json ~what j in
  let n = String.length s in
  if n = 0 then [||]
  else begin
    let digit c = c >= '0' && c <= '9' in
    let pos = ref 0 in
    let parse_int () =
      let neg = !pos < n && s.[!pos] = '-' in
      if neg then incr pos;
      if not (!pos < n && digit s.[!pos]) then bad "%s: malformed packed integer" what;
      let v = ref 0 in
      while !pos < n && digit s.[!pos] do
        v := (!v * 10) + (Char.code s.[!pos] - Char.code '0');
        incr pos
      done;
      if neg then - !v else !v
    in
    (* One pass over the token stream into a doubling array (amortized
       O(n)); parsing twice just to pre-size costs more than the copies.
       Each token is at least two characters, so [n/2] elements covers
       every payload with no run longer than its own text. *)
    let out = ref (Array.make (max 16 ((n / 2) + 1)) 0) in
    let total = ref 0 in
    let ensure extra = ensure ~what ~limit out !total extra 0 in
    let prev = ref 0 in
    let first = ref true in
    while !pos < n do
      if not !first then
        if s.[!pos] = ',' then incr pos else bad "%s: malformed packed run" what;
      first := false;
      let x = parse_int () in
      let reps, d =
        if !pos < n && s.[!pos] = '*' then begin
          incr pos;
          if x < 1 || x > limit then bad "%s: bad repeat count" what;
          (x, parse_int ())
        end
        else (1, x)
      in
      ensure reps;
      let o = !out in
      for k = !total to !total + reps - 1 do
        prev := !prev + d;
        o.(k) <- !prev
      done;
      total := !total + reps
    done;
    if !total = Array.length !out then !out else Array.sub !out 0 !total
  end

(* Float payloads run-length over identical IEEE-754 bit patterns (no
   deltas — repeated per-TB costs repeat exactly): [HEX] or [N*HEX]. *)
let add_float_run buf n bits =
  if Buffer.length buf > 0 then Buffer.add_char buf ',';
  if n > 1 then begin
    Buffer.add_string buf (string_of_int n);
    Buffer.add_char buf '*'
  end;
  Buffer.add_string buf (Printf.sprintf "%016Lx" bits)

let json_of_packed_floats_rle a =
  let buf = Buffer.create 256 in
  let run_bits = ref 0L in
  let run_n = ref 0 in
  Array.iter
    (fun f ->
      let bits = Int64.bits_of_float f in
      if !run_n > 0 && bits = !run_bits then incr run_n
      else begin
        if !run_n > 0 then add_float_run buf !run_n !run_bits;
        run_bits := bits;
        run_n := 1
      end)
    a;
  if !run_n > 0 then add_float_run buf !run_n !run_bits;
  Json.Str (Buffer.contents buf)

(* [n] copies of [x], as [json_of_packed_floats_rle] writes them. *)
let json_of_float_run n x =
  let buf = Buffer.create 24 in
  if n > 0 then add_float_run buf n (Int64.bits_of_float x);
  Json.Str (Buffer.contents buf)

(* Checks each token of the packed-float string [s] and calls [f reps x]
   on it, in order; [Bad] before a token that would take the total past
   [limit]. *)
let iter_float_runs ~what ~limit s f =
  let limit = min limit max_packed_elems in
  let n = String.length s in
  let digit c = c >= '0' && c <= '9' in
  let pos = ref 0 in
  let parse_count () =
    let v = ref 0 in
    if not (!pos < n && digit s.[!pos]) then bad "%s: malformed repeat count" what;
    while !pos < n && digit s.[!pos] do
      v := (!v * 10) + (Char.code s.[!pos] - Char.code '0');
      incr pos
    done;
    !v
  in
  let nib c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> bad "%s: invalid hex digit %C in packed floats" what c
  in
  let parse_hex () =
    if !pos + 16 > n then bad "%s: truncated float bits" what;
    let bits = ref 0L in
    for k = !pos to !pos + 15 do
      bits := Int64.logor (Int64.shift_left !bits 4) (Int64.of_int (nib s.[k]))
    done;
    pos := !pos + 16;
    !bits
  in
  let total = ref 0 in
  while !pos < n do
    if !pos > 0 then
      if s.[!pos] = ',' then incr pos else bad "%s: malformed packed run" what;
    (* [N*HEX] when a '*' follows a decimal prefix; a bare token is all
       hex, so a leading digit run is only a count if '*' terminates it. *)
    let star =
      let i = ref !pos in
      while !i < n && digit s.[!i] do
        incr i
      done;
      !i < n && s.[!i] = '*'
    in
    let reps =
      if star then begin
        let r = parse_count () in
        if r < 1 || r > limit then bad "%s: bad repeat count" what;
        incr pos;
        r
      end
      else 1
    in
    let bits = parse_hex () in
    if !total + reps > limit then bad "%s: packed payload longer than %d elements" what limit;
    f reps (Int64.float_of_bits bits);
    total := !total + reps
  done

let packed_floats_rle_of_json ~what ~limit j =
  let s = str_of_json ~what j in
  if s = "" then [||]
  else begin
    (* One pass into a doubling array, as for the integer payloads; a
       token is at least 16 hex digits, sizing the common exact case. *)
    let out = ref (Array.make (max 16 ((String.length s / 16) + 1)) 0.0) in
    let total = ref 0 in
    iter_float_runs ~what ~limit s (fun reps f ->
        ensure ~what ~limit out !total reps 0.0;
        Array.fill !out !total reps f;
        total := !total + reps);
    if !total = Array.length !out then !out else Array.sub !out 0 !total
  end

(* Relations persist in their Table I form, one payload per case, every
   array a packed-integer string.  Decode builds the graph the payload
   denotes through [Bipartite]'s builders, which pick the canonical form,
   so a hand-written payload in another form still decodes exactly. *)
let json_of_relation ~n_parents ~n_children rel =
  let ja i = Json.Num (float_of_int i) in
  let obj k fields = Json.Obj (("k", Json.Str k) :: fields) in
  match rel with
  | Bipartite.Independent -> obj "ind" [ ("np", ja n_parents); ("nc", ja n_children) ]
  | Bipartite.Fully_connected -> obj "full" [ ("np", ja n_parents); ("nc", ja n_children) ]
  | Bipartite.Graph g -> (
    let np = ("np", ja g.Bipartite.n_parents) and nc = g.Bipartite.n_children in
    match g.Bipartite.form with
    | Bipartite.One_to_one -> obj "o2o" [ ("n", ja nc) ]
    | Bipartite.One_to_n { parent_of; _ } -> obj "o2n" [ np; ("po", json_of_packed_ints_rle parent_of) ]
    | Bipartite.N_to_one { child_of; _ } ->
      obj "n2o" [ ("nc", ja nc); ("co", json_of_packed_ints_rle child_of) ]
    | Bipartite.N_group { group_of_parent; group_of_child; _ } ->
      obj "grp"
        [
          ("gp", json_of_packed_ints_rle group_of_parent);
          ("gc", json_of_packed_ints_rle group_of_child);
        ]
    | Bipartite.Overlapped { first; len; _ } ->
      let windows emit =
        Array.iteri
          (fun c f ->
            emit f;
            emit len.(c))
          first
      in
      obj "ovl" [ np; ("w", json_of_packed_ints windows) ]
    | Bipartite.Irregular { par_off; pars; _ } ->
      let rows emit =
        emit nc;
        for c = 0 to nc - 1 do
          emit (par_off.(c + 1) - par_off.(c));
          for i = par_off.(c) to par_off.(c + 1) - 1 do
            emit pars.(i)
          done
        done
      in
      obj "irr" [ np; ("po", json_of_packed_ints rows) ])

(* The dimensions come from the encoding itself: [ind]/[full] carry both,
   every other form carries one and implies the other by a payload
   length.  Every stated dimension and payload is bounded by the caller's
   [max_parents]/[max_children] before anything of that size is built. *)
let sized_relation_of_json ~max_parents ~max_children j =
  let what = "relation" in
  let mp = min max_parents max_packed_elems and mc = min max_children max_packed_elems in
  let dim name bound v =
    if v < 0 || v > bound then
      bad "%s.%s: %d nodes, not in the 0..%d TBs it may relate" what name v bound;
    v
  in
  let np () = dim "np" mp (int_field ~what "np" j) and nc () = dim "nc" mc (int_field ~what "nc" j) in
  let ints name limit = packed_ints_rle_of_json ~what ~limit (field ~what name j) in
  let graph g = (g.Bipartite.n_parents, g.Bipartite.n_children, Bipartite.Graph g) in
  (* [Bipartite]'s builders range-check node ids with [Invalid_argument];
     fold that into [Bad] so corrupt payloads stay inside the never-raises
     contract. *)
  try
    match str_field ~what "k" j with
    | ("ind" | "full") as k ->
      let n_parents = np () and n_children = nc () in
      (n_parents, n_children, if k = "ind" then Bipartite.Independent else Bipartite.Fully_connected)
    | "o2o" ->
      let n = dim "n" (min mp mc) (int_field ~what "n" j) in
      graph { Bipartite.n_parents = n; n_children = n; form = Bipartite.One_to_one }
    | "o2n" ->
      let n_parents = np () in
      graph (Bipartite.of_parent_of ~n_parents (ints "po" mc))
    | "n2o" ->
      let n_children = nc () in
      graph (Bipartite.of_child_of ~n_children (ints "co" mp))
    | "grp" ->
      let group_of_parent = ints "gp" mp in
      graph (Bipartite.of_groups ~group_of_parent ~group_of_child:(ints "gc" mc))
    | "ovl" ->
      let flat = ints "w" (2 * mc) in
      if Array.length flat mod 2 <> 0 then bad "%s: window payload length must be even" what;
      let n_children = Array.length flat / 2 in
      let first = Array.init n_children (fun c -> flat.(2 * c)) in
      let len = Array.init n_children (fun c -> dim "w" mp flat.((2 * c) + 1)) in
      graph (Bipartite.of_windows ~n_parents:(np ()) ~first ~len)
    | "irr" ->
      (* A row count, then per child its length and at most [mp] parents, in
         any order. *)
      let flat = ints "po" (1 + (mc * (mp + 1))) in
      let len = Array.length flat in
      let at i = if i < len then flat.(i) else bad "%s: truncated irregular payload" what in
      let nrows = dim "rows" mc (at 0) in
      let edges = ref [] and pos = ref 1 in
      for c = 0 to nrows - 1 do
        let rlen = dim "row" mp (at !pos) in
        for k = 1 to rlen do
          edges := (at (!pos + k), c) :: !edges
        done;
        pos := !pos + 1 + rlen
      done;
      if !pos <> len then bad "%s: trailing data in irregular payload" what;
      graph (Bipartite.of_edges ~n_parents:(np ()) ~n_children:nrows !edges)
    | k -> bad "%s: unknown kind %S" what k
  with Invalid_argument msg -> bad "%s: %s" what msg

let relation_of_json ~n_parents ~n_children j =
  let _, _, rel = sized_relation_of_json ~max_parents:n_parents ~max_children:n_children j in
  rel

(* Cost profiles: per-TB counts as run-length bit patterns.  A one-row
   profile is one run per count, written without listing its TBs, and a
   payload of one run decodes back to one row; any other payload decodes
   to one row per TB.  Decode rejects what no analysis produces and the
   cost model cannot expand into a usable column: a non-finite or negative
   count, fewer than one warp, or a warp-wave factor that is non-finite or
   below one. *)
let json_of_profile p =
  let i, m =
    match Costmodel.uniform_counts p with
    | Some (i, m) ->
      let n = Costmodel.profile_tbs p in
      (json_of_float_run n i, json_of_float_run n m)
    | None ->
      let r = Costmodel.repr_of_profile p in
      (json_of_packed_floats_rle r.Costmodel.prr_insts, json_of_packed_floats_rle r.Costmodel.prr_mem)
  in
  Json.Obj
    [
      ("i", i);
      ("m", m);
      ("w", Json.Num (float_of_int (Costmodel.profile_warps p)));
      ("ww", json_of_float (Costmodel.profile_warp_waves p));
    ]

type counts = Run of int * float | Listed of float array

let profile_of_json ~max_tbs j =
  let what = "profile" in
  let counts name =
    let what = what ^ "." ^ name in
    let payload = field ~what:"profile" name j in
    let check x =
      if not (Float.is_finite x && x >= 0.0) then
        bad "%s: count %g is not finite and non-negative" what x
    in
    let s = str_of_json ~what payload in
    (* A payload without a comma is one token, so one run. *)
    if s <> "" && not (String.contains s ',') then begin
      let run = ref (Listed [||]) in
      iter_float_runs ~what ~limit:max_tbs s (fun reps x ->
          check x;
          run := Run (reps, x));
      !run
    end
    else begin
      let a = packed_floats_rle_of_json ~what ~limit:max_tbs payload in
      Array.iter check a;
      Listed a
    end
  in
  let insts = counts "i" in
  let mem = counts "m" in
  let length = function Run (n, _) -> n | Listed a -> Array.length a in
  if length insts <> length mem then
    bad "%s: %d instruction counts for %d memory counts" what (length insts) (length mem);
  let warps = int_field ~what "w" j in
  if warps < 1 then bad "%s.w: %d warps, expected at least 1" what warps;
  let waves = float_of_json ~what:(what ^ ".ww") (field ~what "ww" j) in
  if not (Float.is_finite waves && waves >= 1.0) then
    bad "%s.ww: warp waves %g, expected a finite value >= 1" what waves;
  match (insts, mem) with
  | Run (n, i), Run (_, m) -> Costmodel.uniform_profile ~tbs:n ~insts:i ~mem:m ~warps ~warp_waves:waves
  | (Run _ | Listed _), _ ->
    let per_tb = function Run (n, x) -> Array.make n x | Listed a -> a in
    Costmodel.profile_of_repr
      {
        Costmodel.prr_insts = per_tb insts;
        prr_mem = per_tb mem;
        prr_warps = warps;
        prr_warp_waves = waves;
      }
