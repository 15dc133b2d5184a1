(* Shared JSON codec helpers for the persistence layers (captured graphs
   in Graph, the disk-backed analysis store): one codec per
   value, so a relation, an integer array or a cost profile has the same
   bytes in both.  Floats persist as IEEE-754 bit patterns: the JSON
   emitter prints numbers with %.12g, which is lossy, and both replay and
   disk-warm preparation must be bit-identical to the fresh
   computation. *)

module Json = Bm_metrics.Json
module Encode = Bm_depgraph.Encode
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

let json_of_packed_ints_rle a =
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
  Array.iter
    (fun v ->
      let d = v - !prev in
      prev := v;
      if !run_n > 0 && d = !run_d then incr run_n
      else begin
        if !run_n > 0 then emit !run_n !run_d;
        run_d := d;
        run_n := 1
      end)
    a;
  if !run_n > 0 then emit !run_n !run_d;
  Json.Str (Buffer.contents buf)

(* Decoded payloads are capped so a garbled repeat count reads as Bad
   rather than an allocation blow-up: every decode covers hostile file
   contents.  The caller's [limit] is the tightest length it knows (a
   node's TB count, a launch grid, a buffer list); [max_packed_elems] caps
   it, and a run that would pass it is rejected before the array grows. *)
let max_packed_elems = 1 lsl 30

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
    let ensure extra =
      let need = !total + extra in
      if need > limit then bad "%s: packed payload longer than %d elements" what limit;
      let cap = Array.length !out in
      if need > cap then begin
        let ncap = ref (cap * 2) in
        while !ncap < need do
          ncap := !ncap * 2
        done;
        let na = Array.make !ncap 0 in
        Array.blit !out 0 na 0 !total;
        out := na
      end
    in
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
let json_of_packed_floats_rle a =
  let buf = Buffer.create 256 in
  let emit n bits =
    if Buffer.length buf > 0 then Buffer.add_char buf ',';
    if n > 1 then begin
      Buffer.add_string buf (string_of_int n);
      Buffer.add_char buf '*'
    end;
    Buffer.add_string buf (Printf.sprintf "%016Lx" bits)
  in
  let run_bits = ref 0L in
  let run_n = ref 0 in
  Array.iter
    (fun f ->
      let bits = Int64.bits_of_float f in
      if !run_n > 0 && bits = !run_bits then incr run_n
      else begin
        if !run_n > 0 then emit !run_n !run_bits;
        run_bits := bits;
        run_n := 1
      end)
    a;
  if !run_n > 0 then emit !run_n !run_bits;
  Json.Str (Buffer.contents buf)

let packed_floats_rle_of_json ~what ~limit j =
  let limit = min limit max_packed_elems in
  let s = str_of_json ~what j in
  let n = String.length s in
  if n = 0 then [||]
  else begin
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
    (* One pass into a doubling array, as for the integer payloads; a
       token is at least 16 hex digits, sizing the common exact case. *)
    let out = ref (Array.make (max 16 ((n / 16) + 1)) 0.0) in
    let total = ref 0 in
    let ensure extra =
      let need = !total + extra in
      if need > limit then bad "%s: packed payload longer than %d elements" what limit;
      let cap = Array.length !out in
      if need > cap then begin
        let ncap = ref (cap * 2) in
        while !ncap < need do
          ncap := !ncap * 2
        done;
        let na = Array.make !ncap 0.0 in
        Array.blit !out 0 na 0 !total;
        out := na
      end
    in
    let first = ref true in
    while !pos < n do
      if not !first then
        if s.[!pos] = ',' then incr pos else bad "%s: malformed packed run" what;
      first := false;
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
      ensure reps;
      let o = !out in
      let f = Int64.float_of_bits bits in
      for k = !total to !total + reps - 1 do
        o.(k) <- f
      done;
      total := !total + reps
    done;
    if !total = Array.length !out then !out else Array.sub !out 0 !total
  end

(* Relations persist in their pattern-aware Table I encoded form, every
   array payload a packed-integer string ([windows] flatten to
   [first, len] pairs, [parents_of] rows are length-prefixed); decode
   reconstructs the bipartite graph exactly (the Encode round-trip
   property in test/test_depgraph.ml is what makes this safe). *)
let json_of_relation ~n_parents ~n_children rel =
  let ja i = Json.Num (float_of_int i) in
  match Encode.encode ~n_parents ~n_children rel with
  | Encode.Enc_independent { n_parents; n_children } ->
    Json.Obj [ ("k", Json.Str "ind"); ("np", ja n_parents); ("nc", ja n_children) ]
  | Encode.Enc_full { n_parents; n_children } ->
    Json.Obj [ ("k", Json.Str "full"); ("np", ja n_parents); ("nc", ja n_children) ]
  | Encode.Enc_one_to_one { n } -> Json.Obj [ ("k", Json.Str "o2o"); ("n", ja n) ]
  | Encode.Enc_one_to_n { n_parents; parent_of } ->
    Json.Obj
      [ ("k", Json.Str "o2n"); ("np", ja n_parents); ("po", json_of_packed_ints_rle parent_of) ]
  | Encode.Enc_n_to_one { n_children; child_of } ->
    Json.Obj
      [ ("k", Json.Str "n2o"); ("nc", ja n_children); ("co", json_of_packed_ints_rle child_of) ]
  | Encode.Enc_n_group { group_of_parent; group_of_child } ->
    Json.Obj
      [
        ("k", Json.Str "grp");
        ("gp", json_of_packed_ints_rle group_of_parent);
        ("gc", json_of_packed_ints_rle group_of_child);
      ]
  | Encode.Enc_overlapped { n_parents; windows } ->
    let flat = Array.make (2 * Array.length windows) 0 in
    Array.iteri
      (fun i (f, l) ->
        flat.(2 * i) <- f;
        flat.((2 * i) + 1) <- l)
      windows;
    Json.Obj [ ("k", Json.Str "ovl"); ("np", ja n_parents); ("w", json_of_packed_ints_rle flat) ]
  | Encode.Enc_irregular { n_parents; parents_of } ->
    let total = Array.fold_left (fun acc row -> acc + 1 + Array.length row) 1 parents_of in
    let flat = Array.make total 0 in
    flat.(0) <- Array.length parents_of;
    let pos = ref 1 in
    Array.iter
      (fun row ->
        flat.(!pos) <- Array.length row;
        incr pos;
        Array.iter
          (fun v ->
            flat.(!pos) <- v;
            incr pos)
          row)
      parents_of;
    Json.Obj [ ("k", Json.Str "irr"); ("np", ja n_parents); ("po", json_of_packed_ints_rle flat) ]

(* The dimensions come from the encoding itself: [ind]/[full] carry both,
   every other form carries one and implies the other by a payload
   length.  Every stated dimension and payload is bounded by the caller's
   [max_parents]/[max_children] before anything of that size is built. *)
let sized_relation_of_json ~max_parents ~max_children j =
  let what = "relation" in
  let mp = min max_parents max_packed_elems and mc = min max_children max_packed_elems in
  let dim name bound v =
    if v > bound then bad "%s.%s: %d nodes, more than the %d TBs it may relate" what name v bound;
    v
  in
  let np () = dim "np" mp (int_field ~what "np" j) and nc () = dim "nc" mc (int_field ~what "nc" j) in
  let ints name limit = packed_ints_rle_of_json ~what ~limit (field ~what name j) in
  let enc, n_parents, n_children =
    match str_field ~what "k" j with
    | "ind" ->
      let n_parents = np () and n_children = nc () in
      (Encode.Enc_independent { n_parents; n_children }, n_parents, n_children)
    | "full" ->
      let n_parents = np () and n_children = nc () in
      (Encode.Enc_full { n_parents; n_children }, n_parents, n_children)
    | "o2o" ->
      let n = dim "n" (min mp mc) (int_field ~what "n" j) in
      (Encode.Enc_one_to_one { n }, n, n)
    | "o2n" ->
      let n_parents = np () in
      let parent_of = ints "po" mc in
      (Encode.Enc_one_to_n { n_parents; parent_of }, n_parents, Array.length parent_of)
    | "n2o" ->
      let n_children = nc () in
      let child_of = ints "co" mp in
      (Encode.Enc_n_to_one { n_children; child_of }, Array.length child_of, n_children)
    | "grp" ->
      let group_of_parent = ints "gp" mp in
      let group_of_child = ints "gc" mc in
      ( Encode.Enc_n_group { group_of_parent; group_of_child },
        Array.length group_of_parent,
        Array.length group_of_child )
    | "ovl" ->
      let flat = ints "w" (2 * mc) in
      if Array.length flat mod 2 <> 0 then bad "%s: window payload length must be even" what;
      let windows =
        Array.init (Array.length flat / 2) (fun i -> (flat.(2 * i), dim "w" mp flat.((2 * i) + 1)))
      in
      let n_parents = np () in
      (Encode.Enc_overlapped { n_parents; windows }, n_parents, Array.length windows)
    | "irr" ->
      (* A row count, then per child its length and at most [mp] parents. *)
      let flat = ints "po" (1 + (mc * (mp + 1))) in
      let len = Array.length flat in
      let pos = ref 0 in
      let take () =
        if !pos >= len then bad "%s: truncated irregular payload" what
        else begin
          let v = flat.(!pos) in
          incr pos;
          v
        end
      in
      let nrows = dim "rows" mc (take ()) in
      if nrows < 0 then bad "%s: negative row count" what;
      let rows = Array.make nrows [||] in
      for i = 0 to nrows - 1 do
        let rlen = dim "row" mp (take ()) in
        if rlen < 0 then bad "%s: negative row length" what;
        let row = Array.make rlen 0 in
        for k = 0 to rlen - 1 do
          row.(k) <- take ()
        done;
        rows.(i) <- row
      done;
      if !pos <> len then bad "%s: trailing data in irregular payload" what;
      let n_parents = np () in
      (Encode.Enc_irregular { n_parents; parents_of = rows }, n_parents, nrows)
    | k -> bad "%s: unknown kind %S" what k
  in
  (* [decode] range-checks node indices with [Invalid_argument]; fold that
     into [Bad] so corrupt payloads stay inside the never-raises contract. *)
  match Encode.decode enc with
  | rel -> (n_parents, n_children, rel)
  | exception Invalid_argument msg -> bad "%s: %s" what msg

let relation_of_json ~n_parents ~n_children j =
  let _, _, rel = sized_relation_of_json ~max_parents:n_parents ~max_children:n_children j in
  rel

(* Cost profiles: per-TB counts as run-length bit patterns.  Decode
   rejects what no analysis produces and the cost model cannot expand
   into a usable column: a non-finite or negative count, fewer than one
   warp, or a warp-wave factor that is non-finite or below one. *)
let json_of_profile p =
  let r = Costmodel.repr_of_profile p in
  Json.Obj
    [
      ("i", json_of_packed_floats_rle r.Costmodel.prr_insts);
      ("m", json_of_packed_floats_rle r.Costmodel.prr_mem);
      ("w", Json.Num (float_of_int r.Costmodel.prr_warps));
      ("ww", json_of_float r.Costmodel.prr_warp_waves);
    ]

let profile_of_json ~max_tbs j =
  let what = "profile" in
  let counts name =
    let a =
      packed_floats_rle_of_json ~what:(what ^ "." ^ name) ~limit:max_tbs (field ~what name j)
    in
    Array.iter
      (fun x ->
        if not (Float.is_finite x && x >= 0.0) then
          bad "%s.%s: count %g is not finite and non-negative" what name x)
      a;
    a
  in
  let insts = counts "i" in
  let mem = counts "m" in
  if Array.length insts <> Array.length mem then
    bad "%s: %d instruction counts for %d memory counts" what (Array.length insts)
      (Array.length mem);
  let warps = int_field ~what "w" j in
  if warps < 1 then bad "%s.w: %d warps, expected at least 1" what warps;
  let waves = float_of_json ~what:(what ^ ".ww") (field ~what "ww" j) in
  if not (Float.is_finite waves && waves >= 1.0) then
    bad "%s.ww: warp waves %g, expected a finite value >= 1" what waves;
  Costmodel.profile_of_repr
    { Costmodel.prr_insts = insts; prr_mem = mem; prr_warps = warps; prr_warp_waves = waves }
