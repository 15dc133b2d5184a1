(* The persistent tier of the launch-time analysis cache: a disk-backed
   fingerprint store that makes every cold start warm.

   A key is structured: a small header line embedding the store schema
   version, the family tag and every launch-configuration field the
   artifact depends on, plus the full alpha-renamed structural kernel
   fingerprint text(s) — the complete serialization, not a digest, in the
   Fingerprint doctrine: a silent collision would merge two kernels'
   analyses and break cycle-exactness.

   Layout: fingerprint texts are content-addressed, written once at
   [<dir>/fpx/<md5(text)>.txt] and shared by every entry that references
   them (767 launches of one GRAMSCHM kernel intern its ~10 KB fingerprint
   once, not 767 times).  Each cached artifact is one small file at
   [<dir>/<family>/<md5(header, fp digests)>.json] echoing the header
   verbatim and the fingerprint digests.  A load verifies the header echo
   and then the interned texts against the lookup key's own fingerprint
   strings — memoized per process, and by physical equality on the hot
   path since {!Cache} interns the fingerprint strings too — so even an
   MD5 collision degrades to a stale miss, never a wrong value.  Keeping
   the bulky fingerprints out of the per-entry files is what makes
   disk-warm preparation read-bound: the bench perf gate commits to a
   speedup factor over cold analysis.

   Error semantics mirror Graph's Stale/Corrupt split, demoted from errors
   to misses: an absent file is a miss; an unparsable, truncated or
   garbled entry — or a missing/unreadable interned fingerprint — is a
   [corrupt] miss; a parsable entry whose schema, version, family, header
   or fingerprint identity disagrees is a [stale] miss.  A miss of any
   flavor recomputes and rewrites the entry (and its interned texts)
   cleanly.  Writes are atomic (unique temp file + rename), so concurrent
   writers — worker domains under --jobs, or parallel CI processes sharing
   one cache directory — can only ever publish whole files, and every
   value is a pure function of its key, so whichever writer wins the
   rename publishes the same bytes.  A failed write (read-only directory,
   disk full) bumps [write_errors] and nothing else: the store never
   raises. *)

module Json = Bm_metrics.Json
module Footprint = Bm_analysis.Footprint
module I = Bm_analysis.Sinterval
module Bipartite = Bm_depgraph.Bipartite
module Metrics = Bm_metrics.Metrics
open Jsonc

let schema = "bm-store"
let schema_version = 1
let families = [ "fp"; "prof"; "rw"; "pair"; "fpx" ]

type t = {
  dir : string;
  read_only : bool;
  (* [part_digests] memoizes fingerprint-text MD5s by physical equality —
     Cache interns the texts, so the same boxed string arrives on every
     lookup; [verified] maps a digest to an interned text already checked
     against disk, so each fingerprint file is read at most once per
     process. *)
  mutable part_digests : (string * string) list;
  verified : (string, string) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
  mutable stale : int;
  mutable corrupt : int;
  mutable write_errors : int;
  mutable bytes_written : int;
}

let dir t = t.dir
let read_only t = t.read_only

(* --- opening ------------------------------------------------------------ *)

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    let parent = Filename.dirname path in
    if parent <> path then mkdir_p parent;
    try Sys.mkdir path 0o755 with Sys_error _ -> ()
  end

let open_dir ?(read_only = false) dirname =
  if not read_only then mkdir_p dirname;
  if not (Sys.file_exists dirname) then
    Error (Printf.sprintf "cannot create cache directory %s" dirname)
  else if not (Sys.is_directory dirname) then
    Error (Printf.sprintf "%s is not a directory" dirname)
  else
    match Sys.readdir dirname with
    | exception Sys_error msg -> Error (Printf.sprintf "cannot read cache directory: %s" msg)
    | _ ->
      if not read_only then
        List.iter (fun f -> mkdir_p (Filename.concat dirname f)) families;
      Ok
        {
          dir = dirname;
          read_only;
          part_digests = [];
          verified = Hashtbl.create 64;
          hits = 0;
          misses = 0;
          stale = 0;
          corrupt = 0;
          write_errors = 0;
          bytes_written = 0;
        }

(* --- canonical keys ----------------------------------------------------- *)

(* Every key leads with a header line — the schema version, its family
   tag, then every config field the artifact depends on — followed by the
   full fingerprint text(s) as separate parts.  Changing any keyed field
   changes the entry digest, so the entry simply misses — staleness by
   construction, no invalidation pass needed. *)

(* A key also carries the sizes its launches bound an entry by: [tbs] is
   the (consumer) launch grid, [parent_tbs] a pair's producer grid and
   [n_buffers] an rw-set's buffer layout.  A stored payload longer than
   they allow is corrupt and is rejected before it is expanded. *)
type key = {
  header : string;
  parts : string list;
  tbs : int;
  parent_tbs : int;
  n_buffers : int;
}

let key_string k = String.concat "\n" (k.header :: k.parts)

(* Headers are built in one [Buffer] pass — a disk-warm prepare renders a
   few thousand of them, and nested [sprintf]s showed up in its profile. *)
let add_int b n = Buffer.add_string b (string_of_int n)

let add_dim3 b (d : Bm_ptx.Types.dim3) =
  add_int b d.Bm_ptx.Types.dx;
  Buffer.add_char b ',';
  add_int b d.Bm_ptx.Types.dy;
  Buffer.add_char b ',';
  add_int b d.Bm_ptx.Types.dz

let add_launch b (fl : Footprint.launch) =
  Buffer.add_char b 'g';
  add_dim3 b fl.Footprint.grid;
  Buffer.add_string b ";b";
  add_dim3 b fl.Footprint.block;
  Buffer.add_char b ';';
  List.iteri
    (fun i (n, v) ->
      if i > 0 then Buffer.add_char b ';';
      Buffer.add_string b n;
      Buffer.add_char b '=';
      add_int b v)
    fl.Footprint.args

let launch_canonical (fl : Footprint.launch) =
  let b = Buffer.create 64 in
  add_launch b fl;
  Buffer.contents b

let key_header family = Printf.sprintf "%s/%d;%s" schema schema_version family

let hdr_fp = key_header "fp"
let hdr_prof = key_header "prof"
let hdr_rw = key_header "rw"
let hdr_pair = key_header "pair"

let grid_tbs (fl : Footprint.launch) = Bm_ptx.Types.dim3_count fl.Footprint.grid

let launch_keyed hdr ~fp ~fl =
  let b = Buffer.create 96 in
  Buffer.add_string b hdr;
  Buffer.add_char b ';';
  add_launch b fl;
  { header = Buffer.contents b; parts = [ fp ]; tbs = grid_tbs fl; parent_tbs = 0; n_buffers = 0 }

let footprint_key ~fp ~fl = launch_keyed hdr_fp ~fp ~fl
let profile_key ~fp ~fl = launch_keyed hdr_prof ~fp ~fl

let rw_key ~fp ~fl ~buffers =
  (* [buffers] are (id, base, bytes) triples from the launch arguments:
     rw-sets name buffer ids, which only mean anything relative to the
     app's buffer layout, so the layout is part of the key. *)
  let b = Buffer.create 128 in
  Buffer.add_string b hdr_rw;
  Buffer.add_char b ';';
  add_launch b fl;
  Buffer.add_string b ";bufs=";
  List.iteri
    (fun i (id, base, bytes) ->
      if i > 0 then Buffer.add_char b ',';
      add_int b id;
      Buffer.add_char b ':';
      add_int b base;
      Buffer.add_char b ':';
      add_int b bytes)
    buffers;
  {
    header = Buffer.contents b;
    parts = [ fp ];
    tbs = grid_tbs fl;
    parent_tbs = 0;
    n_buffers = List.length buffers;
  }

let pair_key ~pfp ~pfl ~cfp ~cfl ~max_degree =
  let b = Buffer.create 160 in
  Buffer.add_string b hdr_pair;
  Buffer.add_string b ";deg=";
  add_int b max_degree;
  Buffer.add_string b ";p=";
  add_launch b pfl;
  Buffer.add_string b ";c=";
  add_launch b cfl;
  {
    header = Buffer.contents b;
    parts = [ pfp; cfp ];
    tbs = grid_tbs cfl;
    parent_tbs = grid_tbs pfl;
    n_buffers = 0;
  }

(* --- value codecs ------------------------------------------------------- *)

(* Per-TB footprints dominate the store's volume, and disk-warm
   preparation must parse them at memory speed (the bench perf gate
   commits to a speedup factor over cold analysis), so they flatten to
   one packed integer stream with TB-level delta compression on top:
   consecutive thread blocks of an affine kernel touch intervals shifted
   by a constant, so whole runs of TBs share one delta row.

   Stream layout:
     T
     then TB groups, each either
       0, nr, nr x (lo, hi, stride), nw, nw x (lo, hi, stride)  explicit
       1, N, 3 x (nr + nw) deltas          N TBs, each = previous + deltas
   (a delta group reuses the previous TB's interval counts).  The stream
   then goes through the generic delta+RLE integer packing, which also
   collapses the repetition inside each delta row. *)
let flat_tb (fp : Footprint.t) =
  let arr l =
    Array.of_list (List.concat_map (fun (i : I.t) -> [ i.I.lo; i.I.hi; i.I.stride ]) l)
  in
  (arr fp.Footprint.freads, arr fp.Footprint.fwrites)

let json_of_footprint_tbs tbs =
  let out = ref [] in
  let push v = out := v :: !out in
  let flats = Array.map flat_tb tbs in
  let t = Array.length tbs in
  let delta (p : int array) (c : int array) =
    Array.init (Array.length c) (fun k -> c.(k) - p.(k))
  in
  push t;
  let i = ref 0 in
  while !i < t do
    let r, w = flats.(!i) in
    let same_shape j =
      let pr, pw = flats.(j - 1) and cr, cw = flats.(j) in
      Array.length cr = Array.length pr && Array.length cw = Array.length pw
    in
    if !i = 0 || not (same_shape !i) then begin
      push 0;
      push (Array.length r / 3);
      Array.iter push r;
      push (Array.length w / 3);
      Array.iter push w;
      incr i
    end
    else begin
      let pr, pw = flats.(!i - 1) in
      let dr = delta pr r and dw = delta pw w in
      let continues j =
        j < t && same_shape j
        &&
        let qr, qw = flats.(j - 1) and cr, cw = flats.(j) in
        delta qr cr = dr && delta qw cw = dw
      in
      let n = ref 1 in
      while continues (!i + !n) do
        incr n
      done;
      push 1;
      push !n;
      Array.iter push dr;
      Array.iter push dw;
      i := !i + !n
    end
  done;
  json_of_packed_ints_rle (Array.of_list (List.rev !out))

let footprint_tbs_of_json ~what j =
  (* A TB's interval count is not a function of its launch, so the flat
     payload has no tighter bound than the global cap; [t] is checked
     below before anything per-TB is allocated. *)
  let a = packed_ints_rle_of_json ~what ~limit:max_packed_elems j in
  let len = Array.length a in
  let pos = ref 0 in
  let take () =
    if !pos >= len then bad "%s: truncated footprint payload" what
    else begin
      let v = a.(!pos) in
      incr pos;
      v
    end
  in
  let take_arr n =
    if n < 0 || !pos + n > len then bad "%s: bad footprint payload length" what;
    let arr = Array.sub a !pos n in
    pos := !pos + n;
    arr
  in
  let intervals (arr : int array) =
    (* The preconditions [I.make] rejects are checked up front, so the hot
       loop (hundreds of thousands of intervals on a suite-sized store)
       carries no per-element exception handler. *)
    let ni = Array.length arr / 3 in
    let rec go k =
      if k = ni then []
      else begin
        let lo = arr.(3 * k) and hi = arr.((3 * k) + 1) and stride = arr.((3 * k) + 2) in
        if lo > hi || stride < 0 then bad "%s: bad interval" what;
        I.make ~lo ~hi ~stride :: go (k + 1)
      end
    in
    go 0
  in
  (* [t] is not bounded by the stream length — one delta group can cover
     arbitrarily many TBs with a handful of ints — so cap it the way the
     RLE decoders cap repeat counts: garbled data raises Bad, it never
     explodes an allocation. *)
  let t = take () in
  if t < 0 || t > 1 lsl 24 then bad "%s: bad thread-block count" what;
  let tbs = Array.make t { Footprint.freads = []; fwrites = [] } in
  let prev_r = ref [||] and prev_w = ref [||] in
  (* The interval lists of the running TB: a side whose deltas are all
     zero keeps its previous (immutable) list, so a kernel with a constant
     read set and per-TB writes allocates one read list total, not one per
     TB — the dominant shape in practice. *)
  let cur_fr = ref [] and cur_fw = ref [] in
  let i = ref 0 in
  while !i < t do
    (match take () with
    | 0 ->
      let nr = take () in
      let r = take_arr (3 * nr) in
      let nw = take () in
      let w = take_arr (3 * nw) in
      prev_r := r;
      prev_w := w;
      cur_fr := intervals r;
      cur_fw := intervals w;
      tbs.(!i) <- { Footprint.freads = !cur_fr; fwrites = !cur_fw };
      incr i
    | 1 ->
      let n = take () in
      if n < 1 || !i + n > t then bad "%s: bad delta-run length" what;
      let dr = take_arr (Array.length !prev_r) in
      let dw = take_arr (Array.length !prev_w) in
      let rzero = Array.for_all (fun d -> d = 0) dr in
      let wzero = Array.for_all (fun d -> d = 0) dw in
      if rzero && wzero && !i > 0 then begin
        (* A zero-delta run repeats the previous TB exactly; footprints are
           immutable, so every TB in the run shares one record. *)
        let prev_tb = tbs.(!i - 1) in
        for _ = 1 to n do
          tbs.(!i) <- prev_tb;
          incr i
        done
      end
      else begin
        (* The running TB is advanced in place: the interval lists built
           from it own their own boxes, so no sharing escapes. *)
        let r = if rzero then !prev_r else Array.copy !prev_r in
        let w = if wzero then !prev_w else Array.copy !prev_w in
        prev_r := r;
        prev_w := w;
        for _ = 1 to n do
          if not rzero then begin
            Array.iteri (fun k d -> r.(k) <- r.(k) + d) dr;
            cur_fr := intervals r
          end;
          if not wzero then begin
            Array.iteri (fun k d -> w.(k) <- w.(k) + d) dw;
            cur_fw := intervals w
          end;
          tbs.(!i) <- { Footprint.freads = !cur_fr; fwrites = !cur_fw };
          incr i
        done
      end
    | m -> bad "%s: unknown TB group marker %d" what m);
    ()
  done;
  if !pos <> len then bad "%s: trailing data in footprint payload" what;
  tbs

(* A summary is written as the per-TB footprints it denotes, so the entry
   does not depend on how the footprints were computed. *)
let json_of_footprints fp =
  match Footprint.materialize fp with
  | Error why -> Json.Obj [ ("k", Json.Str "cons"); ("why", Json.Str why) ]
  | Ok tbs -> Json.Obj [ ("k", Json.Str "tb"); ("tbs", json_of_footprint_tbs tbs) ]

let footprints_of_json j =
  let what = "footprints" in
  match str_field ~what "k" j with
  | "cons" -> Footprint.Conservative (str_field ~what "why" j)
  | "tb" -> Footprint.Per_tb (footprint_tbs_of_json ~what (field ~what "tbs" j))
  | k -> bad "%s: unknown kind %S" what k

let json_of_rw (rw : Reorder.rw) =
  Json.Obj
    [
      ("r", json_of_packed_ints_rle (Array.of_list rw.Reorder.reads));
      ("w", json_of_packed_ints_rle (Array.of_list rw.Reorder.writes));
    ]

let rw_of_json ~n_buffers j =
  let what = "rw" in
  let ids name = Array.to_list (packed_ints_rle_of_json ~what ~limit:n_buffers (field ~what name j)) in
  { Reorder.reads = ids "r"; writes = ids "w" }

(* --- the store ---------------------------------------------------------- *)

let part_hex t part =
  match List.find_opt (fun (s, _) -> s == part) t.part_digests with
  | Some (_, h) -> h
  | None ->
    let h = Digest.to_hex (Digest.string part) in
    (* The memo is an optimization keyed on physical equality; distinct
       boxes of equal texts just duplicate an entry.  Cache interns the
       fingerprint strings, so realistic growth is one entry per kernel —
       the reset is a backstop for pathological callers. *)
    if List.length t.part_digests >= 4096 then t.part_digests <- [];
    t.part_digests <- (part, h) :: t.part_digests;
    h

let part_hexes t key = List.map (part_hex t) key.parts

let entry_path t ~family ~hexes ~header =
  Filename.concat
    (Filename.concat t.dir family)
    (Digest.to_hex (Digest.string (String.concat "\x00" (header :: hexes))) ^ ".json")

let path t ~family ~key = entry_path t ~family ~hexes:(part_hexes t key) ~header:key.header
let intern_path t hex = Filename.concat (Filename.concat t.dir "fpx") (hex ^ ".txt")
let intern_paths t ~key = List.map (fun h -> intern_path t h) (part_hexes t key)

(* Raw [Unix] I/O, one open and no preliminary existence probe: per-entry
   syscalls sit on a disk-warm prepare's critical path (thousands of small
   files), channels would add two [lseek]s and a 64 KiB buffer allocation
   per open, and [ENOENT] classifies the miss for free. *)
let read_file file =
  match Unix.openfile file [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> `Absent
  | exception Unix.Unix_error _ -> `Unreadable
  | fd ->
    let result =
      match
        let size = (Unix.fstat fd).Unix.st_size in
        let buf = Bytes.create size in
        let rec fill off =
          if off >= size then size
          else
            match Unix.read fd buf off (size - off) with
            | 0 -> off
            | n -> fill (off + n)
        in
        let got = fill 0 in
        (* A short read (the file shrank under us) yields a truncated
           entry, which the caller's parse rejects as corrupt. *)
        if got = size then Bytes.unsafe_to_string buf else Bytes.sub_string buf 0 got
      with
      | data -> `Ok data
      | exception Unix.Unix_error _ -> `Unreadable
      | exception Invalid_argument _ -> `Unreadable
    in
    (try Unix.close fd with Unix.Unix_error _ -> ());
    result

(* Atomic publication: unique temp file + rename.  Returns the byte count
   written, or None on any failure. *)
let write_file file data =
  match
    let parent = Filename.dirname file in
    if not (Sys.file_exists parent) then mkdir_p parent;
    let tmp, oc = Filename.open_temp_file ~temp_dir:parent ~mode:[ Open_binary ] "put" ".tmp" in
    (match Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc data) with
    | () -> ()
    | exception e ->
      (try Sys.remove tmp with Sys_error _ -> ());
      raise e);
    Sys.rename tmp file
  with
  | () -> Some (String.length data)
  | exception Sys_error _ -> None

(* Check one interned fingerprint text against the lookup key's own copy.
   Success memoizes the caller's (physically interned) string, so the next
   lookup is a pointer comparison and the file is never read again. *)
let verify_part t hex part =
  match Hashtbl.find_opt t.verified hex with
  | Some txt -> if txt == part || String.equal txt part then `Ok else `Mismatch
  | None -> (
    match read_file (intern_path t hex) with
    | `Absent | `Unreadable -> `Missing
    | `Ok txt ->
      if String.equal txt part then begin
        Hashtbl.replace t.verified hex part;
        `Ok
      end
      else `Mismatch)

let rec verify_parts t hexes parts =
  match (hexes, parts) with
  | [], [] -> `Ok
  | hex :: hexes, part :: parts -> (
    match verify_part t hex part with `Ok -> verify_parts t hexes parts | bad -> bad)
  | _ -> `Mismatch

(* A miss of any flavor returns None; the caller recomputes and [put]s,
   overwriting whatever was there.  Never raises. *)
let find t ~family ~key ~decode =
  let hexes = part_hexes t key in
  let file = entry_path t ~family ~hexes ~header:key.header in
  let corrupt () =
    t.corrupt <- t.corrupt + 1;
    None
  in
  let stale () =
    t.stale <- t.stale + 1;
    None
  in
  match read_file file with
  | `Absent ->
    t.misses <- t.misses + 1;
    None
  | `Unreadable -> corrupt ()
  | `Ok data -> (
      match Json.of_string data with
      | Error _ -> corrupt ()
      | Ok j -> (
        let str name = match Json.member name j with Some (Json.Str s) -> Some s | _ -> None in
        let fps =
          match Json.member "fps" j with
          | Some (Json.Arr l) ->
            if List.for_all (function Json.Str _ -> true | _ -> false) l then
              Some (List.map (function Json.Str s -> s | _ -> assert false) l)
            else None
          | _ -> None
        in
        match (str "schema", Json.member "version" j, str "family", str "hdr", fps) with
        | Some s, Some v, Some f, Some h, Some fps
          when s = schema && Json.to_int v = Some schema_version && f = family ->
          if not (String.equal h key.header && fps = hexes) then stale ()
          else (
            match verify_parts t hexes key.parts with
            | `Missing -> corrupt ()
            | `Mismatch -> stale ()
            | `Ok -> (
              match Json.member "value" j with
              | None -> corrupt ()
              | Some value -> (
                match decode value with
                | exception Bad _ -> corrupt ()
                | v ->
                  t.hits <- t.hits + 1;
                  Some v)))
        | Some _, Some _, Some _, Some _, Some _ -> stale ()
        | _ -> corrupt ()))

let put t ~family ~key value =
  if not t.read_only then begin
    let hexes = part_hexes t key in
    (* Publish the interned fingerprint texts first, so a reader that sees
       the entry can always resolve them.  An unverified digest is written
       unconditionally: if the file was garbled, this is the clean
       rewrite. *)
    List.iter2
      (fun hex part ->
        if not (Hashtbl.mem t.verified hex) then begin
          match write_file (intern_path t hex) part with
          | Some n ->
            t.bytes_written <- t.bytes_written + n;
            Hashtbl.replace t.verified hex part
          | None -> t.write_errors <- t.write_errors + 1
        end)
      hexes key.parts;
    let data =
      Json.to_string
        (Json.Obj
           [
             ("schema", Json.Str schema);
             ("version", Json.Num (float_of_int schema_version));
             ("family", Json.Str family);
             ("hdr", Json.Str key.header);
             ("fps", Json.Arr (List.map (fun h -> Json.Str h) hexes));
             ("value", value);
           ])
    in
    match write_file (entry_path t ~family ~hexes ~header:key.header) data with
    | Some n -> t.bytes_written <- t.bytes_written + n
    | None -> t.write_errors <- t.write_errors + 1
  end

(* --- typed entries ------------------------------------------------------ *)

let find_footprints t ~key = find t ~family:"fp" ~key ~decode:footprints_of_json
let put_footprints t ~key v = put t ~family:"fp" ~key (json_of_footprints v)

let find_profile t ~key = find t ~family:"prof" ~key ~decode:(profile_of_json ~max_tbs:key.tbs)
let put_profile t ~key v = put t ~family:"prof" ~key (json_of_profile v)

let find_rw t ~key = find t ~family:"rw" ~key ~decode:(rw_of_json ~n_buffers:key.n_buffers)
let put_rw t ~key v = put t ~family:"rw" ~key (json_of_rw v)

let find_relation t ~key =
  find t ~family:"pair" ~key
    ~decode:(relation_of_json ~n_parents:key.parent_tbs ~n_children:key.tbs)

let put_relation t ~key ~n_parents ~n_children rel =
  put t ~family:"pair" ~key (json_of_relation ~n_parents ~n_children rel)

(* --- counters ----------------------------------------------------------- *)

type counters = {
  disk_hits : int;
  disk_misses : int;
  disk_stale : int;
  disk_corrupt : int;
  disk_write_errors : int;
  disk_bytes_written : int;
}

let counters t =
  {
    disk_hits = t.hits;
    disk_misses = t.misses;
    disk_stale = t.stale;
    disk_corrupt = t.corrupt;
    disk_write_errors = t.write_errors;
    disk_bytes_written = t.bytes_written;
  }

let export t registry =
  let c = counters t in
  let putc name v = Metrics.add (Metrics.counter registry name) (float_of_int v) in
  putc "prep.cache.disk.hits" c.disk_hits;
  putc "prep.cache.disk.misses" c.disk_misses;
  putc "prep.cache.disk.stale" c.disk_stale;
  putc "prep.cache.disk.corrupt" c.disk_corrupt;
  putc "prep.cache.disk.write_errors" c.disk_write_errors;
  putc "prep.cache.disk.bytes_written" c.disk_bytes_written
