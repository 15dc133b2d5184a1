(* Persistent analysis store (Store): the disk-backed fingerprint cache.

   The gate for the disk tier: (1) every value codec — footprints with
   TB-delta groups, bit-pattern float profiles, rw-sets, packed relations,
   and the delta+RLE payload primitives underneath — must round-trip
   exactly (qcheck, bit-for-bit for floats); (2) malformed payloads must
   decode to errors, never exceptions; (3) every keyed field must change
   the entry identity (staleness by construction) and a disagreeing echo
   must read as a stale miss; (4) corrupt entry files AND corrupt interned
   fingerprint files must demote to misses and repopulate cleanly; (5) a
   disk-warm preparation must be cycle-identical to a cold one across the
   suite, with a 100% disk hit rate on the second pass.  No CLI option
   attaches the store; the ledger's disk-warm workload is its one reader
   outside these tests and bench --perf-gate. *)

module T = Bm_ptx.Types
module I = Bm_analysis.Sinterval
module Footprint = Bm_analysis.Footprint
module Symeval = Bm_analysis.Symeval
module Costmodel = Bm_gpu.Costmodel
module Config = Bm_gpu.Config
module Bipartite = Bm_depgraph.Bipartite
module Json = Bm_metrics.Json
module Jsonc = Bm_maestro.Jsonc
module Store = Bm_maestro.Store
module Cache = Bm_maestro.Cache
module Prep = Bm_maestro.Prep
module Runner = Bm_maestro.Runner
module Mode = Bm_maestro.Mode
module Sim = Bm_maestro.Sim
module Reorder = Bm_maestro.Reorder
module Suite = Bm_workloads.Suite
module Diff = Bm_oracle.Diff

let cfg = Config.titan_x_pascal

let with_temp_dir f =
  let dir = Filename.temp_file "bm_store" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let rec rm path =
    if Sys.file_exists path then
      if Sys.is_directory path then begin
        Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
        Sys.rmdir path
      end
      else Sys.remove path
  in
  Fun.protect ~finally:(fun () -> try rm dir with Sys_error _ -> ()) (fun () -> f dir)

let open_store ?read_only dir =
  match Store.open_dir ?read_only dir with
  | Ok s -> s
  | Error e -> Alcotest.failf "open_dir %s: %s" dir e

(* --- generators -------------------------------------------------------- *)

let gen_interval =
  QCheck2.Gen.(
    map
      (fun ((lo, span), stride) -> I.make ~lo ~hi:(lo + span) ~stride)
      (pair (pair (int_range (-10000) 10000) (int_range 0 512)) (int_range 0 8)))

let gen_tb =
  QCheck2.Gen.(
    map
      (fun (r, w) -> { Footprint.freads = r; fwrites = w })
      (pair (list_size (int_range 0 4) gen_interval) (list_size (int_range 0 4) gen_interval)))

(* An affine progression: one base TB advanced by a constant byte delta per
   TB — the shape the encoder's delta groups and the decoder's run
   expansion exist for. *)
let gen_affine_tbs =
  QCheck2.Gen.(
    map
      (fun ((base, d), n) ->
        let shift k i = I.make ~lo:(i.I.lo + (k * d)) ~hi:(i.I.hi + (k * d)) ~stride:i.I.stride in
        Array.init n (fun k ->
            {
              Footprint.freads = List.map (shift k) base.Footprint.freads;
              fwrites = List.map (shift k) base.Footprint.fwrites;
            }))
      (pair (pair gen_tb (int_range (-64) 64)) (int_range 1 40)))

let gen_footprints =
  QCheck2.Gen.(
    oneof
      [
        map (fun s -> Footprint.Conservative s) (string_size ~gen:printable (int_range 0 16));
        map (fun tbs -> Footprint.Per_tb tbs) (array_size (int_range 0 24) gen_tb);
        map (fun tbs -> Footprint.Per_tb tbs) gen_affine_tbs;
      ])

let special_floats =
  [ 0.0; -0.0; 1.0; -1.5; 3.1415926535; nan; infinity; neg_infinity; 4.9e-324; 1e300 ]

let gen_float = QCheck2.Gen.(oneof [ oneofl special_floats; float ])
let gen_float_array = QCheck2.Gen.(array_size (int_range 0 32) gen_float)

let float_arrays_bit_equal a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y) a b

let gen_relation =
  QCheck2.Gen.(
    let* np = int_range 1 24 in
    let* nc = int_range 1 24 in
    let graph_of edges = Bipartite.Graph (Bipartite.of_edges ~n_parents:np ~n_children:nc edges) in
    let+ rel =
      oneof
        [
          return Bipartite.Independent;
          return Bipartite.Fully_connected;
          (* arbitrary edges: whatever classify makes of them *)
          map graph_of
            (list_size (int_range 0 40) (pair (int_range 0 (np - 1)) (int_range 0 (nc - 1))));
          (* one-to-one *)
          return (graph_of (List.init (min np nc) (fun i -> (i, i))));
          (* one-to-n: every child one parent *)
          return (graph_of (List.init nc (fun c -> (c mod np, c))));
          (* n-to-one: every parent one child *)
          return (graph_of (List.init np (fun p -> (p, p mod nc))));
          (* overlapped windows *)
          return
            (graph_of
               (List.concat
                  (List.init nc (fun c ->
                       let first = min (c mod np) (np - 1) in
                       let len = min 3 (np - first) in
                       List.init len (fun k -> (first + k, c))))));
        ]
    in
    (np, nc, rel))

let gen_packed_ints =
  QCheck2.Gen.(
    oneof
      [
        array_size (int_range 0 200) (int_range (-1_000_000) 1_000_000);
        (* long constant run *)
        map (fun ((v, n), tail) -> Array.append (Array.make n v) (Array.of_list tail))
          (pair (pair (int_range (-50) 50) (int_range 0 300)) (list_size (int_range 0 5) int));
        (* affine ramp: constant delta run *)
        map (fun ((v0, d), n) -> Array.init n (fun i -> v0 + (i * d)))
          (pair (pair (int_range (-100) 100) (int_range (-9) 9)) (int_range 0 300));
      ])

(* --- codec round-trips ------------------------------------------------- *)

let prop_footprints_roundtrip =
  QCheck2.Test.make ~name:"store: footprint codec round-trip" ~count:300 gen_footprints
    (fun fp ->
      Store.footprints_of_json (Store.json_of_footprints fp) = fp)

(* The codec's domain: equal-length arrays of finite, non-negative counts,
   at least one warp and a finite warp-wave factor of at least 1 (what
   [Costmodel.profile] produces); everything outside it is rejected below. *)
let gen_count =
  QCheck2.Gen.(oneof [ oneofl [ 0.0; -0.0; 1.0; 4.9e-324; 1e300 ]; float_bound_inclusive 1e9 ])

let gen_profile_repr =
  QCheck2.Gen.(
    let* n = int_range 0 32 in
    map
      (fun (((i, m), warps), waves) ->
        { Costmodel.prr_insts = i; prr_mem = m; prr_warps = warps; prr_warp_waves = waves })
      (pair
         (pair (pair (array_repeat n gen_count) (array_repeat n gen_count)) (int_range 1 64))
         (oneof [ oneofl [ 1.0; 2.0; 16.0 ]; float_range 1.0 1e6 ])))

let prop_profile_roundtrip =
  QCheck2.Test.make ~name:"store: profile codec bit round-trip" ~count:300 gen_profile_repr
    (fun repr ->
      let p = Costmodel.profile_of_repr repr in
      let r' = Costmodel.repr_of_profile
          (Jsonc.profile_of_json ~max_tbs:(Array.length repr.Costmodel.prr_insts)
             (Jsonc.json_of_profile p)) in
      float_arrays_bit_equal r'.Costmodel.prr_insts repr.Costmodel.prr_insts
      && float_arrays_bit_equal r'.Costmodel.prr_mem repr.Costmodel.prr_mem
      && r'.Costmodel.prr_warps = repr.Costmodel.prr_warps
      && Int64.bits_of_float r'.Costmodel.prr_warp_waves
         = Int64.bits_of_float repr.Costmodel.prr_warp_waves)

(* One out-of-domain value in an otherwise valid profile is rejected with
   [Bad], never decoded into a profile the cost model would expand into
   NaN, negative or infinite TB times. *)
let prop_profile_rejects_out_of_domain =
  QCheck2.Test.make ~name:"store: profile codec rejects out-of-domain values" ~count:200
    QCheck2.Gen.(
      pair gen_profile_repr
        (oneof
           [
             map
               (fun (x, in_mem) -> `Count (x, in_mem))
               (pair (oneofl [ nan; infinity; neg_infinity; -1.0; -1e6; -4.9e-324 ]) bool);
             map (fun w -> `Warps w) (int_range (-3) 0);
             map (fun x -> `Waves x) (oneofl [ nan; infinity; neg_infinity; 0.0; 0.5; -2.0 ]);
           ]))
    (fun (repr, bad) ->
      let repr =
        match bad with
        | `Count (x, in_mem) ->
          let push v a = Array.append a [| v |] in
          let bad_i, bad_m = if in_mem then (1.0, x) else (x, 1.0) in
          {
            repr with
            Costmodel.prr_insts = push bad_i repr.Costmodel.prr_insts;
            prr_mem = push bad_m repr.Costmodel.prr_mem;
          }
        | `Warps w -> { repr with Costmodel.prr_warps = w }
        | `Waves x -> { repr with Costmodel.prr_warp_waves = x }
      in
      let max_tbs = Array.length repr.Costmodel.prr_insts in
      match Jsonc.profile_of_json ~max_tbs (Jsonc.json_of_profile (Costmodel.profile_of_repr repr)) with
      | (_ : Costmodel.profile) -> false
      | exception Jsonc.Bad _ -> true)

let prop_rw_roundtrip =
  QCheck2.Test.make ~name:"store: rw codec round-trip" ~count:200
    QCheck2.Gen.(
      map
        (fun (r, w) -> { Reorder.reads = r; writes = w })
        (pair
           (list_size (int_range 0 20) (int_range (-100) 1000))
           (list_size (int_range 0 20) (int_range (-100) 1000))))
    (fun rw ->
      Store.rw_of_json ~n_buffers:20 (Store.json_of_rw rw) = rw)

let prop_relation_roundtrip =
  QCheck2.Test.make ~name:"store: relation packed codec round-trip" ~count:300 gen_relation
    (fun (np, nc, rel) ->
      Jsonc.relation_of_json ~n_parents:np ~n_children:nc
        (Jsonc.json_of_relation ~n_parents:np ~n_children:nc rel)
      = rel)

let prop_packed_ints_roundtrip =
  QCheck2.Test.make ~name:"store: packed int RLE round-trip" ~count:400 gen_packed_ints
    (fun a ->
      Jsonc.packed_ints_rle_of_json ~what:"t" ~limit:(Array.length a) (Jsonc.json_of_packed_ints_rle a)
      = a)

let prop_packed_floats_roundtrip =
  QCheck2.Test.make ~name:"store: packed float RLE bit round-trip" ~count:300
    QCheck2.Gen.(
      oneof
        [
          gen_float_array;
          (* runs of one bit pattern *)
          map (fun (v, n) -> Array.make n v) (pair gen_float (int_range 0 300));
        ])
    (fun a ->
      float_arrays_bit_equal
        (Jsonc.packed_floats_rle_of_json ~what:"t" ~limit:(Array.length a)
           (Jsonc.json_of_packed_floats_rle a))
        a)

(* --- adversarial decoding: errors, never exceptions -------------------- *)

let decodes_bad what f =
  match f () with
  | exception Jsonc.Bad _ -> ()
  | exception e -> Alcotest.failf "%s: raised %s instead of Bad" what (Printexc.to_string e)
  | _ -> Alcotest.failf "%s: decoded garbage successfully" what

let test_malformed_payloads () =
  List.iter
    (fun s ->
      decodes_bad (Printf.sprintf "ints %S" s) (fun () ->
          Jsonc.packed_ints_rle_of_json ~what:"t" ~limit:Jsonc.max_packed_elems (Json.Str s)))
    [ "x"; "-"; "5*"; "*3"; "1,,2"; ","; "3*x"; "1,2,"; " 1"; "1 "; "1073741825*1"; "0*5" ];
  List.iter
    (fun s ->
      decodes_bad (Printf.sprintf "floats %S" s) (fun () ->
          Jsonc.packed_floats_rle_of_json ~what:"t" ~limit:Jsonc.max_packed_elems (Json.Str s)))
    [ "12"; "0123456789abcdeg"; "3*"; "0123456789abcdef,"; "0123456789abcdef,zz" ];
  decodes_bad "ints non-string" (fun () ->
      Jsonc.packed_ints_rle_of_json ~what:"t" ~limit:Jsonc.max_packed_elems (Json.Num 3.0));
  (* Footprint stream structure: bad TB counts, markers, intervals, run
     lengths and trailing data all raise Bad. *)
  let fp_payload ints =
    Json.Obj [ ("k", Json.Str "tb"); ("tbs", Jsonc.json_of_packed_ints_rle ints) ]
  in
  List.iter
    (fun (what, ints) ->
      decodes_bad ("footprints " ^ what) (fun () -> Store.footprints_of_json (fp_payload ints)))
    [
      ("negative TB count", [| -1 |]);
      ("absurd TB count", [| (1 lsl 24) + 1 |]);
      ("unknown marker", [| 1; 7 |]);
      ("interval lo>hi", [| 1; 0; 1; 3; 1; 1; 0 |]);
      ("negative stride", [| 1; 0; 1; 0; 4; -2; 0 |]);
      ("run past TB count", [| 2; 0; 0; 0; 1; 5 |]);
      ("truncated", [| 3; 0; 1 |]);
      ("trailing data", [| 1; 0; 0; 0; 9; 9 |]);
    ];
  (* Relation payloads: out-of-range node ids must surface as Bad (not the
     Invalid_argument the graph constructor raises internally). *)
  let rel kind fields = Json.Obj (("k", Json.Str kind) :: fields) in
  let packed a = Jsonc.json_of_packed_ints_rle a in
  List.iter
    (fun (what, j) ->
      decodes_bad what (fun () -> Jsonc.relation_of_json ~n_parents:8 ~n_children:8 j))
    [
      ("o2n out-of-range parent", rel "o2n" [ ("np", Json.Num 2.0); ("po", packed [| 5 |]) ]);
      ("n2o out-of-range child", rel "n2o" [ ("nc", Json.Num 1.0); ("co", packed [| 3 |]) ]);
      ("n2o negative size", rel "n2o" [ ("nc", Json.Num (-1.0)); ("co", packed [||]) ]);
      ("ovl odd windows", rel "ovl" [ ("np", Json.Num 2.0); ("w", packed [| 0 |]) ]);
      ("ovl window past np", rel "ovl" [ ("np", Json.Num 2.0); ("w", packed [| 1; 5 |]) ]);
      ("irr negative rows", rel "irr" [ ("np", Json.Num 2.0); ("po", packed [| -1 |]) ]);
      ("irr truncated row", rel "irr" [ ("np", Json.Num 2.0); ("po", packed [| 1; 4 |]) ]);
      ("unknown kind", rel "zzz" []);
    ]

(* --- keyed staleness --------------------------------------------------- *)

let sample_artifacts () =
  let k = Test_ptx.vecadd () in
  let n = 1024 in
  let fl =
    {
      Footprint.grid = T.dim3 4;
      block = T.dim3 256;
      args = [ ("n", n); ("A", 0x10000); ("B", 0x20000); ("C", 0x30000) ];
    }
  in
  let fp = Bm_analysis.Fingerprint.to_string (Bm_analysis.Fingerprint.of_kernel k) in
  let fps =
    match Footprint.materialize (Footprint.analyze k fl) with
    | Ok tbs -> Footprint.Per_tb tbs
    | Error reason -> Alcotest.fail reason
  in
  let profile = Costmodel.profile (Symeval.analyze k) fl in
  (k, fl, fp, fps, profile)

let test_keyed_staleness () =
  let _, fl, fp, _, _ = sample_artifacts () in
  let fl' = { fl with Footprint.grid = T.dim3 8 } in
  let fl_block = { fl with Footprint.block = T.dim3 128 } in
  let fl_args = { fl with Footprint.args = [ ("n", 2048) ] } in
  let distinct what a b =
    Alcotest.(check bool) (what ^ " changes the key") false (Store.key_string a = Store.key_string b)
  in
  let kf = Store.footprint_key ~fp ~fl in
  distinct "grid" kf (Store.footprint_key ~fp ~fl:fl');
  distinct "block" kf (Store.footprint_key ~fp ~fl:fl_block);
  distinct "args" kf (Store.footprint_key ~fp ~fl:fl_args);
  distinct "fingerprint" kf (Store.footprint_key ~fp:(fp ^ "x") ~fl);
  distinct "family" kf (Store.profile_key ~fp ~fl);
  let krw = Store.rw_key ~fp ~fl ~buffers:[ (0, 64, 4096) ] in
  distinct "buffer layout" krw (Store.rw_key ~fp ~fl ~buffers:[ (0, 64, 8192) ]);
  let kp = Store.pair_key ~pfp:fp ~pfl:fl ~cfp:fp ~cfl:fl' ~max_degree:64 in
  distinct "max degree" kp (Store.pair_key ~pfp:fp ~pfl:fl ~cfp:fp ~cfl:fl' ~max_degree:32);
  distinct "producer/consumer swap" kp (Store.pair_key ~pfp:fp ~pfl:fl' ~cfp:fp ~cfl:fl ~max_degree:64);
  with_temp_dir (fun dir ->
      let s = open_store dir in
      let key = Store.footprint_key ~fp ~fl in
      let key' = Store.footprint_key ~fp ~fl:fl' in
      let _, _, _, fps, _ = sample_artifacts () in
      Store.put_footprints s ~key fps;
      Alcotest.(check bool) "hit under its own key" true (Store.find_footprints s ~key <> None);
      Alcotest.(check bool) "other launch misses" true (Store.find_footprints s ~key:key' = None);
      (* A present entry whose echoed identity disagrees with the key that
         addresses it is a stale miss: copy key's entry into key''s slot. *)
      let data = In_channel.with_open_bin (Store.path s ~family:"fp" ~key) In_channel.input_all in
      Out_channel.with_open_bin (Store.path s ~family:"fp" ~key:key') (fun oc ->
          Out_channel.output_string oc data);
      let before = (Store.counters s).Store.disk_stale in
      Alcotest.(check bool) "misaligned echo misses" true (Store.find_footprints s ~key:key' = None);
      Alcotest.(check bool) "counted as stale" true ((Store.counters s).Store.disk_stale > before))

(* --- corruption: always a miss, never an exception, always recoverable -- *)

let test_corruption_demoted () =
  let _, fl, fp, fps, _ = sample_artifacts () in
  with_temp_dir (fun dir ->
      let s = open_store dir in
      let key = Store.footprint_key ~fp ~fl in
      let entry () = Store.path s ~family:"fp" ~key in
      let refill () = Store.put_footprints s ~key fps in
      let expect what outcome =
        let c0 = Store.counters s in
        Alcotest.(check bool) (what ^ " misses") true (Store.find_footprints s ~key = None);
        let c1 = Store.counters s in
        match outcome with
        | `Corrupt ->
          Alcotest.(check bool) (what ^ " counts corrupt") true
            (c1.Store.disk_corrupt > c0.Store.disk_corrupt)
        | `Stale ->
          Alcotest.(check bool) (what ^ " counts stale") true
            (c1.Store.disk_stale > c0.Store.disk_stale)
      in
      let overwrite path data =
        Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc data)
      in
      refill ();
      Alcotest.(check bool) "baseline hit" true (Store.find_footprints s ~key <> None);
      overwrite (entry ()) "";
      expect "empty entry" `Corrupt;
      overwrite (entry ()) "{\"schema\":";
      expect "truncated entry" `Corrupt;
      overwrite (entry ()) "not json at all";
      expect "garbled entry" `Corrupt;
      overwrite (entry ()) "{}";
      expect "hollow object" `Corrupt;
      overwrite (entry ()) "{\"schema\":\"bm-store\",\"version\":999,\"family\":\"fp\",\"hdr\":\"h\",\"fps\":[],\"value\":0}";
      expect "future version" `Stale;
      refill ();
      Alcotest.(check bool) "repopulated after corruption" true
        (Store.find_footprints s ~key <> None);
      (* Interned fingerprint text: garbled -> stale, missing -> corrupt;
         both recover on the next put. *)
      let interned = match Store.intern_paths s ~key with [ p ] -> p | _ -> Alcotest.fail "one part" in
      let s2 = open_store dir in
      overwrite interned (fp ^ "tampered");
      Alcotest.(check bool) "tampered intern misses" true (Store.find_footprints s2 ~key = None);
      Alcotest.(check bool) "tampered intern counts stale" true
        ((Store.counters s2).Store.disk_stale > 0);
      let s3 = open_store dir in
      Sys.remove interned;
      Alcotest.(check bool) "missing intern misses" true (Store.find_footprints s3 ~key = None);
      Alcotest.(check bool) "missing intern counts corrupt" true
        ((Store.counters s3).Store.disk_corrupt > 0);
      Store.put_footprints s3 ~key fps;
      let s4 = open_store dir in
      Alcotest.(check bool) "intern republished" true (Store.find_footprints s4 ~key <> None))

let test_readonly_and_write_errors () =
  let _, fl, fp, fps, _ = sample_artifacts () in
  with_temp_dir (fun dir ->
      let ro = open_store ~read_only:true dir in
      let key = Store.footprint_key ~fp ~fl in
      Store.put_footprints ro ~key fps;
      let c = Store.counters ro in
      Alcotest.(check int) "read-only writes nothing" 0 c.Store.disk_bytes_written;
      Alcotest.(check int) "read-only is not an error" 0 c.Store.disk_write_errors;
      Alcotest.(check bool) "read-only find misses" true (Store.find_footprints ro ~key = None));
  with_temp_dir (fun dir ->
      (* Family paths squatted by regular files: every write fails, the
         failure is counted, and nothing raises. *)
      let s = open_store dir in
      List.iter
        (fun fam ->
          let p = Filename.concat dir fam in
          if Sys.file_exists p && Sys.is_directory p then Unix.rmdir p;
          Out_channel.with_open_bin p (fun oc -> Out_channel.output_string oc "squat"))
        Store.families;
      let key = Store.footprint_key ~fp ~fl in
      Store.put_footprints s ~key fps;
      Alcotest.(check bool) "failed writes are counted" true
        ((Store.counters s).Store.disk_write_errors > 0);
      Alcotest.(check bool) "failed write still misses" true (Store.find_footprints s ~key = None))

(* --- typed entries round-trip through a real store ---------------------- *)

let test_put_find_roundtrip () =
  let k, fl, fp, fps, profile = sample_artifacts () in
  with_temp_dir (fun dir ->
      let s = open_store dir in
      let kf = Store.footprint_key ~fp ~fl in
      let summary = Footprint.analyze k fl in
      Alcotest.(check bool) "the sample summarizes" true
        (match summary with Footprint.Summary _ -> true | _ -> false);
      Store.put_footprints s ~key:kf summary;
      Alcotest.(check bool) "a summary is stored as its TBs" true
        (Store.find_footprints s ~key:kf = Some fps);
      Store.put_footprints s ~key:kf fps;
      Alcotest.(check bool) "footprints round-trip" true (Store.find_footprints s ~key:kf = Some fps);
      let kp = Store.profile_key ~fp ~fl in
      Store.put_profile s ~key:kp profile;
      (match Store.find_profile s ~key:kp with
      | None -> Alcotest.fail "profile miss"
      | Some p ->
        Alcotest.(check bool) "profile bits round-trip" true
          (let a = Costmodel.repr_of_profile p and b = Costmodel.repr_of_profile profile in
           float_arrays_bit_equal a.Costmodel.prr_insts b.Costmodel.prr_insts
           && float_arrays_bit_equal a.Costmodel.prr_mem b.Costmodel.prr_mem));
      let krw = Store.rw_key ~fp ~fl ~buffers:[ (0, 64, 4096); (1, 8192, 4096) ] in
      let rw = { Reorder.reads = [ 0; 1 ]; writes = [ 1 ] } in
      Store.put_rw s ~key:krw rw;
      Alcotest.(check bool) "rw round-trip" true (Store.find_rw s ~key:krw = Some rw);
      let krel = Store.pair_key ~pfp:fp ~pfl:fl ~cfp:fp ~cfl:fl ~max_degree:64 in
      let rel =
        Bipartite.Graph
          (Bipartite.of_edges ~n_parents:4 ~n_children:4 [ (0, 0); (1, 1); (2, 2); (3, 3) ])
      in
      Store.put_relation s ~key:krel ~n_parents:4 ~n_children:4 rel;
      Alcotest.(check bool) "relation round-trip" true (Store.find_relation s ~key:krel = Some rel);
      (* A second process (fresh Store on the same directory) sees it all. *)
      let s2 = open_store dir in
      Alcotest.(check bool) "fresh store hits footprints" true
        (Store.find_footprints s2 ~key:kf = Some fps);
      Alcotest.(check bool) "fresh store hits relation" true
        (Store.find_relation s2 ~key:krel = Some rel);
      let c = Store.counters s2 in
      Alcotest.(check int) "no misses on fresh store" 0
        (c.Store.disk_misses + c.Store.disk_stale + c.Store.disk_corrupt))

(* --- disk-warm preparation: cycle-identical, 100% second-pass hit rate -- *)

let test_disk_warm_cycle_identical () =
  with_temp_dir (fun dir ->
      (* Populate. *)
      let populate = open_store dir in
      List.iter
        (fun (_, mk) ->
          let cache = Cache.create ~store:populate () in
          ignore (Prep.prepare ~cache cfg (mk ())))
        Suite.all;
      (* Fresh process image: new Store, cold in-memory caches. *)
      let warm_store = open_store dir in
      List.iter
        (fun (name, mk) ->
          let app = mk () in
          let mode = Mode.Producer_priority in
          let cold = Sim.run cfg mode (Prep.prepare cfg app) in
          let cache = Cache.create ~store:warm_store () in
          let warm = Sim.run cfg mode (Prep.prepare ~cache cfg app) in
          match Diff.diff_stats warm cold with
          | [] -> ()
          | line :: _ -> Alcotest.failf "%s: disk-warm diverges from cold: %s" name line)
        Suite.all;
      let c = Store.counters warm_store in
      Alcotest.(check int) "no disk misses on the warm pass" 0
        (c.Store.disk_misses + c.Store.disk_stale + c.Store.disk_corrupt);
      Alcotest.(check bool) "disk hits on the warm pass" true (c.Store.disk_hits > 0))

let suite =
  [
    QCheck_alcotest.to_alcotest prop_footprints_roundtrip;
    QCheck_alcotest.to_alcotest prop_profile_roundtrip;
    QCheck_alcotest.to_alcotest prop_profile_rejects_out_of_domain;
    QCheck_alcotest.to_alcotest prop_rw_roundtrip;
    QCheck_alcotest.to_alcotest prop_relation_roundtrip;
    QCheck_alcotest.to_alcotest prop_packed_ints_roundtrip;
    QCheck_alcotest.to_alcotest prop_packed_floats_roundtrip;
    Alcotest.test_case "codec: malformed payloads never raise" `Quick test_malformed_payloads;
    Alcotest.test_case "store: typed put/find round-trip" `Quick test_put_find_roundtrip;
    Alcotest.test_case "store: every keyed field changes identity" `Quick test_keyed_staleness;
    Alcotest.test_case "store: corruption demoted to misses" `Quick test_corruption_demoted;
    Alcotest.test_case "store: read-only and write errors" `Quick test_readonly_and_write_errors;
    Alcotest.test_case "store: disk-warm cycle-identical suite" `Slow test_disk_warm_cycle_identical;
  ]
