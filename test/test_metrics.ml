(* Tests for the observability layer: the Bm_metrics counter/gauge/histogram
   registry, the span profiler, the JSON codec, the BENCH trajectory files,
   and the simulator instrumentation (which must be cycle-exact: attaching a
   registry cannot change the schedule). *)

module Metrics = Bm_metrics.Metrics
module Prof = Bm_metrics.Prof
module Json = Bm_metrics.Json
module Benchfile = Bm_metrics.Benchfile
module Report = Bm_report.Report
module Config = Bm_gpu.Config
module Stats = Bm_gpu.Stats
module Mode = Bm_maestro.Mode
module Sim = Bm_maestro.Sim
module Runner = Bm_maestro.Runner
module Microbench = Bm_workloads.Microbench
module Wavefront = Bm_workloads.Wavefront

(* --- registry ---------------------------------------------------------- *)

let test_counter () =
  let reg = Metrics.create () in
  let c = Metrics.counter reg "spills" in
  Metrics.incr c;
  Metrics.incr c;
  Metrics.add c 2.5;
  Alcotest.(check (float 1e-9)) "accumulates" 4.5 (Metrics.counter_value c);
  (* Find-or-create: same name yields the same handle. *)
  Metrics.incr (Metrics.counter reg "spills");
  Alcotest.(check (float 1e-9)) "same handle" 5.5 (Metrics.counter_value c)

let test_gauge () =
  let reg = Metrics.create () in
  let g = Metrics.gauge reg "occupancy" in
  Alcotest.(check (float 1e-9)) "never-set high water" 0.0 (Metrics.high_water g);
  Metrics.set g ~at:1.0 3.0;
  Metrics.set g ~at:2.0 7.0;
  Metrics.set g ~at:3.0 2.0;
  Alcotest.(check (float 1e-9)) "last value" 2.0 (Metrics.gauge_value g);
  Alcotest.(check (float 1e-9)) "high water" 7.0 (Metrics.high_water g);
  let sn = Metrics.snapshot reg in
  let gs = sn.Metrics.sn_gauges.(0) in
  Alcotest.(check int) "series length" 3 (Array.length gs.Metrics.gs_series);
  Alcotest.(check (pair (float 1e-9) (float 1e-9))) "series sample" (2.0, 7.0)
    gs.Metrics.gs_series.(1)

let test_kind_clash () =
  let reg = Metrics.create () in
  ignore (Metrics.counter reg "x");
  Alcotest.check_raises "gauge over counter"
    (Invalid_argument "Bm_metrics.Metrics: \"x\" already registered as a counter, not a gauge")
    (fun () -> ignore (Metrics.gauge reg "x"))

let test_registration_order () =
  let reg = Metrics.create () in
  ignore (Metrics.counter reg "b");
  ignore (Metrics.gauge reg "a");
  ignore (Metrics.counter reg "c");
  let sn = Metrics.snapshot reg in
  Alcotest.(check (list string)) "counters keep registration order" [ "b"; "c" ]
    (Array.to_list (Array.map (fun c -> c.Metrics.cs_name) sn.Metrics.sn_counters))

let test_histogram_summary () =
  let reg = Metrics.create () in
  let h = Metrics.histogram reg "lat" in
  List.iter (Metrics.observe h) [ 4.0; 1.0; 3.0; 2.0 ];
  let sn = Metrics.snapshot reg in
  let hs = sn.Metrics.sn_histograms.(0) in
  Alcotest.(check int) "count" 4 hs.Metrics.hs_count;
  Alcotest.(check (float 1e-9)) "min" 1.0 hs.Metrics.hs_min;
  Alcotest.(check (float 1e-9)) "max" 4.0 hs.Metrics.hs_max;
  Alcotest.(check (float 1e-9)) "mean" 2.5 hs.Metrics.hs_mean;
  Alcotest.(check (float 1e-9)) "p50 interpolates" 2.5 hs.Metrics.hs_p50

let test_histogram_empty_is_nan () =
  let reg = Metrics.create () in
  ignore (Metrics.histogram reg "empty");
  let hs = (Metrics.snapshot reg).Metrics.sn_histograms.(0) in
  Alcotest.(check int) "count" 0 hs.Metrics.hs_count;
  Alcotest.(check bool) "min is NaN" true (Float.is_nan hs.Metrics.hs_min);
  Alcotest.(check bool) "p99 is NaN" true (Float.is_nan hs.Metrics.hs_p99)

(* Histogram percentiles are exact: whatever samples go in, the snapshot must
   agree with Report.percentile over the raw sorted data. *)
let prop_histogram_percentiles_exact =
  QCheck2.Test.make ~name:"histogram percentiles agree with exact sorting" ~count:200
    QCheck2.Gen.(list_size (int_range 1 200) (float_bound_exclusive 1000.0))
    (fun xs ->
      let reg = Metrics.create () in
      let h = Metrics.histogram reg "h" in
      List.iter (Metrics.observe h) xs;
      let hs = (Metrics.snapshot reg).Metrics.sn_histograms.(0) in
      let arr = Array.of_list xs in
      let close a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.abs b) in
      hs.Metrics.hs_count = List.length xs
      && close hs.Metrics.hs_p25 (Report.percentile arr 25.0)
      && close hs.Metrics.hs_p50 (Report.percentile arr 50.0)
      && close hs.Metrics.hs_p75 (Report.percentile arr 75.0)
      && close hs.Metrics.hs_p90 (Report.percentile arr 90.0)
      && close hs.Metrics.hs_p99 (Report.percentile arr 99.0))

let test_metrics_csv_escapes () =
  let reg = Metrics.create () in
  ignore (Metrics.counter reg "evil\"name,with comma");
  let csv = Metrics.to_csv (Metrics.snapshot reg) in
  Alcotest.(check bool) "quoted and doubled" true
    (let sub = "\"evil\"\"name,with comma\"" in
     let rec find i =
       i + String.length sub <= String.length csv
       && (String.sub csv i (String.length sub) = sub || find (i + 1))
     in
     find 0)

(* --- merging (the parallel harness's reduction step) ------------------- *)

let test_metrics_merge () =
  let a = Metrics.create () and b = Metrics.create () in
  Metrics.add (Metrics.counter a "n") 2.0;
  Metrics.add (Metrics.counter b "n") 3.0;
  Metrics.add (Metrics.counter b "only_b") 7.0;
  Metrics.set (Metrics.gauge a "g") ~at:1.0 5.0;
  Metrics.set (Metrics.gauge b "g") ~at:2.0 9.0;
  Metrics.set (Metrics.gauge b "g") ~at:3.0 1.0;
  List.iter (Metrics.observe (Metrics.histogram a "h")) [ 1.0; 2.0 ];
  List.iter (Metrics.observe (Metrics.histogram b "h")) [ 3.0; 4.0 ];
  Metrics.merge ~into:a b;
  Alcotest.(check (float 1e-9)) "counters sum" 5.0
    (Metrics.counter_value (Metrics.counter a "n"));
  Alcotest.(check (float 1e-9)) "absent counters copied" 7.0
    (Metrics.counter_value (Metrics.counter a "only_b"));
  let g = Metrics.gauge a "g" in
  Alcotest.(check (float 1e-9)) "gauge high water is the max" 9.0 (Metrics.high_water g);
  Alcotest.(check (float 1e-9)) "gauge last value from merged samples" 1.0
    (Metrics.gauge_value g);
  let hs =
    (Metrics.snapshot a).Metrics.sn_histograms
    |> Array.to_list
    |> List.find (fun h -> h.Metrics.hs_name = "h")
  in
  Alcotest.(check int) "histogram samples pooled" 4 hs.Metrics.hs_count;
  Alcotest.(check (float 1e-9)) "pooled mean" 2.5 hs.Metrics.hs_mean;
  (* The source registry is read-only during merge. *)
  Alcotest.(check (float 1e-9)) "source untouched" 3.0
    (Metrics.counter_value (Metrics.counter b "n"));
  (* Kind clashes surface instead of silently coercing. *)
  let c = Metrics.create () in
  ignore (Metrics.gauge c "n");
  Alcotest.(check bool) "kind clash raises" true
    (match Metrics.merge ~into:a c with
    | () -> false
    | exception Invalid_argument _ -> true)

(* Merge edge cases around empty instruments: an empty histogram must
   neither poison a populated one nor acquire phantom samples, an empty
   gauge series must not register a 0.0 high-water mark, and re-merging
   a gauge must keep the high water idempotent (max, not sum). *)
let test_metrics_merge_edge_cases () =
  (* empty source histogram into populated destination *)
  let a = Metrics.create () and b = Metrics.create () in
  List.iter (Metrics.observe (Metrics.histogram a "h")) [ 1.0; 2.0; 3.0 ];
  ignore (Metrics.histogram b "h");
  Metrics.merge ~into:a b;
  let hist_of reg name =
    (Metrics.snapshot reg).Metrics.sn_histograms
    |> Array.to_list
    |> List.find (fun h -> h.Metrics.hs_name = name)
  in
  let h = hist_of a "h" in
  Alcotest.(check int) "empty source adds no samples" 3 h.Metrics.hs_count;
  Alcotest.(check (float 1e-9)) "median intact" 2.0 h.Metrics.hs_p50;
  (* populated source into empty destination: summaries become exact
     copies, not NaN-tainted *)
  let c = Metrics.create () and d = Metrics.create () in
  ignore (Metrics.histogram c "h");
  List.iter (Metrics.observe (Metrics.histogram d "h")) [ 5.0; 1.0; 9.0; 7.0 ];
  Metrics.merge ~into:c d;
  let h = hist_of c "h" in
  Alcotest.(check int) "all samples copied" 4 h.Metrics.hs_count;
  Alcotest.(check (float 1e-9)) "min" 1.0 h.Metrics.hs_min;
  Alcotest.(check (float 1e-9)) "max" 9.0 h.Metrics.hs_max;
  (* exact percentiles after merging two sorted-disjoint sample sets *)
  let e = Metrics.create () and f = Metrics.create () in
  List.iter (Metrics.observe (Metrics.histogram e "h")) [ 10.0; 30.0 ];
  List.iter (Metrics.observe (Metrics.histogram f "h")) [ 20.0; 40.0 ];
  Metrics.merge ~into:e f;
  let h = hist_of e "h" in
  Alcotest.(check (float 1e-9)) "pooled p50 is exact" 25.0 h.Metrics.hs_p50;
  Alcotest.(check (float 1e-9)) "pooled p25 is exact" 17.5 h.Metrics.hs_p25;
  (* gauges: an empty series has no high water, and re-merging the same
     source must not inflate it *)
  let g1 = Metrics.create () and g2 = Metrics.create () in
  ignore (Metrics.gauge g1 "g");
  Metrics.set (Metrics.gauge g2 "g") ~at:1.0 4.0;
  Metrics.set (Metrics.gauge g2 "g") ~at:2.0 2.0;
  Alcotest.(check (float 1e-9)) "empty gauge high water is 0" 0.0
    (Metrics.high_water (Metrics.gauge g1 "g"));
  Metrics.merge ~into:g1 g2;
  Alcotest.(check (float 1e-9)) "merged high water" 4.0
    (Metrics.high_water (Metrics.gauge g1 "g"));
  Metrics.merge ~into:g1 g2;
  Alcotest.(check (float 1e-9)) "high water idempotent under re-merge" 4.0
    (Metrics.high_water (Metrics.gauge g1 "g"));
  Alcotest.(check (float 1e-9)) "last value follows final sample" 2.0
    (Metrics.gauge_value (Metrics.gauge g1 "g"))

let test_prof_merge () =
  let now = ref 0.0 in
  let mk () = Prof.create ~clock:(fun () -> !now) () in
  let a = mk () and b = mk () in
  Prof.span a "prepare" (fun () ->
      now := !now +. 2.0;
      Prof.span a "analyze" (fun () -> now := !now +. 1.0));
  Prof.span b "prepare" (fun () -> now := !now +. 4.0);
  Prof.span b "simulate" (fun () -> now := !now +. 8.0);
  Prof.merge ~into:a b;
  let by_path path =
    match List.find_opt (fun s -> s.Prof.s_path = path) (Prof.summaries a) with
    | Some s -> s
    | None -> Alcotest.failf "missing span %s" (String.concat ";" path)
  in
  Alcotest.(check (float 1e-9)) "shared path totals add" 7.0 (by_path [ "prepare" ]).Prof.s_total_s;
  Alcotest.(check int) "shared path counts add" 2 (by_path [ "prepare" ]).Prof.s_count;
  Alcotest.(check (float 1e-9)) "child kept" 1.0 (by_path [ "prepare"; "analyze" ]).Prof.s_total_s;
  Alcotest.(check (float 1e-9)) "disjoint path grafted" 8.0 (by_path [ "simulate" ]).Prof.s_total_s;
  Alcotest.(check (float 1e-9)) "grand total" 15.0 (Prof.total_s a)

(* --- Json -------------------------------------------------------------- *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("s", Json.Str "a\"b\\c\nd");
        ("n", Json.Num 1.5);
        ("i", Json.Num 42.0);
        ("b", Json.Bool true);
        ("z", Json.Null);
        ("a", Json.Arr [ Json.Num 1.0; Json.Str "x"; Json.Obj [] ]);
      ]
  in
  match Json.of_string (Json.to_string v) with
  | Ok v' -> Alcotest.(check bool) "round-trips" true (v = v')
  | Error e -> Alcotest.failf "parse error: %s" e

let test_json_nonfinite_is_null () =
  Alcotest.(check string) "NaN emits null" "null" (Json.to_string (Json.Num Float.nan));
  Alcotest.(check string) "inf emits null" "null" (Json.to_string (Json.Num Float.infinity))

let test_json_rejects_trailing_garbage () =
  match Json.of_string "{} x" with
  | Ok _ -> Alcotest.fail "accepted trailing garbage"
  | Error _ -> ()

(* The number lexer speaks RFC 8259, not OCaml: float_of_string's extras
   (nan, infinity, underscores, hex floats, leading +, bare dots) must be
   parse errors, or a hand-edited BENCH file silently round-trips NaN. *)
let test_json_number_grammar () =
  let accept =
    [
      ("0", 0.0); ("-0", -0.0); ("123", 123.0); ("-9", -9.0); ("1.5", 1.5); ("0.5", 0.5);
      ("10.25", 10.25); ("1e3", 1000.0); ("1E+3", 1000.0); ("2e-2", 0.02); ("-1.25e-4", -1.25e-4);
      ("1.5E2", 150.0);
    ]
  in
  List.iter
    (fun (s, expect) ->
      match Json.of_string s with
      | Ok (Json.Num v) -> Alcotest.(check (float 1e-12)) ("accepts " ^ s) expect v
      | Ok _ -> Alcotest.failf "%s parsed to a non-number" s
      | Error e -> Alcotest.failf "rejected valid number %s: %s" s e)
    accept;
  let reject =
    [
      "nan"; "-nan"; "infinity"; "-infinity"; "inf"; "1_000"; "0x1p3"; "0x10"; "+1"; ".5"; "5.";
      "1."; "01"; "-01"; "1e"; "1e+"; "1.e3"; "--1"; "- 1"; "0b1";
    ]
  in
  List.iter
    (fun s ->
      match Json.of_string s with
      | Ok v -> Alcotest.failf "accepted %s as %s" s (Json.to_string v)
      | Error _ -> ())
    reject;
  (* The same strings embedded in structures fail too (regression guard for
     the container fast paths). *)
  List.iter
    (fun s ->
      match Json.of_string (Printf.sprintf "{\"x\": [%s]}" s) with
      | Ok _ -> Alcotest.failf "accepted embedded %s" s
      | Error _ -> ())
    [ "nan"; "1_000"; "+1" ]

(* The Printf emitter [Json.to_string] replaced, kept as its model: the
   fast paths (integers through [string_of_int], clean strings copied
   whole) must print the same bytes. *)
module Json_model = struct
  let escape s =
    let buf = Buffer.create (String.length s + 8) in
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
      s;
    Buffer.contents buf

  let number x =
    if Float.is_nan x || Float.abs x = infinity then "null"
    else if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
    else Printf.sprintf "%.12g" x

  let to_string ~pretty t =
    let buf = Buffer.create 256 in
    let indent n = if pretty then Buffer.add_string buf (String.make (2 * n) ' ') in
    let nl () = if pretty then Buffer.add_char buf '\n' in
    let seq depth opening closing items emit =
      Buffer.add_char buf opening;
      nl ();
      List.iteri
        (fun i x ->
          if i > 0 then begin
            Buffer.add_char buf ',';
            nl ()
          end;
          indent (depth + 1);
          emit x)
        items;
      nl ();
      indent depth;
      Buffer.add_char buf closing
    in
    let rec go depth = function
      | Json.Null -> Buffer.add_string buf "null"
      | Json.Bool b -> Buffer.add_string buf (if b then "true" else "false")
      | Json.Num x -> Buffer.add_string buf (number x)
      | Json.Str s -> Buffer.add_string buf ("\"" ^ escape s ^ "\"")
      | Json.Arr [] -> Buffer.add_string buf "[]"
      | Json.Arr xs -> seq depth '[' ']' xs (go (depth + 1))
      | Json.Obj [] -> Buffer.add_string buf "{}"
      | Json.Obj fields ->
        seq depth '{' '}' fields (fun (k, v) ->
            Buffer.add_string buf ("\"" ^ escape k ^ (if pretty then "\": " else "\":"));
            go (depth + 1) v)
    in
    go 0 t;
    if pretty then Buffer.add_char buf '\n';
    Buffer.contents buf
end

let gen_json =
  let open QCheck2.Gen in
  let edge = 1e15 -. 1.0 in
  let number =
    oneof
      [
        oneofl
          [ 0.0; -0.0; edge; -.edge; 1e15; -1e15; 0.5; -2.5; 1e-7; 123456.789; Float.nan;
            Float.infinity; Float.neg_infinity; Float.max_float; Float.min_float ];
        map float_of_int (int_range (-1_000_000) 1_000_000);
        map Int64.float_of_bits ui64;
        float;
      ]
  in
  let str = string_size ~gen:(map Char.chr (int_range 0 127)) (int_range 0 12) in
  sized
  @@ fix (fun self n ->
         let leaf =
           oneof
             [ pure Json.Null; map (fun b -> Json.Bool b) bool; map (fun x -> Json.Num x) number;
               map (fun s -> Json.Str s) str ]
         in
         if n <= 0 then leaf
         else
           oneof
             [ leaf;
               map (fun xs -> Json.Arr xs) (list_size (int_range 0 4) (self (n / 4)));
               map (fun fs -> Json.Obj fs) (list_size (int_range 0 4) (pair str (self (n / 4)))) ])

let prop_json_emitter_matches_model =
  QCheck2.Test.make ~name:"json: to_string matches the Printf model" ~count:1000
    ~print:(fun (pretty, t) -> Printf.sprintf "pretty=%b %s" pretty (Json_model.to_string ~pretty t))
    QCheck2.Gen.(pair bool gen_json)
    (fun (pretty, t) -> String.equal (Json.to_string ~pretty t) (Json_model.to_string ~pretty t))

(* Every byte 0-127 alone, and the integral edges, print as the model does. *)
let test_json_emitter_edges () =
  for c = 0 to 127 do
    let t = Json.Str (String.make 1 (Char.chr c)) in
    Alcotest.(check string) (Printf.sprintf "byte %d" c) (Json_model.to_string ~pretty:false t)
      (Json.to_string t)
  done;
  List.iter
    (fun x ->
      Alcotest.(check string) (Printf.sprintf "%h" x) (Json_model.number x) (Json.to_string (Json.Num x)))
    [ 0.0; -0.0; 1e15 -. 1.0; -.(1e15 -. 1.0); 1e15; -1e15; 0.5; -0.5; Float.nan; Float.infinity;
      Float.neg_infinity ];
  Alcotest.(check string) "-0.0 keeps its sign" "-0" (Json.to_string (Json.Num (-0.0)))

(* --- Prof (injected clock: fully deterministic) ------------------------ *)

let test_prof_nesting_and_aggregation () =
  let now = ref 0.0 in
  let p = Prof.create ~clock:(fun () -> !now) () in
  Prof.span p "a" (fun () ->
      now := !now +. 2.0;
      Prof.span p "b" (fun () -> now := !now +. 1.0));
  Prof.span p "a" (fun () -> now := !now +. 3.0);
  let by_path path =
    match List.find_opt (fun s -> s.Prof.s_path = path) (Prof.summaries p) with
    | Some s -> s
    | None -> Alcotest.failf "missing span %s" (String.concat ";" path)
  in
  let a = by_path [ "a" ] and b = by_path [ "a"; "b" ] in
  Alcotest.(check int) "a aggregated into one node" 2 a.Prof.s_count;
  Alcotest.(check (float 1e-9)) "a total" 6.0 a.Prof.s_total_s;
  Alcotest.(check (float 1e-9)) "a self = total - children" 5.0 a.Prof.s_self_s;
  Alcotest.(check (float 1e-9)) "b total" 1.0 b.Prof.s_total_s;
  Alcotest.(check (float 1e-9)) "profiler total" 6.0 (Prof.total_s p)

let test_prof_folded () =
  let now = ref 0.0 in
  let p = Prof.create ~clock:(fun () -> !now) () in
  Prof.span p "a" (fun () ->
      now := !now +. 2.0;
      Prof.span p "b" (fun () -> now := !now +. 1.0));
  let lines = String.split_on_char '\n' (Prof.folded p) |> List.filter (fun l -> l <> "") in
  Alcotest.(check (list string)) "folded stacks, self us" [ "a 2000000"; "a;b 1000000" ] lines

(* Per-app prefixing: rooting every stack under a synthetic frame keeps
   co-running tenants' same-named spans separate in a flamegraph.  The
   ?out channel must receive exactly the returned text. *)
let test_prof_to_folded_prefix () =
  let now = ref 0.0 in
  let mk i =
    let p = Prof.create ~clock:(fun () -> !now) () in
    Prof.span p "prep" (fun () ->
        now := !now +. 1.0;
        Prof.span p "relate" (fun () -> now := !now +. float_of_int (i + 1)));
    p
  in
  let apps = [ mk 0; mk 1 ] in
  let texts = List.mapi (fun i p -> Prof.to_folded ~prefix:(Printf.sprintf "app.%d" i) p) apps in
  Alcotest.(check (list string)) "tenant 0 rooted"
    [ "app.0;prep 1000000"; "app.0;prep;relate 1000000" ]
    (String.split_on_char '\n' (List.nth texts 0) |> List.filter (fun l -> l <> ""));
  Alcotest.(check (list string)) "tenant 1 rooted"
    [ "app.1;prep 1000000"; "app.1;prep;relate 2000000" ]
    (String.split_on_char '\n' (List.nth texts 1) |> List.filter (fun l -> l <> ""));
  (* concatenated outputs keep the tenants' frames disjoint *)
  let all = String.concat "" texts in
  Alcotest.(check bool) "no unprefixed frame" false
    (List.exists
       (fun l -> l <> "" && not (String.length l > 4 && String.sub l 0 4 = "app."))
       (String.split_on_char '\n' all));
  (* ?out writes the same bytes the call returns *)
  let tmp = Filename.temp_file "folded" ".txt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove tmp with Sys_error _ -> ())
    (fun () ->
      let oc = open_out tmp in
      let returned = Prof.to_folded ~out:oc ~prefix:"app.0" (List.nth apps 0) in
      close_out oc;
      let written = In_channel.with_open_bin tmp In_channel.input_all in
      Alcotest.(check string) "out channel mirrors return value" returned written)

let test_prof_exception_safe () =
  let now = ref 0.0 in
  let p = Prof.create ~clock:(fun () -> !now) () in
  (try Prof.span p "boom" (fun () -> now := !now +. 1.0; failwith "x") with Failure _ -> ());
  (* The span still closed: a second top-level span is a sibling, not a child. *)
  Prof.span p "after" (fun () -> now := !now +. 1.0);
  Alcotest.(check (list (list string))) "both top-level" [ [ "boom" ]; [ "after" ] ]
    (List.map (fun s -> s.Prof.s_path) (Prof.summaries p))

let test_prof_with_span_none () =
  Alcotest.(check int) "with_span None just runs f" 7 (Prof.with_span None "x" (fun () -> 7));
  Alcotest.check_raises "exit without enter"
    (Invalid_argument "Bm_metrics.Prof.exit: no open span") (fun () ->
      Prof.exit (Prof.create ~clock:(fun () -> 0.0) ()))

(* --- Benchfile --------------------------------------------------------- *)

let sample_benchfile ?(cycles = 1000.0) () =
  {
    Benchfile.bf_schema = Benchfile.schema_version;
    bf_config = [ ("sms", "28"); ("clock_ghz", "1.417") ];
    bf_apps =
      [
        {
          Benchfile.ar_app = "APP";
          ar_pipeline_us = [ ("prepare", 12.5); ("prepare;analyze", 10.0) ];
          ar_modes =
            [
              {
                Benchfile.mr_mode = "baseline";
                mr_total_us = 100.0;
                mr_cycles = cycles;
                mr_speedup = 1.0;
                mr_dlb_high_water = 0.0;
                mr_pcb_high_water = 0.0;
                mr_mem_overhead_pct = 0.0;
              };
              {
                Benchfile.mr_mode = "consumer2";
                mr_total_us = 50.0;
                mr_cycles = cycles /. 2.0;
                mr_speedup = 2.0;
                mr_dlb_high_water = 80.0;
                mr_pcb_high_water = 255.0;
                mr_mem_overhead_pct = 1.5;
              };
            ];
        };
      ];
  }

let test_benchfile_roundtrip () =
  let bf = sample_benchfile () in
  match Benchfile.of_string (Benchfile.to_string bf) with
  | Ok bf' -> Alcotest.(check bool) "round-trips" true (bf = bf')
  | Error e -> Alcotest.failf "parse error: %s" e

let test_benchfile_rejects_schema () =
  let bf = { (sample_benchfile ()) with Benchfile.bf_schema = 999 } in
  match Benchfile.of_string (Benchfile.to_string bf) with
  | Ok _ -> Alcotest.fail "accepted wrong schema version"
  | Error _ -> ()

let test_benchfile_detects_regression () =
  let old = sample_benchfile () in
  (* Inject an 11% cycle slowdown on every mode of the app. *)
  let current = sample_benchfile ~cycles:1110.0 () in
  let ds = Benchfile.deltas ~old current in
  Alcotest.(check int) "one delta per (app, mode)" 2 (List.length ds);
  let regs = Benchfile.regressions ~threshold_pct:10.0 ds in
  Alcotest.(check int) "both modes regressed beyond 10%" 2 (List.length regs);
  List.iter
    (fun (d : Benchfile.delta) ->
      Alcotest.(check (float 1e-6)) "delta pct" 11.0 d.Benchfile.d_pct)
    regs;
  Alcotest.(check int) "under a generous threshold nothing regresses" 0
    (List.length (Benchfile.regressions ~threshold_pct:15.0 ds));
  (* Speedups are not regressions. *)
  Alcotest.(check int) "improvement direction ignored" 0
    (List.length (Benchfile.regressions ~threshold_pct:10.0 (Benchfile.deltas ~old:current old)))

let test_benchfile_skips_missing_pairs () =
  let old = sample_benchfile () in
  let renamed =
    {
      (sample_benchfile ()) with
      Benchfile.bf_apps =
        List.map
          (fun a -> { a with Benchfile.ar_app = "OTHER" })
          (sample_benchfile ()).Benchfile.bf_apps;
    }
  in
  Alcotest.(check int) "no shared pairs" 0 (List.length (Benchfile.deltas ~old renamed))

(* A zero-cycle old record (empty app, degenerate mode) used to vanish from
   the comparison: new > 0 against old = 0 is the worst possible regression
   and must gate, while 0 -> 0 must stay quiet at every threshold. *)
let test_benchfile_zero_cycle_old () =
  let old = sample_benchfile ~cycles:0.0 () in
  (* Both modes of the sample share cycles via ~cycles; old is all-zero. *)
  let grown = sample_benchfile ~cycles:1000.0 () in
  let ds = Benchfile.deltas ~old grown in
  Alcotest.(check int) "zero-cycle pairs still produce deltas" 2 (List.length ds);
  List.iter
    (fun (d : Benchfile.delta) ->
      Alcotest.(check bool) ("0 -> >0 is +inf% in " ^ d.Benchfile.d_mode) true
        (d.Benchfile.d_pct = infinity))
    ds;
  Alcotest.(check int) "0 -> >0 regresses at any threshold" 2
    (List.length (Benchfile.regressions ~threshold_pct:1e9 ds));
  let still_zero = Benchfile.deltas ~old (sample_benchfile ~cycles:0.0 ()) in
  List.iter
    (fun (d : Benchfile.delta) ->
      Alcotest.(check (float 0.0)) "0 -> 0 is a 0% delta" 0.0 d.Benchfile.d_pct)
    still_zero;
  Alcotest.(check int) "0 -> 0 never regresses" 0
    (List.length (Benchfile.regressions ~threshold_pct:0.0 still_zero))

let test_benchfile_load_missing_file () =
  match Benchfile.load "/nonexistent/benchfile.json" with
  | Ok _ -> Alcotest.fail "loaded a nonexistent file"
  | Error _ -> ()

(* --- simulator instrumentation ----------------------------------------- *)

let test_sim_metrics_cycle_exact () =
  (* Attaching a registry must not perturb the simulation: identical Stats,
     including every per-TB record. *)
  let cfg = Config.titan_x_pascal in
  let app = Microbench.vector_add ~tbs:16 in
  let prep = Runner.prepare ~cfg Mode.Producer_priority app in
  let plain = Sim.run cfg Mode.Producer_priority prep in
  let metrics = Metrics.create () in
  let instrumented = Sim.run ~metrics cfg Mode.Producer_priority prep in
  Alcotest.(check bool) "identical stats" true (plain = instrumented)

let test_sim_metrics_counters () =
  let cfg = Config.titan_x_pascal in
  let app = Microbench.vector_add ~tbs:16 in
  let prep = Runner.prepare ~cfg Mode.Producer_priority app in
  let metrics = Metrics.create () in
  ignore (Sim.run ~metrics cfg Mode.Producer_priority prep);
  let counter name =
    match Metrics.find_counter metrics name with
    | Some c -> Metrics.counter_value c
    | None -> Alcotest.failf "missing counter %s" name
  in
  Alcotest.(check (float 1e-9)) "every TB dispatched" 32.0 (counter "tb.dispatched");
  Alcotest.(check bool) "launch overhead accounted" true
    (counter "launch.masked_us" +. counter "launch.exposed_us" > 0.0);
  Alcotest.(check bool) "copies counted" true (counter "copy.count" > 0.0);
  (match Metrics.find_gauge metrics "window.resident" with
  | Some g -> Alcotest.(check bool) "window high water >= 1" true (Metrics.high_water g >= 1.0)
  | None -> Alcotest.fail "missing gauge window.resident");
  match Metrics.find_histogram metrics "tb.exec_us" with
  | Some _ ->
    let hs =
      (Metrics.snapshot metrics).Metrics.sn_histograms
      |> Array.to_list
      |> List.find (fun h -> h.Metrics.hs_name = "tb.exec_us")
    in
    Alcotest.(check int) "one exec sample per TB" 32 hs.Metrics.hs_count
  | None -> Alcotest.fail "missing histogram tb.exec_us"

let test_sim_metrics_fine_grain_occupancy () =
  (* A fine-grain consumer mode must charge real DLB/PCB occupancy. *)
  let cfg = Config.titan_x_pascal in
  let app = Wavefront.make ~name:"metrics_wf" ~work:10 ~halo:1 () in
  let mode = Mode.Consumer_priority 2 in
  let prep = Runner.prepare ~cfg mode app in
  let metrics = Metrics.create () in
  ignore (Sim.run ~metrics cfg mode prep);
  let hw name =
    match Metrics.find_gauge metrics name with
    | Some g -> Metrics.high_water g
    | None -> Alcotest.failf "missing gauge %s" name
  in
  Alcotest.(check bool) "DLB occupancy observed" true (hw "dlb.occupancy" > 0.0);
  Alcotest.(check bool) "PCB occupancy observed" true (hw "pcb.occupancy" > 0.0)

(* --- bmctl exit codes (integration: runs the built executable) --------- *)

(* Only exit codes matter. *)
let bmctl args = Exe.bmctl args

let test_bmctl_exit_codes () =
  Alcotest.(check int) "--version exits 0" 0 (bmctl [ "--version" ]);
  Alcotest.(check int) "usage error exits 124" 124 (bmctl [ "no-such-command" ]);
  Alcotest.(check int) "bad mode is a usage error" 124 (bmctl [ "stats"; "MVT"; "-m"; "bogus" ]);
  Alcotest.(check int) "unwritable output exits 2" 2
    (bmctl [ "stats"; "MVT"; "-m"; "baseline"; "--json"; "-o"; "/nonexistent-dir/out.json" ]);
  (* Integer options take plain decimal in range: a negative count or bug
     width, or OCaml literal syntax, is a usage error, never a run. *)
  Alcotest.(check int) "fuzz --count=0 exits 0" 0 (bmctl [ "fuzz"; "--count=0"; "--quiet" ]);
  List.iter
    (fun args ->
      Alcotest.(check int) (String.concat " " args ^ " exits 124") 124 (bmctl args))
    [
      [ "fuzz"; "--count=-5" ];
      [ "fuzz"; "--count=0x10" ];
      [ "fuzz"; "--count=1"; "--inject-window-bug=-3" ];
      [ "fuzz"; "--corun"; "--count=1"; "--inject-slots-bug=-40" ];
      [ "stats"; "MVT"; "--jobs=0x2" ];
    ]

let suite =
  [
    Alcotest.test_case "registry: counter" `Quick test_counter;
    Alcotest.test_case "registry: gauge" `Quick test_gauge;
    Alcotest.test_case "registry: kind clash" `Quick test_kind_clash;
    Alcotest.test_case "registry: registration order" `Quick test_registration_order;
    Alcotest.test_case "registry: histogram summary" `Quick test_histogram_summary;
    Alcotest.test_case "registry: empty histogram" `Quick test_histogram_empty_is_nan;
    Alcotest.test_case "registry: csv escaping" `Quick test_metrics_csv_escapes;
    QCheck_alcotest.to_alcotest prop_histogram_percentiles_exact;
    Alcotest.test_case "registry: merge" `Quick test_metrics_merge;
    Alcotest.test_case "registry: merge edge cases" `Quick test_metrics_merge_edge_cases;
    Alcotest.test_case "prof: merge" `Quick test_prof_merge;
    Alcotest.test_case "json: round-trip" `Quick test_json_roundtrip;
    Alcotest.test_case "json: RFC 8259 number grammar" `Quick test_json_number_grammar;
    Alcotest.test_case "json: non-finite" `Quick test_json_nonfinite_is_null;
    Alcotest.test_case "json: trailing garbage" `Quick test_json_rejects_trailing_garbage;
    QCheck_alcotest.to_alcotest prop_json_emitter_matches_model;
    Alcotest.test_case "json: emitter edges" `Quick test_json_emitter_edges;
    Alcotest.test_case "prof: nesting + aggregation" `Quick test_prof_nesting_and_aggregation;
    Alcotest.test_case "prof: folded stacks" `Quick test_prof_folded;
    Alcotest.test_case "prof: to_folded prefix + out" `Quick test_prof_to_folded_prefix;
    Alcotest.test_case "prof: exception safety" `Quick test_prof_exception_safe;
    Alcotest.test_case "prof: with_span/exit" `Quick test_prof_with_span_none;
    Alcotest.test_case "benchfile: round-trip" `Quick test_benchfile_roundtrip;
    Alcotest.test_case "benchfile: schema version" `Quick test_benchfile_rejects_schema;
    Alcotest.test_case "benchfile: regression detection" `Quick test_benchfile_detects_regression;
    Alcotest.test_case "benchfile: zero-cycle old record" `Quick test_benchfile_zero_cycle_old;
    Alcotest.test_case "benchfile: missing pairs" `Quick test_benchfile_skips_missing_pairs;
    Alcotest.test_case "benchfile: load errors" `Quick test_benchfile_load_missing_file;
    Alcotest.test_case "sim: metrics are cycle-exact" `Quick test_sim_metrics_cycle_exact;
    Alcotest.test_case "sim: expected counters" `Quick test_sim_metrics_counters;
    Alcotest.test_case "sim: fine-grain occupancy" `Quick test_sim_metrics_fine_grain_occupancy;
    Alcotest.test_case "bmctl: exit codes" `Slow test_bmctl_exit_codes;
  ]
