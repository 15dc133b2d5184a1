(* Tests for reporting helpers and the baseline comparison models. *)

module Report = Bm_report.Report
module Stats = Bm_gpu.Stats
module Mode = Bm_maestro.Mode
module Runner = Bm_maestro.Runner
module Cdp = Bm_baselines.Cdp
module Wireframe = Bm_baselines.Wireframe
module Wavefront = Bm_workloads.Wavefront

let test_geomean () =
  Alcotest.(check (float 1e-9)) "geomean of equal" 2.0 (Report.geomean [ 2.0; 2.0; 2.0 ]);
  Alcotest.(check (float 1e-9)) "geomean 1x4" 2.0 (Report.geomean [ 1.0; 4.0 ]);
  Alcotest.(check (float 1e-9)) "skips non-positive" 3.0 (Report.geomean [ 3.0; 0.0; -1.0 ]);
  (* The empty contract is unified with [mean]: raise, never a silent
     default summary figure. *)
  Alcotest.check_raises "empty raises" (Invalid_argument "Report.geomean: empty") (fun () ->
      ignore (Report.geomean []));
  Alcotest.check_raises "all non-positive raises"
    (Invalid_argument "Report.geomean: no positive entries") (fun () ->
      ignore (Report.geomean [ 0.0; -2.0 ]))

let test_mean () =
  Alcotest.(check (float 1e-9)) "mean" 2.0 (Report.mean [ 1.0; 2.0; 3.0 ]);
  Alcotest.check_raises "empty raises" (Invalid_argument "Report.mean: empty") (fun () ->
      ignore (Report.mean []))

let test_quartiles () =
  let q1, med, q3 = Report.quartiles [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  Alcotest.(check (float 1e-9)) "q1" 2.0 q1;
  Alcotest.(check (float 1e-9)) "median" 3.0 med;
  Alcotest.(check (float 1e-9)) "q3" 4.0 q3

let test_percentile_edges () =
  let xs = [| 10.0; 20.0 |] in
  Alcotest.(check (float 1e-9)) "p0" 10.0 (Report.percentile xs 0.0);
  Alcotest.(check (float 1e-9)) "p100" 20.0 (Report.percentile xs 100.0);
  Alcotest.(check (float 1e-9)) "p50 interpolates" 15.0 (Report.percentile xs 50.0);
  Alcotest.(check (float 1e-9)) "singleton" 7.0 (Report.percentile [| 7.0 |] 75.0);
  Alcotest.check_raises "empty" (Invalid_argument "Report.percentile: empty") (fun () ->
      ignore (Report.percentile [||] 50.0))

let test_percentile_range_validation () =
  let bad = Invalid_argument "Report.percentile: p out of [0,100]" in
  let xs = [| 1.0; 2.0; 3.0 |] in
  Alcotest.check_raises "negative p" bad (fun () -> ignore (Report.percentile xs (-1.0)));
  Alcotest.check_raises "p above 100" bad (fun () -> ignore (Report.percentile xs 100.5));
  Alcotest.check_raises "NaN p" bad (fun () -> ignore (Report.percentile xs Float.nan));
  (* p > 100 used to clamp silently to the max via [min (n-1)]. *)
  Alcotest.check_raises "large p no longer clamps" bad (fun () ->
      ignore (Report.percentile xs 1000.0))

let test_percentile_unsorted_input () =
  Alcotest.(check (float 1e-9)) "sorts internally" 3.0
    (Report.percentile [| 5.0; 1.0; 3.0 |] 50.0)

let test_percentile_nan () =
  (* NaN entries are dropped, not sorted-below-everything (which would
     silently shift every rank). *)
  Alcotest.(check (float 1e-9)) "NaN skipped" 15.0
    (Report.percentile [| Float.nan; 10.0; Float.nan; 20.0 |] 50.0);
  Alcotest.(check (float 1e-9)) "singleton after NaN filtering" 7.0
    (Report.percentile [| Float.nan; 7.0 |] 99.0);
  Alcotest.check_raises "all-NaN raises like empty"
    (Invalid_argument "Report.percentile: empty") (fun () ->
      ignore (Report.percentile [| Float.nan; Float.nan |] 50.0))

let test_quartiles_edges () =
  let q1, med, q3 = Report.quartiles [| 5.0 |] in
  Alcotest.(check (float 1e-9)) "singleton q1" 5.0 q1;
  Alcotest.(check (float 1e-9)) "singleton median" 5.0 med;
  Alcotest.(check (float 1e-9)) "singleton q3" 5.0 q3;
  let q1, med, q3 = Report.quartiles [| Float.nan; 1.0; 3.0; Float.nan |] in
  Alcotest.(check (float 1e-9)) "NaN-filtered q1" 1.5 q1;
  Alcotest.(check (float 1e-9)) "NaN-filtered median" 2.0 med;
  Alcotest.(check (float 1e-9)) "NaN-filtered q3" 2.5 q3

let test_csv_field () =
  Alcotest.(check string) "plain passes through" "abc" (Report.csv_field "abc");
  Alcotest.(check string) "empty passes through" "" (Report.csv_field "");
  Alcotest.(check string) "comma quoted" "\"a,b\"" (Report.csv_field "a,b");
  Alcotest.(check string) "quote doubled" "\"a\"\"b\"" (Report.csv_field "a\"b");
  Alcotest.(check string) "newline quoted" "\"a\nb\"" (Report.csv_field "a\nb");
  Alcotest.(check string) "all at once" "\"a,\"\"b\"\"\r\nc\"" (Report.csv_field "a,\"b\"\r\nc")

let test_pct_format () =
  Alcotest.(check string) "positive" "+51.8%" (Report.pct 1.518);
  Alcotest.(check string) "negative" "-10.0%" (Report.pct 0.9)

let test_table_mismatch () =
  let t = Report.table ~title:"t" ~columns:[ "a"; "b" ] in
  Alcotest.check_raises "cell count" (Invalid_argument "Report.row: cell count mismatch") (fun () ->
      Report.row t [ "only one" ])

let test_utf8_length () =
  Alcotest.(check int) "ascii" 5 (Report.utf8_length "hello");
  Alcotest.(check int) "empty" 0 (Report.utf8_length "");
  Alcotest.(check int) "2-byte scalars" 6 (Report.utf8_length "kern\xc3\xa9l");
  Alcotest.(check int) "3-byte scalars" 2 (Report.utf8_length "\xe6\xa0\xb8\xe5\xbf\x83");
  Alcotest.(check int) "4-byte scalar" 1 (Report.utf8_length "\xf0\x9f\x9a\x80")

let test_table_utf8_alignment () =
  (* A multi-byte kernel name must not widen its column: every rendered
     border and separator lines up by displayed width, not bytes. *)
  let t = Report.table ~title:"utf8" ~columns:[ "kernel"; "us" ] in
  Report.row t [ "ascii"; "1.0" ];
  Report.row t [ "kern\xc3\xa9l\xe2\x82\x82"; "2.0" ];
  (* 7 display columns, 10 bytes *)
  let out = Report.to_string t in
  let lines = String.split_on_char '\n' out |> List.filter (fun l -> l <> "") in
  let widths = List.map Report.utf8_length lines in
  match widths with
  | _title :: w :: rest ->
    List.iter (fun w' -> Alcotest.(check int) "all table lines equally wide" w w') rest;
    (* Separator positions must agree between a pure-ASCII row and the
       UTF-8 row: find each '|' column index measured in scalars. *)
    let bar_cols line =
      let cols = ref [] in
      let col = ref 0 in
      String.iter
        (fun c ->
          if Char.code c land 0xC0 <> 0x80 then begin
            if c = '|' then cols := !col :: !cols;
            incr col
          end)
        line;
      List.rev !cols
    in
    let rows = List.filter (fun l -> String.length l > 0 && l.[0] = '|') lines in
    (match rows with
    | first :: others ->
      List.iter
        (fun r -> Alcotest.(check (list int)) "separators aligned" (bar_cols first) (bar_cols r))
        others
    | [] -> Alcotest.fail "no rows rendered")
  | _ -> Alcotest.fail "no table output"

let prop_percentile_bounds =
  QCheck2.Test.make ~name:"percentile in [0,100] lies between min and max" ~count:300
    QCheck2.Gen.(
      pair (list_size (int_range 1 50) (float_range 0.0 1000.0)) (float_range 0.0 100.0))
    (fun (xs, p) ->
      let arr = Array.of_list xs in
      let v = Report.percentile arr p in
      let lo = List.fold_left min infinity xs and hi = List.fold_left max neg_infinity xs in
      v >= lo -. 1e-9 && v <= hi +. 1e-9)

let prop_percentile_out_of_range_raises =
  QCheck2.Test.make ~name:"percentile outside [0,100] raises" ~count:100
    QCheck2.Gen.(pair (list_size (int_range 1 10) (float_range 0.0 10.0)) (float_range 0.001 500.0))
    (fun (xs, off) ->
      let arr = Array.of_list xs in
      let p = if off <= 250.0 then -.off else 100.0 +. (off -. 250.0) in
      match Report.percentile arr p with
      | _ -> false
      | exception Invalid_argument _ -> true)

let prop_quartiles_ordered =
  QCheck2.Test.make ~name:"quartiles are ordered and within range" ~count:200
    QCheck2.Gen.(list_size (int_range 1 50) (float_bound_exclusive 100.0))
    (fun xs ->
      let arr = Array.of_list xs in
      let q1, med, q3 = Report.quartiles arr in
      let lo = List.fold_left min infinity xs and hi = List.fold_left max neg_infinity xs in
      q1 <= med && med <= q3 && q1 >= lo -. 1e-9 && q3 <= hi +. 1e-9)

let prop_geomean_bounds =
  QCheck2.Test.make ~name:"geomean lies between min and max" ~count:200
    QCheck2.Gen.(list_size (int_range 1 20) (float_range 0.1 10.0))
    (fun xs ->
      let g = Report.geomean xs in
      let lo = List.fold_left min infinity xs and hi = List.fold_left max neg_infinity xs in
      g >= lo -. 1e-9 && g <= hi +. 1e-9)

(* --- baselines -------------------------------------------------------- *)

let wavefront_app = lazy (Wavefront.make ~name:"cmp" ~work:2800 ~halo:1 ())

let test_cdp_beats_host_baseline () =
  (* CDP's 3us device launches beat the 5us host-side serialized baseline. *)
  let app = Lazy.force wavefront_app in
  let host = Runner.simulate Mode.Baseline app in
  let cdp = Cdp.simulate app in
  Alcotest.(check bool) "cdp faster" true (cdp.Stats.total_us < host.Stats.total_us)

let test_fig14_ordering () =
  let cfg = { Bm_gpu.Config.titan_x_pascal with Bm_gpu.Config.jitter_frac = 0.35 } in
  let app = Lazy.force wavefront_app in
  let cdp = (Cdp.simulate ~cfg app).Stats.total_us in
  let wf = (Wireframe.simulate ~cfg app).Stats.total_us in
  let prod = (Runner.simulate ~cfg Mode.Producer_priority app).Stats.total_us in
  let cons = (Runner.simulate ~cfg (Mode.Consumer_priority 4) app).Stats.total_us in
  Alcotest.(check bool) "producer beats CDP" true (prod < cdp);
  Alcotest.(check bool) "wireframe beats producer" true (wf < prod);
  Alcotest.(check bool) "consumer run-ahead is best" true (cons < wf)

let test_wireframe_buffer_limit () =
  Alcotest.(check bool) "pending buffer is small" true (Wireframe.pending_update_slots <= 512)


(* [percentiles] sorts once with its own float sort; every percentile must
   come out bit for bit as [Array.sort compare] over a copy gives it, ties
   of [0.0] and [-0.0] included, so printed figures keep their bytes. *)
let reference_percentile xs p =
  let s = Array.of_list (List.filter (fun x -> not (Float.is_nan x)) (Array.to_list xs)) in
  Array.sort compare s;
  let n = Array.length s in
  if n = 1 then s.(0)
  else
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (floor rank) in
    let hi = min (n - 1) (lo + 1) in
    let frac = rank -. float_of_int lo in
    (s.(lo) *. (1.0 -. frac)) +. (s.(hi) *. frac)

let prop_percentiles_bits =
  QCheck2.Test.make ~name:"percentiles: bit-identical to Array.sort compare, signed zeros included"
    ~count:300
    QCheck2.Gen.(
      array_size (int_range 1 200)
        (frequency
           [ (3, return 0.0); (3, return (-0.0)); (1, return Float.nan); (4, map float_of_int (int_range (-3) 3));
             (2, float_range (-1.0) 1.0) ]))
    (fun xs ->
      Array.for_all Float.is_nan xs
      ||
      let ps = [| 0.0; 12.5; 25.0; 50.0; 75.0; 90.0; 99.0; 100.0 |] in
      let got = Report.percentiles xs ps and q1, med, q3 = Report.quartiles xs in
      let bits = Int64.bits_of_float in
      Array.for_all2 (fun g p -> bits g = bits (reference_percentile xs p)) got ps
      && bits q1 = bits got.(2) && bits med = bits got.(3) && bits q3 = bits got.(4))


(* A whole [bmctl run], stall quartiles included, is held to 1.3x the
   words it allocates today (903,285): the quartiles once sorted every
   stall fraction three times through boxed comparisons, 16.8 M words. *)
let test_run_allocation_budget () =
  match Exe.allocated_words Exe.bmctl_exe [ "run"; "AlexNet"; "-m"; "producer" ] with
  | None -> Alcotest.fail "bmctl run AlexNet failed or reported no allocation count"
  | Some words ->
    if words > 1_174_270 then
      Alcotest.failf "bmctl run AlexNet -m producer allocated %d words, budget 1,174,270" words

let suite =
  [
    Alcotest.test_case "geomean" `Quick test_geomean;
    Alcotest.test_case "mean" `Quick test_mean;
    Alcotest.test_case "quartiles" `Quick test_quartiles;
    Alcotest.test_case "percentile edges" `Quick test_percentile_edges;
    Alcotest.test_case "percentile p validation" `Quick test_percentile_range_validation;
    Alcotest.test_case "utf8_length" `Quick test_utf8_length;
    Alcotest.test_case "table UTF-8 alignment" `Quick test_table_utf8_alignment;
    Alcotest.test_case "percentile sorts" `Quick test_percentile_unsorted_input;
    Alcotest.test_case "percentile NaN handling" `Quick test_percentile_nan;
    Alcotest.test_case "quartiles edges" `Quick test_quartiles_edges;
    Alcotest.test_case "csv_field escaping" `Quick test_csv_field;
    Alcotest.test_case "pct formatting" `Quick test_pct_format;
    Alcotest.test_case "table row mismatch" `Quick test_table_mismatch;
    Alcotest.test_case "baselines: CDP vs host" `Slow test_cdp_beats_host_baseline;
    Alcotest.test_case "baselines: Fig. 14 ordering" `Slow test_fig14_ordering;
    Alcotest.test_case "baselines: wireframe buffers" `Quick test_wireframe_buffer_limit;
    QCheck_alcotest.to_alcotest prop_quartiles_ordered;
    QCheck_alcotest.to_alcotest prop_geomean_bounds;
    QCheck_alcotest.to_alcotest prop_percentile_bounds;
    QCheck_alcotest.to_alcotest prop_percentile_out_of_range_raises;
    QCheck_alcotest.to_alcotest prop_percentiles_bits;
    Alcotest.test_case "bmctl run: allocation budget" `Quick test_run_allocation_budget;
  ]

(* --- timeline --------------------------------------------------------- *)

module Timeline = Bm_report.Timeline

let timeline_stats () =
  Runner.simulate Mode.Producer_priority
    (Bm_workloads.Microbench.vector_add ~tbs:16)

let test_timeline_spans () =
  let s = timeline_stats () in
  let sp = Timeline.spans s in
  Alcotest.(check int) "two kernels" 2 (Array.length sp);
  Array.iter
    (fun k ->
      Alcotest.(check int) "16 TBs" 16 k.Timeline.ks_tbs;
      Alcotest.(check bool) "span ordered" true (k.Timeline.ks_first_start < k.Timeline.ks_last_finish))
    sp;
  Alcotest.(check bool) "k1 does not finish before k0 starts" true
    (sp.(1).Timeline.ks_last_finish > sp.(0).Timeline.ks_first_start)

let test_timeline_ascii () =
  let s = timeline_stats () in
  let out = Timeline.ascii ~width:40 s in
  Alcotest.(check bool) "mentions totals" true
    (String.length out > 0 && String.sub out 0 8 = "timeline");
  (* One row per kernel + header + occupancy track. *)
  let lines = String.split_on_char '\n' out |> List.filter (fun l -> l <> "") in
  Alcotest.(check int) "4 lines" 4 (List.length lines)

let test_timeline_ascii_elision () =
  let app = Bm_workloads.Suite.pathfinder () in
  let s = Runner.simulate Mode.Baseline app in
  let out = Timeline.ascii ~max_rows:3 s in
  Alcotest.(check bool) "elides with ellipsis" true
    (List.exists
       (fun l -> String.length l > 4 && String.sub l 2 3 = "...")
       (String.split_on_char '\n' out))

let test_timeline_csv () =
  let s = timeline_stats () in
  let out = Timeline.csv s in
  let lines = String.split_on_char '\n' out |> List.filter (fun l -> l <> "") in
  (* Header + 32 TBs. *)
  Alcotest.(check int) "rows" 33 (List.length lines);
  Alcotest.(check string) "header" "kernel,tb,dep_ready,start,finish" (List.hd lines)

(* Golden outputs: the renderers feed scripts and docs, so their exact
   byte-for-byte output is part of the interface.  The fixture is the
   4-TB vector-add microbenchmark under the (deterministic) baseline; if a
   legitimate rendering or cost-model change lands, regenerate with
     Timeline.ascii ~width:40 / Timeline.csv
   over Runner.simulate Mode.Baseline (Microbench.vector_add ~tbs:4). *)

let golden_stats = lazy (Runner.simulate Mode.Baseline (Bm_workloads.Microbench.vector_add ~tbs:4))

let golden_ascii =
  "timeline: 20.96 us total, 2 kernels\n\
   k0        4 TB |                        ##              |\n\
   k1        4 TB |                                   ##   |\n\
   TBs active per column (max 4)|                        99         92   |\n"

let golden_csv =
  "kernel,tb,dep_ready,start,finish\n\
   0,0,0.0000,13.0410,13.4480\n\
   0,1,0.0000,13.0410,13.4290\n\
   0,2,0.0000,13.0410,13.4215\n\
   0,3,0.0000,13.0410,13.4177\n\
   1,0,13.4480,18.4480,18.8246\n\
   1,1,13.4290,18.4480,18.8252\n\
   1,2,13.4215,18.4480,18.9435\n\
   1,3,13.4177,18.4480,18.8465\n"

let test_timeline_ascii_golden () =
  Alcotest.(check string) "ascii golden" golden_ascii
    (Timeline.ascii ~width:40 (Lazy.force golden_stats))

let test_timeline_csv_golden () =
  Alcotest.(check string) "csv golden" golden_csv (Timeline.csv (Lazy.force golden_stats))

let timeline_suite =
  [
    Alcotest.test_case "timeline: spans" `Quick test_timeline_spans;
    Alcotest.test_case "timeline: ascii" `Quick test_timeline_ascii;
    Alcotest.test_case "timeline: elision" `Quick test_timeline_ascii_elision;
    Alcotest.test_case "timeline: csv" `Quick test_timeline_csv;
    Alcotest.test_case "timeline: ascii golden" `Quick test_timeline_ascii_golden;
    Alcotest.test_case "timeline: csv golden" `Quick test_timeline_csv_golden;
  ]

let suite = suite @ timeline_suite
