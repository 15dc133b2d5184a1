(* Typed counter/gauge/histogram registry.

   The simulator (and any other subsystem) receives an optional registry,
   mirroring the [?trace] sink pattern: when absent, instrumentation sites
   are guarded by a single option match and the hot loops pay nothing.
   When present:

   - counters accumulate monotonically (spill bytes, masked launch cycles);
   - gauges keep a last value, a high-water mark and a (timestamp, value)
     time series (DLB/PCB occupancy over simulated time, Fig. 14);
   - histograms keep every sample, so percentile summaries are *exact*
     (computed with Report.percentile at snapshot time), not bucketed
     approximations.

   Snapshots are immutable and exportable as JSON (via Json), CSV (sharing
   Report.csv_field with the trace exporter) and report tables. *)

module Report = Bm_report.Report

(* Growable float buffer: unboxed storage so hot-path appends do not box. *)
type buf = { mutable data : float array; mutable len : int }

let buf_create () = { data = [||]; len = 0 }

let buf_push b x =
  if b.len = Array.length b.data then begin
    let cap = max 16 (2 * Array.length b.data) in
    let data = Array.make cap 0.0 in
    Array.blit b.data 0 data 0 b.len;
    b.data <- data
  end;
  b.data.(b.len) <- x;
  b.len <- b.len + 1

let buf_contents b = Array.sub b.data 0 b.len

type counter = { c_name : string; mutable c_value : float }

type gauge = {
  g_name : string;
  mutable g_value : float;
  mutable g_high : float;
  g_ts : buf;  (* parallel (timestamp, value) series *)
  g_vs : buf;
}

type histogram = { h_name : string; h_samples : buf }

type metric = C of counter | G of gauge | H of histogram

type t = {
  by_name : (string, metric) Hashtbl.t;
  mutable rev_order : metric list;  (* registration order, reversed *)
}

let create () = { by_name = Hashtbl.create 32; rev_order = [] }

let kind_name = function C _ -> "counter" | G _ -> "gauge" | H _ -> "histogram"

let register t name make =
  match Hashtbl.find_opt t.by_name name with
  | Some m -> m
  | None ->
    let m = make () in
    Hashtbl.add t.by_name name m;
    t.rev_order <- m :: t.rev_order;
    m

let clash name want m =
  invalid_arg
    (Printf.sprintf "Bm_metrics.Metrics: %S already registered as a %s, not a %s" name
       (kind_name m) want)

let counter t name =
  match register t name (fun () -> C { c_name = name; c_value = 0.0 }) with
  | C c -> c
  | m -> clash name "counter" m

let gauge t name =
  match
    register t name (fun () ->
        G { g_name = name; g_value = 0.0; g_high = neg_infinity; g_ts = buf_create (); g_vs = buf_create () })
  with
  | G g -> g
  | m -> clash name "gauge" m

let histogram t name =
  match register t name (fun () -> H { h_name = name; h_samples = buf_create () }) with
  | H h -> h
  | m -> clash name "histogram" m

let add c x = c.c_value <- c.c_value +. x
let incr c = add c 1.0
let counter_value c = c.c_value

let set g ~at v =
  g.g_value <- v;
  if v > g.g_high then g.g_high <- v;
  buf_push g.g_ts at;
  buf_push g.g_vs v

let gauge_value g = g.g_value
let high_water g = if g.g_ts.len = 0 then 0.0 else g.g_high

let observe h x = buf_push h.h_samples x

(* --- merging ----------------------------------------------------------- *)

(* Registries are mutable and single-domain; parallel sweeps give every
   task its own registry and fold them into one after the pool drains.
   Same-name metrics must agree on kind; counters add, gauge series
   concatenate in merge order (the caller merges tasks in input order, so
   the result is deterministic), histograms pool their samples. *)
let merge ~into src =
  let order = List.rev src.rev_order in
  List.iter
    (fun m ->
      match m with
      | C c ->
        let dst = counter into c.c_name in
        add dst c.c_value
      | G g ->
        let dst = gauge into g.g_name in
        for i = 0 to g.g_ts.len - 1 do
          set dst ~at:g.g_ts.data.(i) g.g_vs.data.(i)
        done
      | H h ->
        let dst = histogram into h.h_name in
        for i = 0 to h.h_samples.len - 1 do
          observe dst h.h_samples.data.(i)
        done)
    order

(* --- lookup ------------------------------------------------------------ *)

let find_counter t name =
  match Hashtbl.find_opt t.by_name name with Some (C c) -> Some c | _ -> None

let find_gauge t name =
  match Hashtbl.find_opt t.by_name name with Some (G g) -> Some g | _ -> None

let find_histogram t name =
  match Hashtbl.find_opt t.by_name name with Some (H h) -> Some h | _ -> None

(* --- snapshots --------------------------------------------------------- *)

type counter_summary = { cs_name : string; cs_value : float }

type gauge_summary = {
  gs_name : string;
  gs_last : float;
  gs_high : float;
  gs_series : (float * float) array;  (* (timestamp, value), sample order *)
}

type histogram_summary = {
  hs_name : string;
  hs_count : int;
  hs_min : float;
  hs_max : float;
  hs_mean : float;
  hs_p25 : float;
  hs_p50 : float;
  hs_p75 : float;
  hs_p90 : float;
  hs_p99 : float;
}

type snapshot = {
  sn_counters : counter_summary array;
  sn_gauges : gauge_summary array;
  sn_histograms : histogram_summary array;
}

let summarize_histogram h =
  let xs = buf_contents h.h_samples in
  let n = Array.length xs in
  if n = 0 then
    { hs_name = h.h_name; hs_count = 0; hs_min = nan; hs_max = nan; hs_mean = nan;
      hs_p25 = nan; hs_p50 = nan; hs_p75 = nan; hs_p90 = nan; hs_p99 = nan }
  else begin
    (* One sort for every percentile, and unboxed folds with [min]/[max]'s
       tie and NaN behaviour. *)
    let ps = Report.percentiles xs [| 25.0; 50.0; 75.0; 90.0; 99.0 |] in
    let sum = ref 0.0 and lo = ref infinity and hi = ref neg_infinity in
    for i = 0 to n - 1 do
      let x = xs.(i) in
      sum := !sum +. x;
      if not (!lo <= x) then lo := x;
      if not (!hi >= x) then hi := x
    done;
    {
      hs_name = h.h_name;
      hs_count = n;
      hs_min = !lo;
      hs_max = !hi;
      hs_mean = !sum /. float_of_int n;
      hs_p25 = ps.(0);
      hs_p50 = ps.(1);
      hs_p75 = ps.(2);
      hs_p90 = ps.(3);
      hs_p99 = ps.(4);
    }
  end

let snapshot t =
  let order = List.rev t.rev_order in
  let counters = List.filter_map (function C c -> Some { cs_name = c.c_name; cs_value = c.c_value } | _ -> None) order in
  let gauges =
    List.filter_map
      (function
        | G g ->
          let ts = buf_contents g.g_ts and vs = buf_contents g.g_vs in
          Some
            {
              gs_name = g.g_name;
              gs_last = g.g_value;
              gs_high = high_water g;
              gs_series = Array.init (Array.length ts) (fun i -> (ts.(i), vs.(i)));
            }
        | _ -> None)
      order
  in
  let histograms = List.filter_map (function H h -> Some (summarize_histogram h) | _ -> None) order in
  {
    sn_counters = Array.of_list counters;
    sn_gauges = Array.of_list gauges;
    sn_histograms = Array.of_list histograms;
  }

(* --- exporters --------------------------------------------------------- *)

let to_json sn =
  let counters =
    Array.to_list sn.sn_counters
    |> List.map (fun c -> (c.cs_name, Json.Num c.cs_value))
  in
  let gauges =
    Array.to_list sn.sn_gauges
    |> List.map (fun g ->
           ( g.gs_name,
             Json.Obj
               [ ("last", Json.Num g.gs_last); ("high_water", Json.Num g.gs_high);
                 ("samples", Json.Num (float_of_int (Array.length g.gs_series)));
                 ("series",
                  Json.Arr
                    (Array.to_list g.gs_series
                    |> List.map (fun (ts, v) -> Json.Arr [ Json.Num ts; Json.Num v ]))) ] ))
  in
  let histograms =
    Array.to_list sn.sn_histograms
    |> List.map (fun h ->
           ( h.hs_name,
             Json.Obj
               [ ("count", Json.Num (float_of_int h.hs_count)); ("min", Json.Num h.hs_min);
                 ("max", Json.Num h.hs_max); ("mean", Json.Num h.hs_mean);
                 ("p25", Json.Num h.hs_p25); ("p50", Json.Num h.hs_p50);
                 ("p75", Json.Num h.hs_p75); ("p90", Json.Num h.hs_p90);
                 ("p99", Json.Num h.hs_p99) ] ))
  in
  Json.Obj
    [ ("counters", Json.Obj counters); ("gauges", Json.Obj gauges);
      ("histograms", Json.Obj histograms) ]

let fnum x = if Float.is_nan x then "" else Printf.sprintf "%.6g" x

let to_csv sn =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "kind,name,value,high_water,count,min,max,mean,p25,p50,p75,p90,p99\n";
  let line cells = Buffer.add_string buf (String.concat "," (List.map Report.csv_field cells) ^ "\n") in
  Array.iter
    (fun c -> line [ "counter"; c.cs_name; fnum c.cs_value; ""; ""; ""; ""; ""; ""; ""; ""; ""; "" ])
    sn.sn_counters;
  Array.iter
    (fun g ->
      line
        [ "gauge"; g.gs_name; fnum g.gs_last; fnum g.gs_high;
          string_of_int (Array.length g.gs_series); ""; ""; ""; ""; ""; ""; ""; "" ])
    sn.sn_gauges;
  Array.iter
    (fun h ->
      line
        [ "histogram"; h.hs_name; ""; ""; string_of_int h.hs_count; fnum h.hs_min; fnum h.hs_max;
          fnum h.hs_mean; fnum h.hs_p25; fnum h.hs_p50; fnum h.hs_p75; fnum h.hs_p90; fnum h.hs_p99 ])
    sn.sn_histograms;
  Buffer.contents buf

let table ?(title = "metrics") sn =
  let t = Report.table ~title ~columns:[ "metric"; "kind"; "value"; "high water"; "p50"; "p99"; "n" ] in
  let f x = if Float.is_nan x then "-" else Printf.sprintf "%.2f" x in
  Array.iter (fun c -> Report.row t [ c.cs_name; "counter"; f c.cs_value; "-"; "-"; "-"; "-" ]) sn.sn_counters;
  Array.iter
    (fun g ->
      Report.row t
        [ g.gs_name; "gauge"; f g.gs_last; f g.gs_high; "-"; "-";
          string_of_int (Array.length g.gs_series) ])
    sn.sn_gauges;
  Array.iter
    (fun h ->
      Report.row t
        [ h.hs_name; "histogram"; f h.hs_mean; f h.hs_max; f h.hs_p50; f h.hs_p99;
          string_of_int h.hs_count ])
    sn.sn_histograms;
  t
