(* The "explain" layer: why a run took as long as it did.

   Orchestrates the report-side analyses (Bm_report.Attrib exact stall
   attribution, Bm_report.Critpath critical-path extraction) over an
   actual simulation and adds the one thing only the
   simulator can answer: what-if sensitivity, re-running the same app
   under a config with one cost zeroed to bound the speedup each
   overhead class could ever buy (the Amdahl "fix this first" ranking).

   Everything here round-trips through the Json codec: times are carried
   as integer ticks (exact) plus 1e-4-us-rounded floats for display, so
   encode -> print -> parse -> decode -> encode is byte-stable — the
   property bmctl explain --json is tested against. *)

module Config = Bm_gpu.Config
module Stats = Bm_gpu.Stats
module Attrib = Bm_report.Attrib
module Critpath = Bm_report.Critpath
module Trace = Bm_report.Trace
module Report = Bm_report.Report
module Metrics = Bm_metrics.Metrics
module Json = Bm_metrics.Json

type whatif = { wi_knob : string; wi_total_us : float; wi_speedup : float }

type solo = {
  x_app : string;
  x_mode : Mode.t;
  x_total_us : float;  (* the run's Stats.total_us *)
  x_attrib : Attrib.t;
  x_critpath : Critpath.t;
  x_whatif : whatif list;
}

let machine ?slots (cfg : Config.t) mode =
  {
    Attrib.ma_slots = (match slots with Some s -> s | None -> Config.total_tb_slots cfg);
    ma_window = Mode.window mode;
    ma_fine = Mode.fine_grain mode;
  }

(* --- what-if knobs ----------------------------------------------------- *)

let knobs = [ "launch"; "copy"; "malloc" ]

let zero_knob (cfg : Config.t) = function
  | "launch" -> { cfg with Config.kernel_launch_us = 0.0 }
  | "copy" ->
    (* memcpy cost is latency + bytes/bandwidth: zero both terms *)
    { cfg with Config.memcpy_latency_us = 0.0; memcpy_gb_per_s = infinity }
  | "malloc" -> { cfg with Config.malloc_us = 0.0 }
  | k -> invalid_arg (Printf.sprintf "Bm_maestro.Explain.zero_knob: unknown knob %S" k)

(* --- solo runs --------------------------------------------------------- *)

let analyze ?(series = false) machine trace =
  let parsed = Attrib.Parse.of_trace trace in
  (Attrib.of_parsed ~series machine parsed, Critpath.of_parsed machine parsed)

let run_traced ?(cfg = Config.titan_x_pascal) ?(whatif = true) ?series ?cache mode ~name app =
  (* One preparation serves every run: the zeroed knobs enter only the
     engine, never the launch-time analysis. *)
  let prep = Runner.prepare ~cfg ?cache mode app in
  let trace = Trace.create () in
  let stats = Sim.run ~trace:(Trace.sink trace) cfg mode prep in
  let attrib, critpath = analyze ?series (machine cfg mode) trace in
  let x_whatif =
    if not whatif then []
    else
      List.map
        (fun knob ->
          let stats' = Sim.run (zero_knob cfg knob) mode prep in
          {
            wi_knob = knob;
            wi_total_us = stats'.Stats.total_us;
            wi_speedup =
              (if stats'.Stats.total_us > 0.0 then stats.Stats.total_us /. stats'.Stats.total_us
               else 1.0);
          })
        knobs
  in
  ( {
      x_app = name;
      x_mode = mode;
      x_total_us = stats.Stats.total_us;
      x_attrib = attrib;
      x_critpath = critpath;
      x_whatif;
    },
    stats,
    trace )

let run ?cfg ?whatif ?series ?cache mode ~name app =
  let solo, _, _ = run_traced ?cfg ?whatif ?series ?cache mode ~name app in
  solo

(* --- validation -------------------------------------------------------- *)

let check_critpath (cp : Critpath.t) =
  let n = Array.length cp.Critpath.cp_nodes in
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
  if Critpath.length_ticks cp <> cp.Critpath.cp_makespan_ticks then
    err "critical path covers %d ticks of a %d-tick makespan" (Critpath.length_ticks cp)
      cp.Critpath.cp_makespan_ticks;
  if n > 0 then begin
    let nodes = cp.Critpath.cp_nodes in
    if nodes.(0).Critpath.cn_start <> 0 then
      err "critical path starts at tick %d, not 0" nodes.(0).Critpath.cn_start;
    if nodes.(n - 1).Critpath.cn_end <> cp.Critpath.cp_makespan_ticks then
      err "critical path ends at tick %d, makespan is %d" nodes.(n - 1).Critpath.cn_end
        cp.Critpath.cp_makespan_ticks;
    for i = 0 to n - 2 do
      if nodes.(i).Critpath.cn_end <> nodes.(i + 1).Critpath.cn_start then
        err "critical path gap: node %d ends at %d, node %d starts at %d" i
          nodes.(i).Critpath.cn_end (i + 1)
          nodes.(i + 1).Critpath.cn_start
    done
  end;
  match !errors with [] -> Ok () | es -> Error (String.concat "; " (List.rev es))

let check solo =
  match Attrib.conservation solo.x_attrib with
  | Error e -> Error ("attribution conservation violated: " ^ e)
  | Ok () ->
    (match check_critpath solo.x_critpath with
    | Error e -> Error ("critical path broken: " ^ e)
    | Ok () ->
      if solo.x_attrib.Attrib.at_makespan_ticks <> solo.x_critpath.Critpath.cp_makespan_ticks
      then Error "attribution and critical path disagree on the makespan"
      else Ok ())

(* Cross-check against the simulator's own per-TB timing columns: busy
   slot-ticks derived from the event stream must equal the quantized sum of
   TB durations — two independent data paths to the same integer. *)
let column_exec_ticks (stats : Stats.t) =
  let acc = ref 0 in
  Array.iteri
    (fun k starts ->
      let finish = stats.Stats.tb_finish.(k) in
      for tb = 0 to Array.length starts - 1 do
        acc := !acc + (Attrib.ticks_of_us finish.(tb) - Attrib.ticks_of_us starts.(tb))
      done)
    stats.Stats.tb_start;
  !acc

let check_records solo (stats : Stats.t) =
  let from_columns = column_exec_ticks stats in
  let from_events = Attrib.exec_ticks solo.x_attrib in
  if from_columns = from_events then Ok ()
  else
    Error
      (Printf.sprintf "exec ticks: %d from the event stream, %d from the Stats TB columns"
         from_events from_columns)

(* --- co-running -------------------------------------------------------- *)

let corun ?(cfg = Config.titan_x_pascal) ?submission ?spatial ?cache ?series mode apps =
  let cache = match cache with Some c -> c | None -> Cache.create () in
  let preps = Array.map (fun (_, app) -> Runner.prepare ~cfg ~cache mode app) apps in
  let traces = Array.map (fun _ -> Trace.create ()) apps in
  let sinks = Array.map (fun t -> Some (Trace.sink t)) traces in
  let res = Multi.run ?submission ?spatial ~traces:sinks cfg mode preps in
  let solos =
    Array.mapi
      (fun i (name, _) ->
        (* Each app owns its events (app-local ids); its slot budget is
           what the spatial policy granted it.  Cross-tenant waits are not
           visible in a per-app stream, so they land in host/idle — the
           honest reading under contention. *)
        let machine = machine ~slots:res.Multi.mr_slots.(i) cfg mode in
        let attrib, critpath = analyze ?series machine traces.(i) in
        {
          x_app = name;
          x_mode = mode;
          x_total_us = res.Multi.mr_stats.(i).Stats.total_us;
          x_attrib = attrib;
          x_critpath = critpath;
          x_whatif = [];
        })
      apps
  in
  (solos, res)

(* Per-app attributions must sum to the machine totals: every app's busy
   slot-ticks check against its own TB columns, so the sum over apps equals
   the machine's total busy slot-ticks by the same integer identity. *)
let check_corun solos (res : Multi.result) =
  let errors = ref [] in
  Array.iteri
    (fun i solo ->
      (match check solo with
      | Error e -> errors := Printf.sprintf "app %d (%s): %s" i solo.x_app e :: !errors
      | Ok () -> ());
      match check_records solo res.Multi.mr_stats.(i) with
      | Error e -> errors := Printf.sprintf "app %d (%s): %s" i solo.x_app e :: !errors
      | Ok () -> ())
    solos;
  let machine_exec =
    Array.fold_left (fun acc st -> acc + column_exec_ticks st) 0 res.Multi.mr_stats
  in
  let summed = Array.fold_left (fun acc s -> acc + Attrib.exec_ticks s.x_attrib) 0 solos in
  if summed <> machine_exec then
    errors :=
      Printf.sprintf "per-app exec ticks sum to %d, machine total is %d" summed machine_exec
      :: !errors;
  match !errors with [] -> Ok () | es -> Error (String.concat "; " (List.rev es))

(* --- JSON -------------------------------------------------------------- *)

(* Display floats are rounded to 1e-4 us before encoding: every emitted
   number then has a short exact decimal form, so printing and re-parsing
   reproduces the identical float (and the identical byte string) — the
   round-trip property the tests pin.  Exact quantities travel as ticks. *)
let q4 x =
  if Float.is_finite x then Float.round (x *. 1e4) /. 1e4 else x

let num_i n = Json.Num (float_of_int n)

let attrib_to_json (a : Attrib.t) =
  Json.Obj
    [
      ("slots", num_i a.Attrib.at_machine.Attrib.ma_slots);
      ("window", num_i a.Attrib.at_machine.Attrib.ma_window);
      ("fine", Json.Bool a.Attrib.at_machine.Attrib.ma_fine);
      ("makespan_ticks", num_i a.Attrib.at_makespan_ticks);
      ( "cells",
        Json.Obj
          (List.map
             (fun r ->
               ( Attrib.resource_name r,
                 Json.Obj
                   (List.map
                      (fun b -> (Attrib.bucket_name b, num_i (Attrib.cell a r b)))
                      Attrib.buckets) ))
             Attrib.resources) );
      ( "kernel_exec",
        Json.Arr
          (Array.to_list a.Attrib.at_kernel_exec
          |> List.map (fun (seq, ticks) -> Json.Arr [ num_i seq; num_i ticks ])) );
      ( "series",
        Json.Arr
          (Array.to_list a.Attrib.at_series
          |> List.map (fun (tick, counts) ->
                 Json.Arr [ num_i tick; Json.Arr (Array.to_list (Array.map (fun c -> num_i c) counts)) ])) );
    ]

let node_to_json (n : Critpath.node) =
  let kind_fields =
    match n.Critpath.cn_kind with
    | Critpath.Ntb { seq; tb } -> [ ("kind", Json.Str "tb"); ("seq", num_i seq); ("tb", num_i tb) ]
    | Critpath.Ncopy { cmd; d2h } ->
      [ ("kind", Json.Str "copy"); ("cmd", num_i cmd); ("d2h", Json.Bool d2h) ]
    | Critpath.Nlaunch { seq } -> [ ("kind", Json.Str "launch"); ("seq", num_i seq) ]
    | Critpath.Nhost -> [ ("kind", Json.Str "host") ]
  in
  Json.Obj
    (kind_fields
    @ [
        ("start", num_i n.Critpath.cn_start);
        ("end", num_i n.Critpath.cn_end);
        ("edge", Json.Str (Critpath.edge_name n.Critpath.cn_edge));
      ])

let to_json solo =
  Json.Obj
    [
      ("app", Json.Str solo.x_app);
      ("mode", Json.Str (Mode.short_name solo.x_mode));
      ("total_us", Json.Num (q4 solo.x_total_us));
      ("attrib", attrib_to_json solo.x_attrib);
      ( "critpath",
        Json.Obj
          [
            ("makespan_ticks", num_i solo.x_critpath.Critpath.cp_makespan_ticks);
            ( "nodes",
              Json.Arr (Array.to_list (Array.map node_to_json solo.x_critpath.Critpath.cp_nodes))
            );
          ] );
      ( "whatif",
        Json.Arr
          (List.map
             (fun w ->
               Json.Obj
                 [
                   ("knob", Json.Str w.wi_knob);
                   ("total_us", Json.Num (q4 w.wi_total_us));
                   ("speedup", Json.Num (q4 w.wi_speedup));
                 ])
             solo.x_whatif) );
    ]

(* --- rendering --------------------------------------------------------- *)

let whatif_table ?(title = "what-if: zero one cost") solo =
  let tab = Report.table ~title ~columns:[ "knob"; "total us"; "speedup bound" ] in
  List.iter
    (fun w ->
      Report.row tab
        [ w.wi_knob; Printf.sprintf "%.2f" w.wi_total_us; Printf.sprintf "%.3fx" w.wi_speedup ])
    (List.sort (fun a b -> compare b.wi_speedup a.wi_speedup) solo.x_whatif);
  tab

let tables ?(top = 5) solo =
  let title fmt = Printf.sprintf fmt solo.x_app (Mode.short_name solo.x_mode) in
  [ Attrib.table ~title:(title "cycle attribution: %s (%s)") solo.x_attrib;
    Critpath.table ~title:(title "critical path: %s (%s)") solo.x_critpath;
    Critpath.edges_table solo.x_critpath;
    Critpath.top_table ~top solo.x_critpath ]
  @ if solo.x_whatif = [] then [] else [ whatif_table solo ]

(* --- metrics export ---------------------------------------------------- *)

let export ?(prefix = "") reg solo =
  let counter name v = Metrics.add (Metrics.counter reg (prefix ^ name)) v in
  List.iter
    (fun r ->
      List.iter
        (fun b ->
          counter
            (Printf.sprintf "attrib.%s.%s_us" (Attrib.resource_name r) (Attrib.bucket_name b))
            (Attrib.us_of_ticks (Attrib.cell solo.x_attrib r b)))
        Attrib.buckets)
    Attrib.resources;
  counter "critpath.length_us" (Critpath.length_us solo.x_critpath);
  counter "critpath.nodes" (float_of_int (Array.length solo.x_critpath.Critpath.cp_nodes));
  List.iter
    (fun (kind, ticks) ->
      counter (Printf.sprintf "critpath.%s_us" kind) (Attrib.us_of_ticks ticks))
    (Critpath.kind_ticks solo.x_critpath);
  List.iter
    (fun (edge, count, ticks) ->
      counter (Printf.sprintf "critpath.edge.%s.count" edge) (float_of_int count);
      counter (Printf.sprintf "critpath.edge.%s.us" edge) (Attrib.us_of_ticks ticks))
    (Critpath.edge_breakdown solo.x_critpath);
  List.iter
    (fun w ->
      Metrics.set (Metrics.gauge reg (prefix ^ Printf.sprintf "whatif.%s.speedup" w.wi_knob))
        ~at:0.0 w.wi_speedup)
    solo.x_whatif

(* --- chrome counter series -------------------------------------------- *)

(* The Attrib slot-pool series as a Chrome counter track (stacked area
   chart over the bucket counts), for Trace.to_chrome_json ?counters. *)
let counter_series solo =
  [
    ( "slot attribution",
      Array.to_list solo.x_attrib.Attrib.at_series
      |> List.map (fun (tick, counts) ->
             ( Attrib.us_of_ticks tick,
               List.map
                 (fun b -> (Attrib.bucket_name b, float_of_int counts.(Attrib.bucket_index b)))
                 Attrib.buckets )) );
  ]
