(* Host-performance ledger.

     dune exec bench/ledger/ledger.exe -- --workload W [--seed N] [--seconds S]
         [--trace 0|1 | --traced] [-o FILE] [--folded FILE]
     dune exec bench/ledger/ledger.exe -- compare A.json B.json
     dune exec bench/ledger/ledger.exe -- reference

   A run prints every metric with its unit, checks every output, and ends
   with one JSON line: {"correct", "attempted", "failed", "metrics"} where
   the metrics are the end-to-end set, or the per-layer set when traced.
   -o appends the full run record to a JSON array in FILE; `compare` holds
   two such files against the bounds in BENCHMARK.json.  Run from the
   repository root (the reference and BENCHMARK.json paths are relative). *)

module Json = Bm_metrics.Json
module Mode = Bm_maestro.Mode
module Sim = Bm_maestro.Sim
module Stats = Bm_gpu.Stats
open Bm_ledger
module W = Workloads

let usage () =
  prerr_string
    "usage: ledger.exe --workload W [--seed N] [--seconds S] [--trace 0|1 | --traced]\n\
    \                  [-o FILE] [--folded FILE]\n\
    \       ledger.exe compare A.json B.json\n\
    \       ledger.exe reference\n";
  Printf.eprintf "workloads: %s\n" (String.concat ", " (List.map (fun w -> w.W.name) W.all))

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("ledger: " ^ msg);
      exit 2)
    fmt

let read_json path =
  match Reference.read_file path with
  | Error msg -> die "%s" msg
  | Ok s -> ( match Json.of_string s with Ok j -> j | Error msg -> die "%s: %s" path msg)

let reference_path = "bench/ledger/reference.json"

let write_file path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

(* Numbers with every digit: %.17g round-trips any double. *)
let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let result_line (r : Measure.result) =
  let metrics = if r.Measure.traced then r.Measure.per_layer else r.Measure.end_to_end in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (r.Measure.failed = 0) r.Measure.attempted r.Measure.failed
    (String.concat ", "
       (List.map
          (fun (m : Measure.metric) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.Measure.name (num m.Measure.value)
              m.Measure.unit)
          metrics))

let record_json (r : Measure.result) =
  Json.Obj
    [
      ("schema", Json.Str "bm.ledger.run/1");
      ("workload", Json.Str r.Measure.workload);
      ("seed", Json.Num (float_of_int r.Measure.seed));
      ("traced", Json.Bool r.Measure.traced);
      ("correct", Json.Bool (r.Measure.failed = 0));
      ("attempted", Json.Num (float_of_int r.Measure.attempted));
      ("failed", Json.Num (float_of_int r.Measure.failed));
      ("passes", Json.Num (float_of_int r.Measure.passes));
      ("items", Json.Num (float_of_int r.Measure.items));
      ( "metrics",
        Json.Obj
          (List.map
             (fun (m : Measure.metric) ->
               (m.Measure.name, Json.Obj [ ("value", Json.Num m.Measure.value); ("unit", Json.Str m.Measure.unit) ]))
             (r.Measure.end_to_end @ r.Measure.per_layer)) );
    ]

let append_record path r =
  let previous =
    if Sys.file_exists path then match read_json path with Json.Arr l -> l | j -> [ j ] else []
  in
  write_file path (Json.to_string ~pretty:true (Json.Arr (previous @ [ record_json r ])))

let run_workload args =
  let workload = ref None and seed = ref W.default_seed and seconds = ref Measure.default.Measure.seconds in
  let traced = ref false and out = ref None and folded = ref None in
  let int_arg flag v = match int_of_string_opt v with Some n -> n | None -> die "%s expects an integer, got %S" flag v in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest ->
      workload := Some v;
      parse rest
    | "--seed" :: v :: rest ->
      seed := int_arg "--seed" v;
      parse rest
    | "--seconds" :: v :: rest ->
      (match float_of_string_opt v with
      | Some s when s >= 0.0 -> seconds := s
      | Some _ | None -> die "--seconds expects a non-negative number, got %S" v);
      parse rest
    | "--trace" :: v :: rest ->
      (match v with "0" -> traced := false | "1" -> traced := true | _ -> die "--trace expects 0 or 1, got %S" v);
      parse rest
    | "--traced" :: rest ->
      traced := true;
      parse rest
    | "-o" :: v :: rest ->
      out := Some v;
      parse rest
    | "--folded" :: v :: rest ->
      folded := Some v;
      parse rest
    | arg :: _ ->
      usage ();
      die "unexpected argument %S" arg
  in
  parse args;
  let w =
    match !workload with
    | None ->
      usage ();
      die "--workload is required"
    | Some name -> (
      match W.find name with
      | Some w -> w
      | None ->
        usage ();
        die "unknown workload %S" name)
  in
  if !folded <> None && not !traced then die "--folded needs a traced run (--traced or --trace 1)";
  let reference =
    if !seed <> W.default_seed then None
    else
      match Reference.load reference_path with
      | Ok r -> Some r
      | Error msg -> die "cannot load the default-seed reference: %s" msg
  in
  let root = "_ledger_tmp" in
  let scratch = Filename.concat root (Printf.sprintf "%s-%d" w.W.name (Unix.getpid ())) in
  let env = W.env ?reference ~scratch !seed in
  let r =
    Fun.protect
      ~finally:(fun () ->
        W.rm_tree scratch;
        try Sys.rmdir root with Sys_error _ -> ())
      (fun () -> Measure.run ~config:{ Measure.default with Measure.seconds = !seconds } ~traced:!traced ~seed:!seed w env)
  in
  Printf.printf "== %s (seed %d%s) ==\n" w.W.name !seed (if !traced then ", traced" else "");
  List.iter (fun n -> Printf.printf "  %s\n" n) r.Measure.notes;
  List.iter
    (fun (m : Measure.metric) -> Printf.printf "  %-32s %16.6f %s\n" m.Measure.name m.Measure.value m.Measure.unit)
    (r.Measure.end_to_end @ r.Measure.per_layer);
  Printf.printf "  %-32s %16.6f (%d of %d failed)\n" "fail_frac"
    (float_of_int r.Measure.failed /. float_of_int (max 1 r.Measure.attempted))
    r.Measure.failed r.Measure.attempted;
  List.iter (fun f -> Printf.eprintf "FAILED %s\n" f) r.Measure.failures;
  Option.iter (fun path -> append_record path r) !out;
  Option.iter (fun path -> write_file path r.Measure.folded) !folded;
  print_endline (result_line r);
  if r.Measure.failed > 0 then exit 1

let run_compare = function
  | [ a; b ] ->
    let get path = match Compare.runs_of_json (read_json path) with Ok r -> r | Error msg -> die "%s: %s" path msg in
    let bounds =
      match Compare.bounds_of_benchmark (read_json "BENCHMARK.json") with Ok b -> b | Error msg -> die "%s" msg
    in
    let rows = Compare.rows bounds (get a) (get b) in
    Compare.print rows;
    if List.exists (fun r -> r.Compare.r_verdict = Compare.Worse) rows then exit 1
  | _ ->
    usage ();
    die "compare expects two run files"

(* Regenerate reference.json at the default seed; it must agree with every
   BENCH_0.json cycle count. *)
let run_reference = function
  | [] ->
    let env = W.env ~scratch:"" W.default_seed in
    let entries =
      List.concat_map
        (fun (app, build) ->
          let plain, reordered = W.prepare_both env.W.cfg (build ()) in
          List.map
            (fun mode ->
              let prep = if Mode.reorders mode then reordered else plain in
              { Reference.app; mode = Mode.name mode; total_us = (Sim.run env.W.cfg mode prep).Stats.total_us })
            W.sweep_modes)
        (W.prepare_apps env)
    in
    let t = { Reference.seed = W.default_seed; entries } in
    let mismatches =
      Reference.bench0_mismatches ~clock_ghz:env.W.cfg.Bm_gpu.Config.clock_ghz t (read_json "BENCH_0.json")
    in
    List.iter (fun m -> Printf.eprintf "BENCH_0 mismatch: %s\n" m) mismatches;
    if mismatches <> [] then exit 1;
    Reference.save reference_path t;
    Printf.printf "wrote %s: %d entries, every BENCH_0.json cycle count within 1e-9\n" reference_path
      (List.length entries)
  | _ ->
    usage ();
    die "reference takes no arguments"

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "compare" :: rest -> run_compare rest
  | "reference" :: rest -> run_reference rest
  | args -> run_workload args
