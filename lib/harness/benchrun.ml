(* `bench --json FILE` / `--compare OLD.json`: the machine-readable bench
   trajectory (moved out of the bench executable so the parallel/sequential
   identity is testable).

   [collect] runs every suite app under baseline + the Fig. 9 modes with
   the metrics registry attached and the span profiler wrapping the host
   pipeline, then packs the results into a schema-versioned Benchfile.
   Apps are independent tasks on a Bm_parallel domain pool; each task owns
   its own profiler, per-mode registries and in-memory analysis cache (the
   sinks are single-domain by design) and the pool returns app results in
   suite order, so the file layout and every simulated quantity are
   identical for any domain count.

   [compare] re-measures and diffs the *simulated cycles* against a saved
   file — cycles are deterministic, so any delta is a behavior change, not
   timer noise — and returns non-zero when a slowdown exceeds the
   threshold. *)

module Config = Bm_gpu.Config
module Stats = Bm_gpu.Stats
module Mode = Bm_maestro.Mode
module Prep = Bm_maestro.Prep
module Sim = Bm_maestro.Sim
module Suite = Bm_workloads.Suite
module Metrics = Bm_metrics.Metrics
module Prof = Bm_metrics.Prof
module Benchfile = Bm_metrics.Benchfile
module Report = Bm_report.Report

let cycles_of (cfg : Config.t) (s : Stats.t) =
  (* total_us x (cycles/us): clock_ghz GHz = clock_ghz * 1000 cycles/us. *)
  s.Stats.total_us *. cfg.Config.clock_ghz *. 1000.0

let collect_app cfg modes (name, gen) =
  let prof = Prof.create () in
  (* Each app task owns its launch-time analysis cache, like its profiler
     and registries: caches are single-domain sinks (DESIGN §8/§9).  The two
     preparations of one app share it, so the reordered prep hits on every
     kernel the plain prep analyzed. *)
  let cache = Bm_maestro.Cache.create () in
  let app = Prof.span prof "build" gen in
  (* The two reordering variants share their preparation, like
     Runner.simulate_all; both charge the same "prepare" span. *)
  let prep =
    Mode.by_class (fun ~reorder ->
        Prof.span prof "prepare" (fun () -> Prep.prepare ~reorder ~prof ~cache cfg app))
  in
  let runs =
    List.map
      (fun mode ->
        let metrics = Metrics.create () in
        let stats = Prof.span prof "simulate" (fun () -> Sim.run ~metrics cfg mode (prep mode)) in
        (mode, metrics, stats))
      modes
  in
  let baseline =
    match List.find_opt (fun (m, _, _) -> m = Mode.Baseline) runs with
    | Some (_, _, s) -> s
    | None -> assert false
  in
  let mode_results =
    List.map
      (fun (mode, metrics, stats) ->
        let hw g =
          match Metrics.find_gauge metrics g with
          | Some g -> Metrics.high_water g
          | None -> 0.0
        in
        {
          Benchfile.mr_mode = Mode.name mode;
          mr_total_us = stats.Stats.total_us;
          mr_cycles = cycles_of cfg stats;
          mr_speedup = Stats.speedup ~baseline stats;
          mr_dlb_high_water = hw "dlb.occupancy";
          mr_pcb_high_water = hw "pcb.occupancy";
          mr_mem_overhead_pct = Stats.mem_overhead_pct stats;
        })
      runs
  in
  let pipeline =
    List.map
      (fun (s : Prof.summary) -> (String.concat ";" s.Prof.s_path, s.Prof.s_total_s *. 1e6))
      (Prof.summaries prof)
  in
  { Benchfile.ar_app = name; ar_pipeline_us = pipeline; ar_modes = mode_results }

let collect ?apps ?jobs () =
  let cfg = Config.titan_x_pascal in
  let modes = Mode.all_fig9 in
  let apps = match apps with Some a -> a | None -> Suite.all in
  let results =
    Bm_parallel.map_ordered ?domains:jobs (collect_app cfg modes) (Array.of_list apps)
  in
  {
    Benchfile.bf_schema = Benchfile.schema_version;
    bf_config = Config.to_assoc cfg;
    bf_apps = Array.to_list results;
  }

let write ?jobs file =
  let bf = collect ?jobs () in
  Benchfile.save file bf;
  Printf.printf "wrote %s: %d apps x %d modes (schema v%d)\n" file
    (List.length bf.Benchfile.bf_apps)
    (match bf.Benchfile.bf_apps with
    | a :: _ -> List.length a.Benchfile.ar_modes
    | [] -> 0)
    Benchfile.schema_version

(* Returns the process exit code: 0 in-threshold, 1 regression, 2 I/O or
   parse failure on the old file. *)
let compare_against ?jobs ~threshold_pct old_file =
  match Benchfile.load old_file with
  | Error msg ->
    Printf.eprintf "cannot load %s: %s\n" old_file msg;
    2
  | Ok old ->
    (* The file stores cycles at JSON precision (12 significant digits);
       compare the fresh measurement at that precision too, so identical
       cycles read as a zero delta even under --threshold 0. *)
    let current = collect ?jobs () in
    let current =
      Result.value ~default:current (Benchfile.of_string (Benchfile.to_string current))
    in
    let ds = Benchfile.deltas ~old current in
    Report.print (Benchfile.delta_table ~threshold_pct ds);
    let regs = Benchfile.regressions ~threshold_pct ds in
    if regs = [] then begin
      Printf.printf "no regression beyond %.1f%% across %d (app, mode) pairs\n" threshold_pct
        (List.length ds);
      0
    end
    else begin
      Printf.eprintf "%d (app, mode) pair(s) regressed beyond %.1f%%:\n" (List.length regs)
        threshold_pct;
      List.iter
        (fun (d : Benchfile.delta) ->
          Printf.eprintf "  %s / %s: %+.2f%% (%.0f -> %.0f cycles)\n" d.Benchfile.d_app
            d.Benchfile.d_mode d.Benchfile.d_pct d.Benchfile.d_old_cycles d.Benchfile.d_new_cycles)
        regs;
      1
    end
