(* bmctl: command-line driver for the BlockMaestro simulator.

   Subcommands:
     list                    enumerate benchmarks
     run APP [-m MODE]       simulate one application under one mode
     speedup APP             all Fig. 9 modes for one application
     analyze APP             per-kernel-pair dependency analysis
     timeline APP [-m MODE]  Gantt-style execution timeline
     stats APP [-m MODE]..   performance counters + pipeline spans
     trace APP [-m MODE]..   record, validate and export an event trace
     capture APP [-o FILE]   lower the app into a compiled graph file
     replay APP [-g FILE]..  execute a captured graph, event-triggered
     corun APP APP..         co-run apps on one machine (shared or partitioned)
                             (--deadlines judges each app against a deadline)
     explain APP [APP..]     cycle attribution, critical path, what-if ranking
     rta APP                 response-time-analysis soundness sweep
     fuzz [--seed N]         differential fuzz of scheduler + Algorithm 1
                             (--corun fuzzes two-app concurrency instead)
     ptx APP                 dump the PTX of the application's kernels

   Every invocation prepares its launches against an in-memory analysis
   cache of its own; captured graphs (capture, then replay) are the
   cross-process artifact.

   stats, trace and fuzz accept --jobs N (default: BM_JOBS, else
   available cores capped at 8) to fan independent work — one task per
   requested mode, or per generated fuzz app — over a pool of OCaml domains.
   Results are collected in input order, so output is identical for any N
   and --jobs 1 is the exact sequential path.  --jobs and -m/--mode are
   Bm_cli terms; bench/main.exe shares --jobs.

   Exit codes are distinct per failure kind so CI and scripts can tell
   them apart:
     0    success
     2    I/O error (cannot read/write a requested file, corrupt graph)
     3    differential counterexample (fuzz, or replay --compare mismatch)
     4    an event trace violated the scheduling invariants
     5    stale graph (fingerprint no longer matches the app/config)
     6    attribution divergence (conservation identity or critical-path
          coverage broken — an analysis bug, not an app property)
     7    RTA violation (an observed makespan exceeded the response-time
          analysis bound — the bound is unsound, not merely a missed
          deadline: a miss the analysis predicted exits 0)
     124  usage error (cmdliner's default for bad CLI syntax; also arguments
          that do not fit together, such as a --partition the machine
          cannot hold) *)

open Blockmaestro
open Cmdliner

let version = "3.0.0"

let exit_io_error = Bm_cli.exit_io_error
let exit_counterexample = 3
let exit_trace_violation = 4
let exit_stale_graph = 5
let exit_attrib_divergence = 6
let exit_rta_violation = 7

(* One info constructor so every subcommand also answers --version and
   documents the full exit-code table in its man page. *)
let exits =
  Cmd.Exit.info exit_io_error
    ~doc:"on an I/O error (cannot read or write a requested file, corrupt graph)."
  :: Cmd.Exit.info exit_counterexample
       ~doc:
         "on a differential counterexample (fuzz, replay $(b,--compare), corun $(b,--check))."
  :: Cmd.Exit.info exit_trace_violation
       ~doc:"when an event trace violates the scheduling invariants."
  :: Cmd.Exit.info exit_stale_graph
       ~doc:"when a graph's fingerprint no longer matches the application or config."
  :: Cmd.Exit.info exit_attrib_divergence
       ~doc:
         "on attribution divergence (conservation identity or critical-path coverage broken)."
  :: Cmd.Exit.info exit_rta_violation
       ~doc:
         "when an observed makespan exceeds the response-time-analysis bound (an unsound \
          bound, not merely a missed deadline)."
  :: Cmd.Exit.defaults

let cmd_info name ~doc = Cmd.info name ~doc ~version ~exits

let app_names = List.map fst Suite.all

let app_conv =
  let parse s =
    match List.assoc_opt s Suite.all with
    | Some gen -> Ok (s, gen)
    | None ->
      Error (`Msg (Printf.sprintf "unknown application %S (try: %s)" s (String.concat ", " app_names)))
  in
  Arg.conv (parse, fun ppf (name, _) -> Format.pp_print_string ppf name)

let app_arg =
  Arg.(required & pos 0 (some app_conv) None & info [] ~docv:"APP" ~doc:"Benchmark name (see list).")

(* stats also accepts the pseudo-app "suite": every Table II app prepared
   against one cache, so the counters show cross-app cache effectiveness. *)
let stats_target_conv =
  let parse s =
    if s = "suite" then Ok `Suite
    else
      match List.assoc_opt s Suite.all with
      | Some gen -> Ok (`App (s, gen))
      | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown application %S (try: suite, %s)" s
               (String.concat ", " app_names)))
  in
  let print ppf = function
    | `Suite -> Format.pp_print_string ppf "suite"
    | `App (name, _) -> Format.pp_print_string ppf name
  in
  Arg.conv (parse, print)

let list_cmd =
  let doc = "List the available benchmark applications." in
  let run () =
    List.iter
      (fun (name, gen) ->
        let app = gen () in
        let kernels = List.length (Command.launches app) in
        Printf.printf "%-10s %4d kernel launches, %3d commands\n" name kernels
          (List.length app.Command.commands))
      Suite.all
  in
  Cmd.v (cmd_info "list" ~doc) Term.(const run $ const ())

let print_stats name mode (s : Stats.t) =
  Printf.printf "%s under %s:\n" name (Mode.name mode);
  Printf.printf "  total time        : %10.2f us\n" s.Stats.total_us;
  Printf.printf "  avg TB concurrency: %10.2f\n" s.Stats.avg_concurrency;
  Printf.printf "  data mem requests : %10.0f\n" s.Stats.base_mem_requests;
  Printf.printf "  dep. mem requests : %10.0f (%.2f%%)\n" s.Stats.dep_mem_requests
    (Stats.mem_overhead_pct s);
  let stalls = Stats.stall_fractions s in
  if Array.length stalls > 0 then begin
    let q1, med, q3 = Report.quartiles stalls in
    Printf.printf "  TB stall (q1/med/q3, normalized to exec): %.2f / %.2f / %.2f\n" q1 med q3
  end

let rta_bug_arg =
  Arg.(
    value & flag
    & info [ "inject-rta-bug" ]
        ~doc:
          "Deliberately substitute the analytical $(i,lower) bound for the response-time \
           bound; any real application must then trip an RTA violation (exit 7) — a \
           self-test proving the soundness gate actually detects an optimistic analysis.")

let run_cmd =
  let doc =
    "Simulate one application under one execution mode.  With $(b,--deadline) the run is \
     additionally judged against the deadline and the response-time-analysis bound: a miss \
     the analysis predicted (bound > deadline) exits 0, but a makespan above the bound — an \
     unsound analysis — exits 7."
  in
  let deadline =
    Arg.(
      value
      & opt (some Bm_cli.deadline_conv) None
      & info [ "deadline" ] ~docv:"US"
          ~doc:
            "Absolute deadline in microseconds; reports miss/tardiness/slack and verifies \
             the RTA bound against the observed makespan.")
  in
  let run (name, gen) mode deadline rta_bug =
    let app = gen () in
    let cache = Cache.create () in
    match deadline with
    | None -> print_stats name mode (Runner.simulate ~cache mode app)
    | Some deadline_us ->
      let report, stats =
        Runner.deadline ~cache ~optimistic_bound:rta_bug ~deadline_us mode app
      in
      print_stats name mode stats;
      Format.printf "  %a@." Deadline.pp_report report;
      if report.Deadline.r_rta_violation then begin
        Printf.eprintf "bmctl: RTA VIOLATION: observed %.2f us exceeds the %.2f us bound\n"
          report.Deadline.r_makespan_us report.Deadline.r_bound_us;
        exit exit_rta_violation
      end
  in
  Cmd.v (cmd_info "run" ~doc)
    Term.(
      const run $ app_arg $ Bm_cli.mode () $ deadline $ rta_bug_arg)

let speedup_cmd =
  let doc = "Report speedups over the baseline for every Fig. 9 mode." in
  let run (name, gen) =
    let app = gen () in
    let t = Report.table ~title:(name ^ " speedups") ~columns:[ "mode"; "speedup"; "vs baseline" ] in
    List.iter
      (fun (mode, s) -> Report.row t [ Mode.name mode; Report.f2 s; Report.pct s ])
      (Runner.speedups app);
    Report.print t
  in
  Cmd.v (cmd_info "speedup" ~doc) Term.(const run $ app_arg)

let analyze_cmd =
  let doc = "Show the extracted inter-kernel TB dependency structure." in
  let run (name, gen) =
    let app = gen () in
    let prep = Runner.prepare Mode.Producer_priority app in
    let t =
      Report.table ~title:(name ^ " kernel-pair analysis")
        ~columns:[ "seq"; "kernel"; "TBs"; "pattern"; "edges"; "plain B"; "encoded B" ]
    in
    Array.iter
      (fun (li : Prep.launch_info) ->
        let parents =
          match li.Prep.li_prev with
          | Some p -> prep.Prep.p_launches.(p).Prep.li_tbs
          | None -> 0
        in
        Report.row t
          [
            string_of_int li.Prep.li_seq;
            li.Prep.li_spec.Command.kernel.Ptx.kname;
            string_of_int li.Prep.li_tbs;
            Pattern.name li.Prep.li_pattern;
            string_of_int (Bipartite.edge_count li.Prep.li_relation ~n_parents:parents ~n_children:li.Prep.li_tbs);
            string_of_int li.Prep.li_sizes.Encode.plain_bytes;
            string_of_int li.Prep.li_sizes.Encode.encoded_bytes;
          ])
      prep.Prep.p_launches;
    Report.print t
  in
  Cmd.v (cmd_info "analyze" ~doc) Term.(const run $ app_arg)

let timeline_cmd =
  let doc = "Render a Gantt-style execution timeline for one mode." in
  let csv = Arg.(value & flag & info [ "csv" ] ~doc:"Emit per-TB records as CSV instead.") in
  let run (name, gen) mode csv =
    let app = gen () in
    let stats = Runner.simulate mode app in
    if csv then print_string (Timeline.csv stats)
    else begin
      Printf.printf "%s under %s\n" name (Mode.name mode);
      print_string (Timeline.ascii stats)
    end
  in
  Cmd.v (cmd_info "timeline" ~doc) Term.(const run $ app_arg $ Bm_cli.mode () $ csv)

let stats_cmd =
  let doc =
    "Simulate with the performance-counter registry and the host-pipeline span profiler \
     attached, then report counters, gauges (with high-water marks), exact histogram \
     percentiles and per-stage wall-clock spans.  With repeated $(b,-m) options the modes \
     run as parallel tasks (see $(b,--jobs)), each with its own registry and profiler; \
     $(b,--merged) folds the per-mode registries and span trees into one aggregate.  Each \
     task owns a launch-time analysis cache whose hit/miss/eviction counters land in the \
     registry as $(b,prep.cache.*); $(b,--repeat) re-prepares against that cache and prints \
     per-pass hit rates, and the pseudo-app $(b,suite) prepares every Table II benchmark \
     (skipping simulation) so the counters cover the whole suite."
  in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit a JSON snapshot instead of tables.") in
  let csv = Arg.(value & flag & info [ "csv" ] ~doc:"Emit the metrics as CSV instead of tables.") in
  let out =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Write to $(docv) instead of stdout.")
  in
  let folded =
    Arg.(value & opt (some string) None & info [ "folded" ] ~docv:"FILE"
           ~doc:"Also write the pipeline spans as folded stacks (flamegraph.pl/speedscope input).")
  in
  let merged =
    Arg.(
      value & flag
      & info [ "merged" ]
          ~doc:
            "Merge the per-mode metric registries (counters add, histograms pool) and span \
             trees into a single aggregate report instead of one report per mode.")
  in
  let write_out out data =
    match out with None -> print_string data | Some file -> Bm_cli.write_file file data
  in
  let run target modes json csv out folded merged repeat () =
    let name, apps =
      match target with
      | `App (name, gen) -> (name, [ gen () ])
      | `Suite -> ("suite", List.map (fun (_, gen) -> gen ()) Suite.all)
    in
    let cfg = Config.titan_x_pascal in
    (* One task per mode; the app structure is immutable and shared, every
       mutable sink (registry, profiler, analysis cache) is task-local. *)
    let runs =
      Parallel.map_list
        (fun mode ->
          let metrics = Metrics.create () in
          let prof = Prof.create () in
          let cache = Cache.create () in
          (* --repeat re-prepares against the same cache; pass 2+ of an
             unchanged app should hit on every lookup.  Per-pass rates fall
             out of the counter deltas between passes. *)
          let passes = ref [] in
          let last = ref [] in
          for pass = 1 to repeat do
            last :=
              List.map
                (fun app ->
                  Prof.span prof "prepare" (fun () -> Runner.prepare ~cfg ~prof ~cache mode app))
                apps;
            passes := (pass, Cache.counters cache) :: !passes
          done;
          Cache.export cache metrics;
          let stats =
            (* The suite pseudo-app only exercises preparation; a single app
               simulates (off the last pass's prep — cached preparation is
               cycle-identical, so the pass makes no difference). *)
            match !last with
            | [ prep ] ->
              Some (Prof.span prof "simulate" (fun () -> Sim.run ~metrics cfg mode prep))
            | _ -> None
          in
          (mode, metrics, prof, stats, List.rev !passes))
        modes
    in
    let reports =
      if merged then begin
        (* Fold the per-task sinks in mode order: deterministic regardless
           of which domain ran which mode. *)
        let metrics = Metrics.create () and prof = Prof.create () in
        List.iter
          (fun (_, m, p, _, _) ->
            Metrics.merge ~into:metrics m;
            Prof.merge ~into:prof p)
          runs;
        let label = String.concat "+" (List.map (fun (m, _, _, _, _) -> Mode.name m) runs) in
        [ (label, metrics, prof, None) ]
      end
      else
        List.map
          (fun (m, metrics, prof, stats, _) ->
            ( Mode.name m,
              metrics,
              prof,
              match stats with Some s -> Some (m, s) | None -> None ))
          runs
    in
    let json_of (label, metrics, prof, run) =
      let sn = Metrics.snapshot metrics in
      Json.Obj
        (("app", Json.Str name) :: ("mode", Json.Str label)
        :: (match run with
           | Some (_, s) -> [ ("total_us", Json.Num s.Stats.total_us) ]
           | None -> [])
        @ [
            ("metrics", Metrics.to_json sn);
            ("spans", Prof.to_json prof);
          ])
    in
    if json then
      write_out out
        (Json.to_string ~pretty:true
           (match reports with [ r ] -> json_of r | rs -> Json.Arr (List.map json_of rs)))
    else if csv then
      write_out out
        (String.concat "" (List.map (fun (_, m, _, _) -> Metrics.to_csv (Metrics.snapshot m)) reports))
    else begin
      List.iter
        (fun (label, metrics, prof, run) ->
          (match run with
          | Some (m, s) -> print_stats name m s
          | None -> Printf.printf "%s under %s (prepare only):\n" name label);
          Report.print (Metrics.table ~title:(name ^ " metrics (" ^ label ^ ")") (Metrics.snapshot metrics));
          Report.print (Prof.table ~title:(name ^ " host pipeline spans (" ^ label ^ ")") prof))
        reports;
      if repeat > 1 then
        (* Hit rates per pass, from the counter deltas between passes: pass
           1 is the cold fill, pass 2+ of an unchanged app should be ~100%
           on every table. *)
        let rate hits misses =
          if hits + misses = 0 then "n/a"
          else Printf.sprintf "%.1f%%" (100.0 *. float_of_int hits /. float_of_int (hits + misses))
        in
        List.iter
          (fun (mode, _, _, _, passes) ->
            let t =
              Report.table
                ~title:
                  (Printf.sprintf "%s cache hit rates per pass (%s)" name (Mode.name mode))
                ~columns:[ "pass"; "kernel"; "footprint"; "profile"; "rw"; "pair" ]
            in
            let prev = ref None in
            List.iter
              (fun (pass, (c : Cache.counters)) ->
                let d f = match !prev with None -> f c | Some p -> f c - f p in
                Report.row t
                  [
                    string_of_int pass;
                    rate (d (fun c -> c.Cache.kernel_hits)) (d (fun c -> c.Cache.kernel_misses));
                    rate
                      (d (fun c -> c.Cache.footprint_hits))
                      (d (fun c -> c.Cache.footprint_misses));
                    rate (d (fun c -> c.Cache.profile_hits)) (d (fun c -> c.Cache.profile_misses));
                    rate (d (fun c -> c.Cache.rw_hits)) (d (fun c -> c.Cache.rw_misses));
                    rate (d (fun c -> c.Cache.pair_hits)) (d (fun c -> c.Cache.pair_misses));
                  ];
                prev := Some c)
              passes;
            Report.print t)
          runs
    end;
    match folded with
    | Some file ->
      let prof =
        match reports with
        | [ (_, _, p, _) ] -> p
        | _ ->
          let agg = Prof.create () in
          List.iter (fun (_, _, p, _) -> Prof.merge ~into:agg p) reports;
          agg
      in
      Bm_cli.write_file file (Prof.folded prof)
    | None -> ()
  in
  let target =
    Arg.(
      required
      & pos 0 (some stats_target_conv) None
      & info [] ~docv:"APP" ~doc:"Benchmark name (see list), or $(b,suite) for all of them.")
  in
  let repeat =
    Arg.(
      value
      & opt (Bm_cli.int_conv ~min:1) 1
      & info [ "repeat" ] ~docv:"N"
          ~doc:
            "Prepare the app(s) $(docv) times against one launch-time analysis cache and \
             report per-pass cache hit rates.")
  in
  Cmd.v (cmd_info "stats" ~doc)
    Term.(
      const run $ target $ Bm_cli.modes ~default:[ Mode.Producer_priority ] () $ json $ csv $ out
      $ folded $ merged $ repeat $ Bm_cli.jobs)

let trace_cmd =
  let doc =
    "Record an event trace, validate it, and export it.  With repeated $(b,-m) options the \
     modes replay as parallel tasks (see $(b,--jobs)), each recording into its own trace; \
     with $(b,-o) the mode's short name is inserted before the file extension."
  in
  let out =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Write the trace to $(docv) (Chrome trace_event JSON, or CSV with $(b,--csv)).")
  in
  let csv = Arg.(value & flag & info [ "csv" ] ~doc:"Export CSV instead of Chrome JSON.") in
  (* "trace.json" + consumer3 -> "trace.consumer3.json" for mode sweeps. *)
  let mode_file file mode =
    let short = Mode.short_name mode in
    match String.rindex_opt file '.' with
    | Some i when i > 0 ->
      String.sub file 0 i ^ "." ^ short ^ String.sub file i (String.length file - i)
    | Some _ | None -> file ^ "." ^ short
  in
  let run (name, gen) modes out csv () =
    let app = gen () in
    let cfg = Config.titan_x_pascal in
    (* One replay task per mode; traces are single-domain sinks, one per
       task.  Rendering, export and checking happen after the pool drains
       so output stays in mode order. *)
    let replays =
      Parallel.map_list
        (fun mode ->
          let prep = Runner.prepare ~cfg mode app in
          let trace = Trace.create () in
          let stats = Sim.run ~trace:(Trace.sink trace) cfg mode prep in
          (mode, prep, trace, stats))
        modes
    in
    let many = List.length replays > 1 in
    let violations = ref 0 in
    List.iter
      (fun (mode, prep, trace, stats) ->
        let name_of seq = prep.Prep.p_launches.(seq).Prep.li_spec.Command.kernel.Ptx.kname in
        Printf.printf "%s under %s: %d events, %.2f us simulated\n" name (Mode.name mode)
          (Trace.length trace) stats.Stats.total_us;
        print_string (Trace.render stats trace);
        (match out with
        | Some file ->
          let file = if many then mode_file file mode else file in
          let data =
            if csv then Trace.to_csv ~name_of trace
            else
              Trace.to_chrome_json
                ~meta:(("app", name) :: ("mode", Mode.name mode) :: Config.to_assoc cfg)
                trace
          in
          Bm_cli.write_file file data
        | None -> ());
        match Trace.check ~window:(Mode.window mode) ~slots:(Config.total_tb_slots cfg) trace with
        | Ok () -> Printf.printf "trace check: OK\n"
        | Error msgs ->
          incr violations;
          Printf.eprintf "trace check (%s): %d violation(s)\n" (Mode.name mode) (List.length msgs);
          List.iter (Printf.eprintf "  %s\n") msgs)
      replays;
    if !violations > 0 then exit exit_trace_violation
  in
  Cmd.v (cmd_info "trace" ~doc)
    Term.(
      const run $ app_arg $ Bm_cli.modes ~default:[ Mode.Producer_priority ] () $ out $ csv
      $ Bm_cli.jobs)

let graph_file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "g"; "graph" ] ~docv:"FILE"
        ~doc:"Graph file (default: $(b,APP.graph.json)).")

let default_graph_file name = name ^ ".graph.json"

let print_graph_summary name file (graph : Graph.t) =
  let t =
    Report.table ~title:(name ^ " captured graph")
      ~columns:[ "schedule"; "nodes"; "edges"; "commands"; "encoded B" ]
  in
  List.iter
    (fun (label, sched) ->
      let s = Graph.summarize sched in
      Report.row t
        [
          label;
          string_of_int s.Graph.sum_nodes;
          string_of_int s.Graph.sum_edges;
          string_of_int s.Graph.sum_commands;
          string_of_int s.Graph.sum_encoded_bytes;
        ])
    [ ("plain", graph.Graph.g_plain); ("reordered", graph.Graph.g_reordered) ];
  Report.print t;
  Printf.printf "fingerprint: %s\n" graph.Graph.g_fingerprint;
  match file with None -> () | Some f -> Printf.printf "wrote %s\n" f

let capture_cmd =
  let doc =
    "Lower one application into a fingerprint-keyed compiled dependency graph and write it to \
     a file that $(b,replay) executes without any launch-time analysis.  The graph carries \
     both reorder classes, so one capture serves every execution mode."
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Output file (default: $(b,APP.graph.json)).")
  in
  let run (name, gen) out =
    let app = gen () in
    let graph = Runner.capture ~cache:(Cache.create ()) app in
    let file = match out with Some f -> f | None -> default_graph_file name in
    match Graph.save file graph with
    | Ok () -> print_graph_summary name (Some file) graph
    | Error msg ->
      Printf.eprintf "bmctl: cannot write graph: %s\n" msg;
      exit exit_io_error
  in
  Cmd.v (cmd_info "capture" ~doc) Term.(const run $ app_arg $ out)

let replay_cmd =
  let doc =
    "Execute a captured graph with event-trigger readiness.  The graph is loaded from \
     $(b,--graph) (or captured in memory when the file is absent and $(b,--fresh) is given), \
     validated against the application's current fingerprint, and replayed under each \
     requested mode with zero preparation work.  $(b,--compare) also runs the command-queue \
     simulator on a fresh preparation and fails on any cycle divergence."
  in
  let compare_ =
    Arg.(
      value & flag
      & info [ "compare" ]
          ~doc:
            "Also simulate each mode on a fresh preparation and difference the results; any \
             divergence is reported per field and exits with status 3.")
  in
  let fresh =
    Arg.(
      value & flag
      & info [ "fresh" ]
          ~doc:"Capture in memory instead of loading $(b,--graph) (no file involved).")
  in
  let counters =
    Arg.(
      value & flag
      & info [ "counters" ]
          ~doc:"Report the replay's performance-counter registry ($(b,graph.replay.*) etc).")
  in
  let run (name, gen) graph_file modes compare_ fresh counters =
    let app = gen () in
    let cfg = Config.titan_x_pascal in
    let graph =
      if fresh then Runner.capture ~cfg app
      else begin
        let file = match graph_file with Some f -> f | None -> default_graph_file name in
        match Graph.load file with
        | Error err ->
          Format.eprintf "bmctl: %s: %a@." file Graph.pp_error err;
          exit exit_io_error
        | Ok graph -> (
          match Graph.validate cfg app graph with
          | Ok () -> graph
          | Error err ->
            Format.eprintf "bmctl: %s: %a@." file Graph.pp_error err;
            exit exit_stale_graph)
      end
    in
    let mismatches = ref 0 in
    List.iter
      (fun mode ->
        let metrics = Metrics.create () in
        let stats = Replay.run ~metrics cfg mode graph in
        print_stats name mode stats;
        if counters then
          Report.print
            (Metrics.table
               ~title:(Printf.sprintf "%s replay counters (%s)" name (Mode.name mode))
               (Metrics.snapshot metrics));
        if compare_ then begin
          let sim = Runner.simulate ~cfg mode app in
          match Diff.diff_stats stats sim with
          | [] -> Printf.printf "compare (%s): cycle-exact vs simulator\n" (Mode.name mode)
          | details ->
            incr mismatches;
            Printf.eprintf "compare (%s): REPLAY DIVERGES\n" (Mode.name mode);
            List.iter (Printf.eprintf "  %s\n") details
        end)
      modes;
    if !mismatches > 0 then exit exit_counterexample
  in
  Cmd.v (cmd_info "replay" ~doc)
    Term.(
      const run $ app_arg $ graph_file_arg $ Bm_cli.modes ~default:[ Mode.Producer_priority ] ()
      $ compare_ $ fresh $ counters)

(* Submission/spatial policy options, shared by corun and explain. *)
let policy_conv =
  let parse s =
    match Multi.submission_of_string s with
    | Some p -> Ok p
    | None -> Error (`Msg (Printf.sprintf "unknown policy %S (try: fifo, rr, packed)" s))
  in
  Arg.conv (parse, fun ppf p -> Format.pp_print_string ppf (Multi.submission_name p))

let policy_arg =
  Arg.(
    value
    & opt policy_conv Multi.Fifo
    & info [ "policy" ] ~docv:"POLICY"
        ~doc:
          "Submission policy: $(b,fifo) drains whole apps in order, $(b,rr) interleaves one \
           kernel per app, $(b,packed) greedily admits the app whose next kernel has the \
           fewest thread blocks.")

let partition_conv =
  let parse s =
    match List.map (fun p -> Bm_cli.decimal (String.trim p)) (String.split_on_char ',' s) with
    | slices when List.mem None slices ->
      Error (`Msg (Printf.sprintf "bad partition %S (expected decimal SM counts, e.g. 14,14)" s))
    | slices when List.mem (Some 0) slices -> Error (`Msg "every partition slice needs at least one SM")
    | slices -> Ok (Array.of_list (List.map Option.get slices))
  in
  let print ppf slices =
    Format.pp_print_string ppf
      (String.concat "," (List.map string_of_int (Array.to_list slices)))
  in
  Arg.conv (parse, print)

let partition_arg =
  Arg.(
    value
    & opt (some partition_conv) None
    & info [ "partition" ] ~docv:"S1,S2,.."
        ~doc:
          "Give app $(i,i) a private slice of $(i,Si) SMs (one slice per app, summing to at \
           most the machine's SM count) instead of sharing the whole device.")

let spatial_of_partition ~cfg ~napps = function
  | None -> Multi.Shared
  | Some slices -> (
    match Multi.partition_error cfg ~napps slices with
    | Some reason ->
      Printf.eprintf "bmctl: --partition %s for %d apps on %d SMs: %s\n"
        (String.concat "," (Array.to_list (Array.map string_of_int slices)))
        napps cfg.Config.num_sms reason;
      exit 124
    | None -> Multi.Partitioned slices)

let corun_cmd =
  let doc =
    "Co-run two or more applications on one machine under a submission policy (which app's \
     next kernel may enter the launch queue) and a spatial policy: by default the machine is \
     $(b,shared) MPS-style — one TB-slot pool, one copy and one launch engine, contended \
     DLB/PCB tables — while $(b,--partition) grants each app a private MIG-style slice of \
     SMs with full isolation.  Prints per-app statistics and interference ratios (co-run \
     time over solo time on the machine the app actually saw; 1.0 = no interference, and \
     exactly 1.0 under a partition by the isolation property).  $(b,--check) additionally \
     differences the co-run against the naive reference scheduler and fails on any cycle \
     divergence."
  in
  let apps_arg =
    Arg.(
      non_empty & pos_all app_conv []
      & info [] ~docv:"APP" ~doc:"Benchmark names (two or more; see list).")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Also difference the co-run against the naive reference scheduler (cycle-exact, \
             every field); any divergence is reported and exits with status 3.")
  in
  let with_metrics =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:
            "Attach the performance-counter registry and report the $(b,multi.*) contention \
             counters (table occupancy high-water marks, spills, evictions, per-app \
             attribution).")
  in
  let folded =
    Arg.(
      value
      & opt (some string) None
      & info [ "folded" ] ~docv:"FILE"
          ~doc:
            "Write each app's host-pipeline spans as folded stacks to $(docv), every stack \
             rooted under a per-app $(b,app.)$(i,i) frame — flamegraph.pl/speedscope render \
             the tenants as side-by-side towers instead of merging same-named spans.")
  in
  let deadlines_arg =
    Arg.(
      value
      & opt (some (list ~sep:',' Bm_cli.deadline_conv)) None
      & info [ "deadlines" ] ~docv:"D1,D2,.."
          ~doc:
            "Per-app absolute deadlines in microseconds (one per app).  Each app gets an \
             admission verdict against its analytical lower bound (advisory — every app \
             still runs) and a deadline report against its contention-aware RTA bound; a \
             makespan above the bound exits 7.")
  in
  let run named_apps mode policy partition check with_metrics folded deadlines =
    let names = List.map fst named_apps in
    let apps = Array.of_list (List.map (fun (_, gen) -> gen ()) named_apps) in
    let napps = Array.length apps in
    let cfg = Config.titan_x_pascal in
    let spatial = spatial_of_partition ~cfg ~napps partition in
    let cache = Cache.create () in
    let metrics = if with_metrics then Some (Metrics.create ()) else None in
    (match deadlines with
    | None -> ()
    | Some ds ->
      let ds = Array.of_list ds in
      if Array.length ds <> napps then begin
        Printf.eprintf "bmctl: %d apps but %d deadlines\n" napps (Array.length ds);
        exit 124
      end;
      let admissions, reports, res =
        Runner.corun_deadlines ~cfg ~submission:policy ~spatial ?metrics ~cache ~deadlines:ds
          mode apps
      in
      Printf.printf "co-run of %s under %s (%s, %s): makespan %.2f us\n"
        (String.concat " + " names) (Mode.name mode)
        (Multi.submission_name policy)
        (Multi.spatial_name spatial) res.Multi.mr_makespan_us;
      let violations = ref 0 in
      List.iteri
        (fun a name ->
          let adm = admissions.(a) and r = reports.(a) in
          if r.Deadline.r_rta_violation then incr violations;
          Printf.printf "  app %d %-10s %s  " a name
            (if adm.Multi.adm_admitted then "admitted" else "REJECTED");
          Format.printf "%a@." Deadline.pp_report r)
        names;
      (match metrics with
      | Some m ->
        Report.print (Metrics.table ~title:"co-run deadline metrics" (Metrics.snapshot m))
      | None -> ());
      if !violations > 0 then begin
        Printf.eprintf "bmctl: RTA VIOLATION: %d app(s) exceeded the analysis bound\n"
          !violations;
        exit exit_rta_violation
      end;
      exit 0);
    let profs =
      match folded with None -> None | Some _ -> Some (Array.init napps (fun _ -> Prof.create ()))
    in
    let res, ratios =
      Runner.corun_interference ~cfg ~submission:policy ~spatial ?metrics ?profs ~cache mode
        apps
    in
    (match (folded, profs) with
    | Some file, Some ps ->
      let stacks i p = Prof.folded ~prefix:(Printf.sprintf "app.%d" i) p in
      Bm_cli.write_file file (String.concat "" (Array.to_list (Array.mapi stacks ps)))
    | _ -> ());
    Printf.printf "co-run of %s under %s (%s, %s):\n" (String.concat " + " names)
      (Mode.name mode)
      (Multi.submission_name policy)
      (Multi.spatial_name spatial);
    Printf.printf "  makespan          : %10.2f us\n" res.Multi.mr_makespan_us;
    Printf.printf "  machine busy      : %10.2f us\n" res.Multi.mr_busy_us;
    Printf.printf "  avg TB concurrency: %10.2f\n" res.Multi.mr_avg_concurrency;
    List.iteri
      (fun a name ->
        let s = res.Multi.mr_stats.(a) in
        Printf.printf "  app %d %-10s total %10.2f us  concurrency %6.2f  slots %4d  interference x%.3f\n"
          a name s.Stats.total_us s.Stats.avg_concurrency res.Multi.mr_slots.(a) ratios.(a))
      names;
    (match metrics with
    | Some m ->
      Report.print (Metrics.table ~title:"co-run contention metrics" (Metrics.snapshot m))
    | None -> ());
    if check then begin
      match
        Diff.check_corun ~cfg ~modes:[ mode ] ~submissions:[ policy ] ~spatials:[ spatial ]
          ~cache apps
      with
      | Ok () -> Printf.printf "check: cycle-exact vs naive co-run reference\n"
      | Error mms ->
        Printf.eprintf "check: CO-RUN DIVERGES from reference\n";
        List.iter (Format.eprintf "%a@." Diff.pp_corun_mismatch) mms;
        exit exit_counterexample
    end
  in
  Cmd.v (cmd_info "corun" ~doc)
    Term.(
      const run $ apps_arg $ Bm_cli.mode () $ policy_arg $ partition_arg $ check $ with_metrics
      $ folded $ deadlines_arg)

let explain_cmd =
  let doc =
    "Explain where the cycles went.  Records an event trace, decomposes every cycle of the \
     makespan on every resource (TB slots, copy engine, launch engine) into exclusive stall \
     buckets — an exact integer accounting whose rows must sum to the makespan — extracts \
     the empirical critical path through the schedule, and re-simulates with one cost zeroed \
     per knob (launch latency, copies, malloc) to bound what fixing each overhead could buy.  \
     With several $(i,APP)s the apps are co-run and each tenant's own event stream is \
     attributed against the slot budget it was granted (what-if is skipped).  The \
     conservation identity and full critical-path coverage are always verified; any \
     divergence exits with status 6."
  in
  let apps_arg =
    Arg.(
      non_empty & pos_all app_conv []
      & info [] ~docv:"APP" ~doc:"Benchmark name(s); several co-run on one machine.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit the full explain report as JSON (one object per app) instead of tables.  \
             The encoding is stable: parsing and re-encoding reproduces the same bytes.")
  in
  let top =
    Arg.(
      value & opt (Bm_cli.int_conv ~min:1) 5
      & info [ "top" ] ~docv:"K" ~doc:"Contributors listed in the top-kernel tables.")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Print an explicit confirmation of the validated identities (conservation, \
             critical-path coverage, event-vs-records busy-tick agreement) — for CI logs.  \
             Violations exit with status 6 with or without this flag.")
  in
  let no_whatif =
    Arg.(
      value & flag
      & info [ "no-whatif" ]
          ~doc:"Skip the what-if re-simulations (3 extra runs); attribution and critical \
                path only.")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Also write the event trace as Chrome trace_event JSON with the attribution \
             time-series as stacked counter tracks (solo runs only).")
  in
  let with_metrics =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:
            "Export the report into a performance-counter registry ($(b,attrib.*), \
             $(b,critpath.*), $(b,whatif.*)) and print the snapshot table.")
  in
  let run named_apps mode json top check no_whatif trace_out with_metrics policy partition =
    let cfg = Config.titan_x_pascal in
    let cache = Cache.create () in
    let fail_divergence what e =
      Printf.eprintf "bmctl: ATTRIBUTION DIVERGENCE (%s): %s\n" what e;
      exit exit_attrib_divergence
    in
    let metrics = if with_metrics then Some (Metrics.create ()) else None in
    match named_apps with
    | [ (name, gen) ] ->
      let solo, stats, trace =
        Explain.run_traced ~cfg ~whatif:(not no_whatif)
          ~series:(trace_out <> None || with_metrics)
          ~cache mode ~name (gen ())
      in
      (match Explain.check solo with Ok () -> () | Error e -> fail_divergence name e);
      (match Explain.check_records solo stats with
      | Ok () -> ()
      | Error e -> fail_divergence name e);
      if check then
        Printf.printf
          "check: conservation exact, critical path covers the makespan, records agree\n";
      if json then print_endline (Json.to_string (Explain.to_json solo))
      else begin
        Printf.printf "%s under %s: %.2f us\n" name (Mode.name mode) solo.Explain.x_total_us;
        List.iter Report.print (Explain.tables ~top solo)
      end;
      Option.iter
        (fun file ->
          Bm_cli.write_file file
            (Trace.to_chrome_json
               ~meta:(("app", name) :: ("mode", Mode.name mode) :: Config.to_assoc cfg)
               ~counters:(Explain.counter_series solo) trace))
        trace_out;
      (match metrics with
      | Some m ->
        Explain.export m solo;
        Report.print (Metrics.table ~title:"explain metrics" (Metrics.snapshot m))
      | None -> ())
    | named_apps ->
      if trace_out <> None then begin
        Printf.eprintf "bmctl: --trace applies to solo explain only\n";
        exit 124
      end;
      let napps = List.length named_apps in
      let spatial = spatial_of_partition ~cfg ~napps partition in
      let apps =
        Array.of_list (List.map (fun (name, gen) -> (name, gen ())) named_apps)
      in
      let solos, res = Explain.corun ~cfg ~submission:policy ~spatial ~cache mode apps in
      (match Explain.check_corun solos res with
      | Ok () -> ()
      | Error e -> fail_divergence "corun" e);
      if check then
        Printf.printf
          "check: per-app conservation exact, exec ticks sum to the machine total\n";
      if json then
        print_endline
          (Json.to_string (Json.Arr (Array.to_list (Array.map Explain.to_json solos))))
      else begin
        Printf.printf "co-run of %s under %s (%s, %s): makespan %.2f us\n"
          (String.concat " + " (List.map fst named_apps))
          (Mode.name mode)
          (Multi.submission_name policy)
          (Multi.spatial_name spatial) res.Multi.mr_makespan_us;
        Array.iter (fun solo -> List.iter Report.print (Explain.tables ~top solo)) solos
      end;
      match metrics with
      | Some m ->
        Array.iteri
          (fun i solo -> Explain.export ~prefix:(Printf.sprintf "app.%d." i) m solo)
          solos;
        Report.print (Metrics.table ~title:"explain metrics" (Metrics.snapshot m))
      | None -> ()
  in
  Cmd.v (cmd_info "explain" ~doc)
    Term.(
      const run $ apps_arg $ Bm_cli.mode () $ json $ top $ check $ no_whatif
      $ trace_out $ with_metrics $ policy_arg $ partition_arg)

let rta_cmd =
  let doc =
    "Response-time-analysis soundness sweep: for every requested mode, compute the analytical \
     worst-case completion bound and verify the observed makespan never exceeds it, on two \
     legs: $(b,sim) runs and bounds the preparation, $(b,replay) runs and bounds the captured \
     graph decoded from its JSON, so each bound comes from the artifact its leg executes.  Any \
     violation exits 7 — the analysis, not the application, is then at fault."
  in
  let modes =
    Bm_cli.modes ~default:(List.map snd Mode.known)
      ~doc:"Mode(s) to sweep (default: all known modes, including the deadline family)." ()
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Also write the sweep as a $(b,bm.rta/1) JSON artifact to $(docv).")
  in
  let run (name, gen) modes json rta_bug =
    let entries =
      Rta.check_app ~modes ~optimistic_bound:rta_bug ~cache:(Cache.create ()) ~name (gen ())
    in
    let t =
      Report.table ~title:(name ^ " response-time analysis")
        ~columns:[ "mode"; "backend"; "bound us"; "observed us"; "verdict" ]
    in
    List.iter
      (fun (e : Rta.entry) ->
        Report.row t
          [
            Mode.name e.Rta.e_mode;
            Rta.leg_name e.Rta.e_leg;
            Report.f2 e.Rta.e_bound_us;
            Report.f2 e.Rta.e_observed_us;
            (if Rta.ok e then "sound" else "VIOLATED");
          ])
      entries;
    Report.print t;
    Option.iter
      (fun file -> Bm_cli.write_file file (Json.to_string ~pretty:true (Rta.to_json entries)))
      json;
    match Rta.violations entries with
    | [] -> ()
    | vs ->
      Printf.eprintf "bmctl: RTA VIOLATION: %d of %d entries exceed the bound\n"
        (List.length vs) (List.length entries);
      List.iter (Format.eprintf "  %a@." Rta.pp_entry) vs;
      exit exit_rta_violation
  in
  Cmd.v (cmd_info "rta" ~doc)
    Term.(const run $ app_arg $ modes $ json $ rta_bug_arg)

let fuzz_cmd =
  let doc =
    "Fuzz the scheduler against the reference scheduler and Algorithm 1 against the exact \
     interpreter-derived dependency graphs."
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Random seed.") in
  let count =
    Arg.(
      value
      & opt (Bm_cli.int_conv ~min:0) 100
      & info [ "count" ] ~docv:"M" ~doc:"Number of random applications.")
  in
  let shrink =
    Arg.(value & flag & info [ "shrink" ] ~doc:"Minimize failing applications before reporting.")
  in
  let no_soundness =
    Arg.(value & flag & info [ "no-soundness" ] ~doc:"Skip the Algorithm 1 soundness oracle.")
  in
  let window_bug =
    Arg.(
      value
      & opt (some (Bm_cli.int_conv ~min:0)) None
      & info [ "inject-window-bug" ] ~docv:"D"
          ~doc:
            "Widen the reference scheduler's pre-launch window by $(docv); a nonzero value must \
             be caught as a scheduler mismatch (self-test of the oracle).")
  in
  let modes =
    Bm_cli.modes ~default:(List.map snd Mode.known)
      ~doc:"Mode(s) to check (default: all known modes)." ()
  in
  let quiet = Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Suppress progress lines.") in
  let corun =
    Arg.(
      value & flag
      & info [ "corun" ]
          ~doc:
            "Fuzz the concurrency axis instead: random two-app co-runs (random submission \
             policy; shared machine or a random SM partition) differenced against the naive \
             co-run reference, with partitioned co-runs additionally checked app-by-app \
             against solo runs on partition-sized machines.  Failures shrink to a minimal \
             interfering pair.  $(b,--no-soundness) and $(b,--inject-window-bug) do \
             not apply in this axis.")
  in
  let slots_bug =
    Arg.(
      value
      & opt (some (Bm_cli.int_conv ~min:0)) None
      & info [ "inject-slots-bug" ] ~docv:"D"
          ~doc:
            "With $(b,--corun): widen the reference engine's TB-slot pools by $(docv) slots; \
             a nonzero value must be caught as a scheduler mismatch (self-test of the co-run \
             oracle).")
  in
  let run seed count shrink no_soundness window_bug modes quiet corun slots_bug () =
    let log = if quiet then fun _ -> () else fun s -> Printf.eprintf "%s\n%!" s in
    if corun then begin
      let report = Fuzz.run_corun ~modes ~shrink ?slots_bug ~log ~seed ~count () in
      Format.printf "%a@." Fuzz.pp_corun_report report;
      if not (Fuzz.corun_ok report) then exit exit_counterexample
    end
    else begin
      let report =
        Fuzz.run ~modes ~shrink ~soundness:(not no_soundness) ?window_bug ~log ~seed ~count ()
      in
      Format.printf "%a@." Fuzz.pp_report report;
      if not (Fuzz.ok report) then exit exit_counterexample
    end
  in
  Cmd.v (cmd_info "fuzz" ~doc)
    Term.(
      const run $ seed $ count $ shrink $ no_soundness $ window_bug $ modes $ quiet $ corun
      $ slots_bug $ Bm_cli.jobs)

let ptx_cmd =
  let doc = "Print the PTX of the application's distinct kernels." in
  let run (_, gen) =
    let app = gen () in
    let seen = Hashtbl.create 8 in
    List.iter
      (fun (spec : Command.launch_spec) ->
        let kname = spec.Command.kernel.Ptx.kname in
        if not (Hashtbl.mem seen kname) then begin
          Hashtbl.add seen kname ();
          print_string (Printer.kernel_to_string spec.Command.kernel);
          print_newline ()
        end)
      (Command.launches app)
  in
  Cmd.v (cmd_info "ptx" ~doc) Term.(const run $ app_arg)

let main =
  let doc = "BlockMaestro: programmer-transparent task-based GPU execution (simulator)" in
  Cmd.group (Cmd.info "bmctl" ~doc ~version)
    [ list_cmd; run_cmd; speedup_cmd; analyze_cmd; stats_cmd; timeline_cmd; trace_cmd;
      capture_cmd; replay_cmd; corun_cmd; explain_cmd; rta_cmd; fuzz_cmd; ptx_cmd ]

let () = exit (Cmd.eval main)
