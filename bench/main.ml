(* Benchmark harness entry point.

   Running `dune exec bench/main.exe` regenerates every table and figure of
   the paper's evaluation section (printed as text tables with the paper's
   reference numbers alongside).  --only SECTION prints one experiment.
   Host time per layer is the ledger's job (bench/ledger).

   At most one gate runs instead of the experiments, and exits 1 if any of
   its cells fails: --oracle (event-driven vs reference scheduler on every
   app x mode), --corun (the cross-app interference matrix, each cell
   proven against the naive co-run reference), --explain (the bottleneck
   table, conservation checked), --deadlines (the EDF tardiness table, RTA
   soundness checked) and --perf-gate (allocation and cache-counter
   checks).

   --json FILE writes a schema-versioned bench trajectory snapshot
   (per-app x mode simulated cycles, speedups, DLB/PCB high-water marks,
   memory overhead, host-pipeline wall-clock spans); --compare OLD.json
   [--threshold PCT] re-measures and exits 1 when simulated cycles
   regressed beyond the threshold (default 5%).

   --jobs is the Bm_cli term bmctl shares.
   Every sweep fans out over the domain pool and collects in input order,
   so output is identical for any --jobs. *)

open Blockmaestro

(* [rounds] chained wavefront diamonds: rounds x 29 launches of one
   kernel over 15 distinct launch configurations.  The perf gate's
   warm-cache prep checks use 4 rounds (116 relaunches of the same
   kernel). *)
let wavefront_chain ~rounds () =
  let block = 32 in
  let widths = List.concat (List.init rounds (fun _ -> Wavefront.widths)) in
  let d = Dsl.create "bench_wf" in
  let max_len = 224 * block in
  let d1 = Dsl.buffer d ~elems:max_len and d2 = Dsl.buffer d ~elems:max_len in
  Dsl.h2d d d1;
  let k = Templates.wave ~name:"bench_diag" ~halo:1 ~work:40 in
  let src = ref d1 and dst = ref d2 in
  let prev_width = ref (List.hd widths) in
  List.iter
    (fun w ->
      let n = w * block in
      Dsl.launch d k ~grid:w ~block
        ~args:
          [
            ("n", Command.Int n); ("smax", Command.Int ((!prev_width * block) - 1));
            ("IN", Command.Buf !src); ("OUT", Command.Buf !dst);
          ];
      prev_width := w;
      let tmp = !src in
      src := !dst;
      dst := tmp)
    widths;
  Dsl.d2h d !src;
  Dsl.app d

(* --oracle: run every suite app (plus representative microbenchmarks)
   through both the event-driven scheduler and the naive reference
   scheduler under every Fig. 9 mode, requiring cycle-exact agreement.
   Quadratic in TBs, which is why it is opt-in. *)
let run_oracle () =
  let cfg = Config.titan_x_pascal in
  let apps =
    Suite.all
    @ [
        ("vecadd64", fun () -> Microbench.vector_add ~tbs:64);
        ("dual4x3", fun () -> Microbench.dual_stream ~tbs:4 ~kernels_per_stream:3);
        ("wavefront", fun () -> Wavefront.make ~name:"oracle_wf" ~work:10 ~halo:1 ());
      ]
  in
  let failures = ref 0 in
  (* Every app runs both schedulers on its own domain; verdicts print in
     input order after the pool drains. *)
  let verdicts =
    Parallel.map_list
      (fun (name, gen) -> (name, Diff.check ~cfg (gen ())))
      apps
  in
  List.iter
    (fun (name, verdict) ->
      match verdict with
      | Ok () -> Printf.printf "  %-10s all modes agree cycle-exactly\n%!" name
      | Error mms ->
        incr failures;
        Printf.printf "  %-10s DIVERGED in %d mode(s)\n" name (List.length mms);
        List.iter (fun mm -> Format.printf "      %a@." Diff.pp_mismatch mm) mms)
    verdicts;
  !failures

(* --explain: the EXPERIMENTS.md bottleneck table.  Per suite app under
   baseline and producer priority: exact stall attribution of the TB-slot
   pool, critical-path composition, and the Amdahl-style what-if ranking
   (re-simulate with one cost zeroed).  The conservation identity and
   critical-path coverage are validated on every cell; a violation is an
   analysis bug and fails the run. *)
let run_explain () =
  let failures = ref 0 in
  let grid =
    List.concat_map
      (fun (name, gen) ->
        List.map (fun mode -> (name, gen, mode)) [ Mode.Baseline; Mode.Producer_priority ])
      Suite.all
  in
  let cells =
    Parallel.map_list
      (fun (name, gen, mode) ->
        (* One cache per cell: the what-if re-runs prepare the same app
           under configs whose analysis and cost params are unchanged. *)
        let solo, stats, _ =
          Explain.run_traced ~whatif:true ~cache:(Cache.create ()) mode ~name (gen ())
        in
        let verdict =
          match Explain.check solo with
          | Error _ as e -> e
          | Ok () -> Explain.check_records solo stats
        in
        (solo, verdict))
      grid
  in
  let t =
    Report.table ~title:"explain: slot attribution, critical path and what-if per app"
      ~columns:
        [ "app"; "mode"; "total us"; "exec"; "dep"; "launch"; "copy"; "idle"; "cp launch";
          "cp copy"; "cp host"; "best knob"; "bound" ]
  in
  List.iter
    (fun (solo, verdict) ->
      (match verdict with
      | Ok () -> ()
      | Error e ->
        incr failures;
        Printf.printf "  %-10s %-20s DIVERGED: %s\n" solo.Explain.x_app
          (Mode.name solo.Explain.x_mode) e);
      let a = solo.Explain.x_attrib in
      let share b = Printf.sprintf "%.1f%%" (Attrib.share a Attrib.Slots b) in
      let kind k =
        let ticks =
          try List.assoc k (Critpath.kind_ticks solo.Explain.x_critpath) with Not_found -> 0
        in
        Printf.sprintf "%.1f%%"
          (100.0 *. float_of_int ticks
          /. float_of_int (max 1 solo.Explain.x_critpath.Critpath.cp_makespan_ticks))
      in
      let best =
        List.fold_left
          (fun acc w ->
            match acc with
            | Some b when b.Explain.wi_speedup >= w.Explain.wi_speedup -> acc
            | _ -> Some w)
          None solo.Explain.x_whatif
      in
      Report.row t
        [ solo.Explain.x_app;
          Mode.name solo.Explain.x_mode;
          Report.f2 solo.Explain.x_total_us;
          share Attrib.Exec;
          share Attrib.Dep_wait;
          share Attrib.Launch_overhead;
          share Attrib.Copy_blocked;
          share Attrib.Idle;
          kind "launch";
          kind "copy";
          kind "host";
          (match best with Some w -> w.Explain.wi_knob | None -> "-");
          (match best with Some w -> Printf.sprintf "%.3fx" w.Explain.wi_speedup | None -> "-") ])
    cells;
  Report.print t;
  !failures

(* --corun: the EXPERIMENTS.md cross-app interference matrix.  Three app
   pairs co-run under {shared fifo, shared packed, partitioned 14+14},
   reporting each app's interference ratio (co-run time over solo time on
   the machine it actually saw) and the makespan; every cell is first
   required to agree cycle-exactly with the naive co-run reference
   scheduler, so the numbers printed are the proven ones. *)
let run_corun_matrix () =
  let cfg = Config.titan_x_pascal in
  let mode = Mode.Producer_priority in
  let pairs = [ ("BICG", "MVT"); ("3MM", "PATH"); ("HS", "BICG") ] in
  let shapes =
    [
      ("shared fifo", Multi.Fifo, Multi.Shared);
      ("shared packed", Multi.Packed, Multi.Shared);
      ("part 14+14", Multi.Fifo, Multi.Partitioned [| 14; 14 |]);
    ]
  in
  let cells =
    Parallel.map_list
      (fun ((a, b), (label, submission, spatial)) ->
        let apps = [| List.assoc a Suite.all (); List.assoc b Suite.all () |] in
        let exact =
          Diff.check_corun ~cfg ~modes:[ mode ] ~submissions:[ submission ]
            ~spatials:[ spatial ] apps
          = Ok ()
        in
        let res, ratios =
          Runner.corun_interference ~cfg ~submission ~spatial mode apps
        in
        ((a, b), label, exact, res, ratios))
      (List.concat_map (fun p -> List.map (fun s -> (p, s)) shapes) pairs)
  in
  let t =
    Report.table ~title:"cross-app interference matrix (producer priority)"
      ~columns:[ "pair"; "shape"; "cycle-exact"; "makespan us"; "ratio A"; "ratio B" ]
  in
  let failures = ref 0 in
  List.iter
    (fun ((a, b), label, exact, res, ratios) ->
      if not exact then incr failures;
      Report.row t
        [
          a ^ "+" ^ b;
          label;
          (if exact then "yes" else "NO");
          Printf.sprintf "%.2f" res.Multi.mr_makespan_us;
          Printf.sprintf "%.3f" ratios.(0);
          Printf.sprintf "%.3f" ratios.(1);
        ])
    cells;
  Report.print t;
  !failures

(* --deadlines: the EXPERIMENTS.md tardiness table.  Every suite app runs
   under the EDF deadline mode against two deadlines derived from its own
   analytical minimum-makespan lower bound — a tight one at exactly the
   lower bound (missable: the lower bound ignores launch/copy/malloc
   serialization) and a loose one at 1.5x.  Each row also re-verifies RTA
   soundness (makespan <= bound); any violation fails the run. *)
let run_deadlines () =
  let cfg = Config.titan_x_pascal in
  let mode = Mode.Deadline_edf 2 in
  let rows =
    Parallel.map_list
      (fun (name, gen) ->
        let app = gen () in
        let prep = Runner.prepare ~cfg mode app in
        let lower = Deadline.min_makespan_us cfg prep in
        let bound = Deadline.bound_of_prep cfg mode prep in
        let reports =
          List.map
            (fun (label, deadline_us) ->
              let r, _ = Runner.deadline ~cfg ~deadline_us mode app in
              (label, r))
            (* Bracket the makespan: deadlines at the analytical lower
               bound are expected misses (it ignores launch/copy/malloc
               serialization), a deadline at the RTA bound can never miss
               (that IS the soundness theorem). *)
            [
              ("lower 1.0x", lower);
              ("lower 1.5x", 1.5 *. lower);
              ("bound 1.0x", bound);
            ]
        in
        (name, lower, reports))
      Suite.all
  in
  let t =
    Report.table ~title:"deadline tardiness (deadline-edf-2k, deadlines from the lower bound)"
      ~columns:
        [ "app"; "deadline"; "lower us"; "bound us"; "makespan us"; "miss"; "tardiness us"; "slack us" ]
  in
  let violations = ref 0 in
  List.iter
    (fun (name, lower, reports) ->
      List.iter
        (fun (label, (r : Deadline.report)) ->
          if r.Deadline.r_rta_violation then incr violations;
          Report.row t
            [
              name;
              label;
              Report.f2 lower;
              Report.f2 r.Deadline.r_bound_us;
              Report.f2 r.Deadline.r_makespan_us;
              (if r.Deadline.r_miss then "MISS" else "met");
              Report.f2 r.Deadline.r_tardiness_us;
              Report.f2 r.Deadline.r_slack_us;
            ])
        reports)
    rows;
  Report.print t;
  !violations

(* --perf-gate: deterministic performance checks, exact on any host
   because they count allocations and cache events rather than time.
   (1) Warm-cache preparation of the 116-launch wavefront chain must hit
   on every lookup and allocate no more than cold preparation.  (2) A
   Sim.run of the GAUSSIAN reference workload must stay under a committed
   minor-heap ceiling (it allocates 193,555 words: the per-TB timing
   arrays become the Stats columns uncopied, and dependency traffic reads
   the schedule's encoded sizes).  (3) Replaying a captured graph does no preparation
   at all, so it must allocate no more than warm prepare + Sim.run.
   (4) Suite-wide preparation from a populated Store (cold in-memory
   caches) must be cycle-exact and compute no cached artifact; no CLI
   option attaches the store any more, so these two checks are what keeps
   the ledger's disk-warm workload honest.  (5) The
   suite's captured graphs must serialize to at most
   [suite_graph_bytes_budget] bytes in total: format 3 stores profiles
   and relations once each (about 347 KB), where per-TB cost payloads
   took 5.8 MB.  How fast
   each path is lives in the host-performance ledger (bench/ledger). *)
let sim_minor_words_budget = 350_000.0
let suite_graph_bytes_budget = 1_000_000

module Store = Bm_maestro.Store

(* Best-effort removal of the gate's temporary store directory: the layout
   is exactly one level of family subdirectories (Store.families). *)
let rm_store_dir dir =
  let rm_tree sub =
    if Sys.file_exists sub && Sys.is_directory sub then begin
      Array.iter (fun f -> try Sys.remove (Filename.concat sub f) with Sys_error _ -> ()) (Sys.readdir sub);
      try Sys.rmdir sub with Sys_error _ -> ()
    end
  in
  List.iter (fun fam -> rm_tree (Filename.concat dir fam)) Store.families;
  try Sys.rmdir dir with Sys_error _ -> ()

(* Minor-heap words allocated by one call of [f]. *)
let words f =
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  Gc.minor_words () -. w0

let cache_misses (c : Cache.counters) =
  [ ("kernel", c.Cache.kernel_misses); ("footprint", c.Cache.footprint_misses);
    ("profile", c.Cache.profile_misses); ("cost", c.Cache.cost_misses); ("rw", c.Cache.rw_misses);
    ("pair", c.Cache.pair_misses) ]

let run_perf_gate () =
  let cfg = Config.titan_x_pascal in
  let mode = Mode.Producer_priority in
  let failures = ref 0 in
  let check name ok detail =
    Printf.printf "  %-30s %s  (%s)\n" name (if ok then "OK" else "FAILED") detail;
    if not ok then incr failures
  in
  let app = wavefront_chain ~rounds:4 () in
  ignore (Prep.prepare cfg app);
  let cold = words (fun () -> Prep.prepare cfg app) in
  let cache = Cache.create () in
  ignore (Prep.prepare ~cache cfg app);
  let before = cache_misses (Cache.counters cache) in
  let warm = words (fun () -> Prep.prepare ~cache cfg app) in
  let missed =
    List.filter (fun (_, n) -> n > 0)
      (List.map2 (fun (fam, a) (_, b) -> (fam, b - a)) before (cache_misses (Cache.counters cache)))
  in
  check "warm prep words <= cold" (warm <= cold)
    (Printf.sprintf "cold %.0f words, warm %.0f words" cold warm);
  check "warm prep misses nothing" (missed = [])
    (match missed with
    | [] -> "0 misses in every family"
    | l -> String.concat ", " (List.map (fun (fam, n) -> Printf.sprintf "%d %s" n fam) l));
  let gaussian = List.assoc "GAUSSIAN" Suite.all () in
  let prep = Prep.prepare cfg gaussian in
  ignore (Sys.opaque_identity (Sim.run cfg mode prep));
  let sim_words = words (fun () -> Sim.run cfg mode prep) in
  check "sim minor-heap budget" (sim_words <= sim_minor_words_budget)
    (Printf.sprintf "%.0f words, budget %.0f" sim_words sim_minor_words_budget);
  let graph = Graph.capture cfg app in
  ignore (Sys.opaque_identity (Replay.run cfg mode graph));
  let replay = words (fun () -> Replay.run cfg mode graph) in
  let warm_e2e = words (fun () -> Sim.run cfg mode (Prep.prepare ~cache cfg app)) in
  check "replay words <= warm prep+sim" (replay <= warm_e2e)
    (Printf.sprintf "warm prep+sim %.0f words, replay %.0f words" warm_e2e replay);
  (* Disk-warm: a fresh handle's suite pass must read every footprint,
     profile, rw-set and relation from disk; any store miss, or any
     in-memory miss the disk did not serve, means a key or codec
     regressed. *)
  let suite = List.map (fun (name, gen) -> (name, gen ())) Suite.all in
  let dir = Filename.temp_file "bm_gate_store" "" in
  Sys.remove dir;
  let open_store () = match Store.open_dir dir with Ok s -> Some s | Error _ -> None in
  let populate = Cache.create ?store:(open_store ()) () in
  List.iter (fun (_, a) -> ignore (Sys.opaque_identity (Prep.prepare ~cache:populate cfg a))) suite;
  let inexact =
    List.filter
      (fun (_, a) ->
        let fresh = Cache.create ?store:(open_store ()) () in
        let disk = Sim.run cfg mode (Prep.prepare ~cache:fresh cfg a) in
        let cold = Sim.run cfg mode (Prep.prepare cfg a) in
        Diff.diff_stats disk cold <> [])
      suite
  in
  check "disk-warm cycle-exact" (inexact = [])
    (match inexact with
    | [] -> "every suite app identical to its cold preparation"
    | l -> String.concat " " (List.map fst l));
  (match Store.open_dir dir with
  | Error e -> check "disk-warm computes nothing" false e
  | Ok s ->
    let fresh = Cache.create ~store:s () in
    List.iter (fun (_, a) -> ignore (Sys.opaque_identity (Prep.prepare ~cache:fresh cfg a))) suite;
    let c = Cache.counters fresh and d = Store.counters s in
    let store_misses = d.Store.disk_misses + d.Store.disk_stale + d.Store.disk_corrupt in
    let computed =
      c.Cache.footprint_misses + c.Cache.profile_misses + c.Cache.rw_misses + c.Cache.pair_misses
      - d.Store.disk_hits
    in
    check "disk-warm computes nothing" (store_misses = 0 && computed = 0)
      (Printf.sprintf "%d store hits, %d store misses, %d artifacts computed" d.Store.disk_hits
         store_misses computed));
  rm_store_dir dir;
  let bytes =
    List.fold_left
      (fun acc (_, a) ->
        acc + String.length (Json.to_string (Graph.to_json (Graph.capture cfg a))))
      0 suite
  in
  check "suite graphs <= byte budget" (bytes <= suite_graph_bytes_budget)
    (Printf.sprintf "%d bytes, budget %d" bytes suite_graph_bytes_budget);
  !failures

(* The gates, in flag order: flag, help text, banner, verdict on success,
   and what one counted failure is. *)
let gates =
  [
    ( "oracle",
      "Require cycle-exact agreement between the event-driven and the reference scheduler on \
       every suite app x mode.",
      ( "== differential oracle pass (every app x mode, both schedulers) ==",
        run_oracle,
        "reference scheduler agrees on every app x mode",
        "app(s) diverged from the reference scheduler" ) );
    ( "corun",
      "Print the cross-app interference matrix; every cell must agree with the naive co-run \
       reference.",
      ( "== cross-app interference matrix (co-runs vs naive reference) ==",
        run_corun_matrix,
        "every co-run cell cycle-exact vs the naive reference",
        "co-run cell(s) diverged from the reference" ) );
    ( "explain",
      "Print the bottleneck attribution table; conservation and critical-path coverage must \
       hold on every cell.",
      ( "== bottleneck attribution (exact stall accounting + what-if) ==",
        run_explain,
        "conservation exact and critical path complete on every cell",
        "explain cell(s) failed validation" ) );
    ( "deadlines",
      "Print the EDF deadline tardiness table; every makespan must stay within its RTA bound.",
      ( "== deadline tardiness (EDF mode, RTA-bound soundness) ==",
        run_deadlines,
        "every makespan within its response-time-analysis bound",
        "report(s) violated the RTA bound" ) );
    ( "perf-gate",
      "Run the deterministic allocation and cache-counter checks.",
      ( "== performance gate (warm prep, sim allocation, replay, disk-warm, graph size) ==",
        run_perf_gate,
        "perf gate passed",
        "perf-gate check(s) failed" ) );
  ]

let run_gate (banner, run, passed, failed) =
  print_endline banner;
  match run () with
  | 0 -> print_endline passed
  | n ->
    Printf.eprintf "%d %s\n" n failed;
    exit 1

let main gate only json compare threshold () =
  match (json, compare, gate) with
  | Some file, _, _ -> exit (Benchrun.write file)
  | None, Some old, _ -> exit (Benchrun.compare_against ~threshold_pct:threshold old)
  | None, None, Some g -> run_gate g
  | None, None, None -> (
    let sections = Experiments.sections () in
    match only with
    | Some s -> List.assoc s sections ()
    | None -> List.iter (fun (_, f) -> f ()) sections)

let () =
  let open Cmdliner in
  let gate =
    Arg.(value & vflag None (List.map (fun (flag, doc, g) -> (Some g, info [ flag ] ~doc)) gates))
  in
  let only =
    let names = List.map (fun (name, _) -> (name, name)) (Experiments.sections ()) in
    Arg.(
      value
      & opt (some (enum names)) None
      & info [ "only" ] ~docv:"SECTION"
          ~doc:
            ("Print one experiment.  $(docv) must be "
            ^ Arg.doc_alts_enum names ^ "."))
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE" ~doc:"Write a bench trajectory snapshot to $(docv) and exit.")
  in
  let compare =
    Arg.(
      value
      & opt (some string) None
      & info [ "compare" ] ~docv:"OLD.json"
          ~doc:"Re-measure and exit 1 if simulated cycles regressed beyond $(b,--threshold).")
  in
  let threshold =
    let pct =
      let parse s =
        match float_of_string_opt s with
        | Some p when p >= 0.0 -> Ok p
        | Some _ | None ->
          Error (`Msg (Printf.sprintf "--threshold expects a non-negative percentage, got %S" s))
      in
      Arg.conv (parse, Format.pp_print_float)
    in
    Arg.(
      value & opt pct 5.0 & info [ "threshold" ] ~docv:"PCT" ~doc:"Regression threshold in percent.")
  in
  let doc = "regenerate the paper's evaluation tables, or run one gate" in
  let exits =
    Cmd.Exit.info 1 ~doc:"when a gate fails or $(b,--compare) finds a regression."
    :: Cmd.Exit.info 2
         ~doc:"on an I/O error (unreadable $(b,--compare) or unwritable $(b,--json) file)."
    :: Cmd.Exit.defaults
  in
  exit
    (Cmd.eval
       (Cmd.v (Cmd.info "main.exe" ~doc ~exits)
          Term.(
            const main $ gate $ only $ json $ compare $ threshold $ Bm_cli.jobs)))
