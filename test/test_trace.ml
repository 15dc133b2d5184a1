(* The event-trace subsystem as a correctness oracle.

   A seeded generator assembles random multi-stream kernel chains; every
   Fig. 9 mode simulates each of them with tracing on, and the trace must
   (a) satisfy Trace.check's scheduling contracts and (b) dispatch exactly
   the same multiset of (kernel, TB) pairs as the baseline — i.e. the
   reordering/pre-launch machinery may only change *when* work runs, never
   *what* runs.  Exporters are validated syntactically. *)

module Rng = Bm_engine.Rng
module Command = Bm_gpu.Command
module Config = Bm_gpu.Config
module Stats = Bm_gpu.Stats
module Mode = Bm_maestro.Mode
module Runner = Bm_maestro.Runner
module Dsl = Bm_workloads.Dsl
module Templates = Bm_workloads.Templates
module Suite = Bm_workloads.Suite
module Genapp = Bm_workloads.Genapp
module Trace = Bm_report.Trace
module Multi = Bm_maestro.Multi
module Prep = Bm_maestro.Prep
module Explain = Bm_maestro.Explain
module Bipartite = Bm_depgraph.Bipartite
module Symeval = Bm_analysis.Symeval
module Diff = Bm_oracle.Diff
module Attrib = Bm_report.Attrib

let cfg = Config.titan_x_pascal
let slots = Config.total_tb_slots cfg

(* --- random application generator ----------------------------------- *)

(* The generator now lives in Bm_workloads.Genapp (shared with the fuzzer
   in Bm_oracle); this keeps the same seeded spec stream as the original
   inline version.  Small enough that 50 apps x 7 modes stays fast. *)
let gen_app rng idx = Genapp.build (Genapp.generate rng idx)

let traced_run mode app =
  let trace = Trace.create () in
  let stats = Runner.simulate ~cfg ~trace:(Trace.sink trace) mode app in
  (stats, trace)

let dispatch_multiset trace =
  Array.to_list (Trace.events trace)
  |> List.filter_map (fun { Trace.ev; _ } ->
         match ev with Stats.Tb_dispatch { seq; tb } -> Some (seq, tb) | _ -> None)
  |> List.sort compare

let check_or_fail ~ctx ~mode trace =
  match Trace.check ~window:(Mode.window mode) ~slots trace with
  | Ok () -> ()
  | Error msgs ->
    Alcotest.failf "%s under %s: %d violation(s): %s" ctx (Mode.name mode) (List.length msgs)
      (String.concat "; " msgs)

(* --- the randomized cross-mode harness ------------------------------- *)

let test_random_cross_mode () =
  let rng = Rng.create 0xb10cae57 in
  for idx = 0 to 49 do
    let app = gen_app rng idx in
    let ctx = Printf.sprintf "random app %d" idx in
    let _, base_trace = traced_run Mode.Baseline app in
    check_or_fail ~ctx ~mode:Mode.Baseline base_trace;
    let base_work = dispatch_multiset base_trace in
    Alcotest.(check bool) (ctx ^ ": baseline dispatched work") true (base_work <> []);
    List.iter
      (fun mode ->
        if mode <> Mode.Baseline then begin
          let _, trace = traced_run mode app in
          check_or_fail ~ctx ~mode trace;
          Alcotest.(check (list (pair int int)))
            (Printf.sprintf "%s: %s runs the baseline's work" ctx (Mode.name mode))
            base_work (dispatch_multiset trace)
        end)
      Mode.all_fig9
  done

(* Tracing must be an observer: identical results with the sink on/off. *)
let test_tracing_is_transparent () =
  let rng = Rng.create 42 in
  for idx = 0 to 9 do
    let app = gen_app rng idx in
    List.iter
      (fun mode ->
        let plain = Runner.simulate ~cfg mode app in
        let traced, _ = traced_run mode app in
        Alcotest.(check (float 1e-9))
          (Printf.sprintf "app %d %s: total time unchanged by tracing" idx (Mode.name mode))
          plain.Stats.total_us traced.Stats.total_us;
        Alcotest.(check (float 1e-9))
          (Printf.sprintf "app %d %s: dep traffic unchanged by tracing" idx (Mode.name mode))
          plain.Stats.dep_mem_requests traced.Stats.dep_mem_requests)
      Mode.all_fig9
  done

(* --- derived counters ------------------------------------------------ *)

let test_counters_consistent () =
  let rng = Rng.create 7 in
  let app = gen_app rng 0 in
  let launches = List.length (Command.launches app) in
  let _, trace = traced_run Mode.Producer_priority app in
  let kcs = Trace.kernel_counters trace in
  Alcotest.(check int) "one counter row per launch" launches (Array.length kcs);
  Array.iter
    (fun (k : Trace.kernel_counters) ->
      Alcotest.(check int)
        (Printf.sprintf "kernel %d dispatched all TBs" k.Trace.kc_seq)
        k.Trace.kc_tbs k.Trace.kc_dispatched;
      Alcotest.(check int)
        (Printf.sprintf "kernel %d finished all TBs" k.Trace.kc_seq)
        k.Trace.kc_tbs k.Trace.kc_finished;
      Alcotest.(check bool)
        (Printf.sprintf "kernel %d lifecycle timestamps ordered" k.Trace.kc_seq)
        true
        (k.Trace.kc_enqueue <= k.Trace.kc_launched
        && k.Trace.kc_launched <= k.Trace.kc_drained
        && k.Trace.kc_drained <= k.Trace.kc_completed))
    kcs;
  let tot = Trace.totals trace in
  Alcotest.(check int) "totals kernel count" launches tot.Trace.tot_kernels;
  Alcotest.(check int) "totals TB count"
    (Array.fold_left (fun acc k -> acc + k.Trace.kc_tbs) 0 kcs)
    tot.Trace.tot_tbs;
  Alcotest.(check int) "event count matches length" (Trace.length trace) tot.Trace.tot_events

(* Missing lifecycle stamps are NaN, never a made-up time: a complete
   trace stamps all four; a synthetically truncated lifecycle keeps the
   stamps it saw and leaves the missing ones NaN. *)
let test_partial_lifecycle_stamps () =
  let rng = Rng.create 23 in
  let app = gen_app rng 2 in
  let _, trace = traced_run Mode.Producer_priority app in
  Array.iter
    (fun (k : Trace.kernel_counters) ->
      Alcotest.(check bool)
        (Printf.sprintf "kernel %d: complete lifecycle is stamped" k.Trace.kc_seq)
        false
        (List.exists Float.is_nan
           [ k.Trace.kc_enqueue; k.Trace.kc_launched; k.Trace.kc_drained; k.Trace.kc_completed ]))
    (Trace.kernel_counters trace);
  (* enqueue only: launched/drained/completed stamps missing *)
  let partial = Trace.create () in
  let sink = Trace.sink partial in
  sink 0.0 (Stats.Kernel_enqueue { seq = 0; stream = 0; tbs = 2 });
  sink 1.0 (Stats.Kernel_launched { seq = 0; stream = 0 });
  (match Trace.kernel_counters partial with
  | [| k |] ->
    Alcotest.(check bool) "present stamps kept" true
      (k.Trace.kc_enqueue = 0.0 && k.Trace.kc_launched = 1.0);
    Alcotest.(check bool) "missing stamps are NaN" true
      (Float.is_nan k.Trace.kc_drained && Float.is_nan k.Trace.kc_completed)
  | kcs -> Alcotest.failf "expected one kernel row, got %d" (Array.length kcs));
  Alcotest.(check bool) "empty trace has no rows" true
    (Trace.kernel_counters (Trace.create ()) = [||])

let test_events_sorted () =
  let rng = Rng.create 11 in
  let app = gen_app rng 3 in
  let _, trace = traced_run (Mode.Consumer_priority 4) app in
  let evs = Trace.events trace in
  Alcotest.(check int) "events preserved" (Trace.length trace) (Array.length evs);
  for i = 1 to Array.length evs - 1 do
    if evs.(i - 1).Trace.ts > evs.(i).Trace.ts then
      Alcotest.failf "events out of order at %d: %.4f > %.4f" i evs.(i - 1).Trace.ts evs.(i).Trace.ts
  done

(* The ordering contract itself: [events] is the stable sort of the
   emission order by timestamp.  Timestamps come from a clock that moves in
   quarter steps, often not at all (heavy ties), and a quarter of the
   entries are future-dated the way copy-engine starts are.  Each entry's
   TB id is its emission index, so any reordering of ties shows. *)
let prop_events_stable_sort =
  QCheck2.Test.make ~name:"events = stable sort of emission order by ts" ~count:300
    QCheck2.Gen.(
      list_size (int_range 0 400)
        (pair (int_range 0 2) (frequency [ (3, return 0); (1, int_range 1 40) ])))
    (fun steps ->
      let now = ref 0 in
      let emitted =
        List.mapi
          (fun i (step, ahead) ->
            now := !now + step;
            { Trace.ts = float_of_int (!now + ahead) /. 4.0; ev = Stats.Tb_dispatch { seq = 0; tb = i } })
          steps
      in
      let t = Trace.create () in
      List.iter (fun { Trace.ts; ev } -> Trace.sink t ts ev) emitted;
      Array.to_list (Trace.events t)
      = List.stable_sort (fun a b -> compare a.Trace.ts b.Trace.ts) emitted)

(* The kernel table against [events]: a kernel's stream and TB count are
   those of its last [Kernel_enqueue] in that order, each lifecycle stamp
   the last of its kind, whatever order the entries were emitted in and
   whatever dependency events come first.  Quarter-step stamps make ties
   common; a tied enqueue's TB count tells the two apart. *)
let prop_kernel_table =
  QCheck2.Test.make ~name:"kernel table = last lifecycle entries of events" ~count:300
    QCheck2.Gen.(list_size (int_range 0 60) (triple (int_range 0 4) (int_range 0 4) (int_range 0 12)))
    (fun steps ->
      let t = Trace.create () in
      List.iteri
        (fun i (seq, kind, q) ->
          let ts = float_of_int q /. 4.0 in
          Trace.sink t ts
            (match kind with
            | 0 -> Stats.Kernel_enqueue { seq; stream = i mod 3; tbs = i }
            | 1 -> Stats.Kernel_launched { seq; stream = 0 }
            | 2 -> Stats.Kernel_drained { seq; stream = 0 }
            | 3 -> Stats.Kernel_completed { seq; stream = 0 }
            | _ -> Stats.Dep_satisfied { seq; tb = i }))
        steps;
      let table = Trace.kernels t in
      let want = Array.map (fun (k : Trace.kernel_counters) -> { k with kc_stream = 0; kc_tbs = 0;
        kc_deps = 0; kc_enqueue = nan; kc_launched = nan; kc_drained = nan; kc_completed = nan }) table in
      Array.iter
        (fun { Trace.ts; ev } ->
          match ev with
          | Stats.Kernel_enqueue { seq; stream; tbs } ->
            want.(seq) <- { (want.(seq)) with kc_stream = stream; kc_tbs = tbs; kc_enqueue = ts }
          | Stats.Kernel_launched { seq; _ } -> want.(seq) <- { (want.(seq)) with kc_launched = ts }
          | Stats.Kernel_drained { seq; _ } -> want.(seq) <- { (want.(seq)) with kc_drained = ts }
          | Stats.Kernel_completed { seq; _ } -> want.(seq) <- { (want.(seq)) with kc_completed = ts }
          | Stats.Dep_satisfied { seq; _ } -> want.(seq) <- { (want.(seq)) with kc_deps = want.(seq).kc_deps + 1 }
          | _ -> ())
        (Trace.events t);
      let named seq = List.exists (fun (s, kind, _) -> s = seq && kind < 4) steps in
      Array.length table = 1 + List.fold_left (fun m (s, _, _) -> max m s) (-1) steps
      && compare table want = 0
      && Array.for_all (fun (k : Trace.kernel_counters) -> Trace.named k = named k.kc_seq) table)

(* --- checker sensitivity --------------------------------------------- *)

(* The checker must actually reject broken traces, not just accept good
   ones: feed it hand-built violations. *)
let test_checker_rejects () =
  let expect_error name entries =
    let t = Trace.create () in
    List.iter (fun (ts, ev) -> Trace.sink t ts ev) entries;
    match Trace.check ~window:2 ~slots:4 t with
    | Ok () -> Alcotest.failf "%s: checker accepted a broken trace" name
    | Error _ -> ()
  in
  let enq seq = Stats.Kernel_enqueue { seq; stream = 0; tbs = 1 } in
  let launch seq = Stats.Kernel_launched { seq; stream = 0 } in
  let dis seq tb = Stats.Tb_dispatch { seq; tb } in
  let fin seq tb = Stats.Tb_finish { seq; tb } in
  let drain seq = Stats.Kernel_drained { seq; stream = 0 } in
  let comp seq = Stats.Kernel_completed { seq; stream = 0 } in
  let ok_kernel seq t0 =
    [ (t0, enq seq); (t0 +. 1., launch seq); (t0 +. 2., dis seq 0); (t0 +. 3., fin seq 0);
      (t0 +. 3., drain seq); (t0 +. 3., comp seq) ]
  in
  (match
     let t = Trace.create () in
     List.iter (fun (ts, ev) -> Trace.sink t ts ev) (ok_kernel 0 0.0);
     Trace.check ~window:2 ~slots:4 t
   with
  | Ok () -> ()
  | Error msgs -> Alcotest.failf "well-formed trace rejected: %s" (String.concat "; " msgs));
  expect_error "dispatch before launch"
    [ (0., enq 0); (1., dis 0 0); (2., launch 0); (3., fin 0 0); (3., drain 0); (3., comp 0) ];
  expect_error "dispatch before dep satisfied"
    [ (0., enq 0); (1., launch 0); (2., dis 0 0);
      (3., Stats.Dep_satisfied { seq = 0; tb = 0 });
      (4., fin 0 0); (4., drain 0); (4., comp 0) ];
  expect_error "double dispatch"
    [ (0., enq 0); (1., launch 0); (2., dis 0 0); (2.5, dis 0 0); (3., fin 0 0); (3., drain 0);
      (3., comp 0) ];
  expect_error "complete without drain"
    [ (0., enq 0); (1., launch 0); (2., dis 0 0); (3., fin 0 0); (3., comp 0) ];
  expect_error "out-of-order completion"
    (List.concat
       [
         [ (0., enq 0); (0.1, enq 1) ];
         [ (1., launch 0); (1.1, launch 1) ];
         [ (2., dis 0 0); (2.1, dis 1 0) ];
         [ (3., fin 1 0); (3., drain 1); (3., comp 1) ];
         [ (4., fin 0 0); (4., drain 0); (4., comp 0) ];
       ]);
  expect_error "window overrun" (List.concat [ ok_kernel 0 0.0; ok_kernel 1 0.01; ok_kernel 2 0.02 ]);
  expect_error "slot overrun"
    (let enqs =
       List.concat
         (List.init 2 (fun s ->
              [ (0.0, Stats.Kernel_enqueue { seq = s; stream = s; tbs = 3 });
                (0.5, Stats.Kernel_launched { seq = s; stream = s }) ]))
     in
     let diss = List.init 6 (fun i -> (1.0, dis (i / 3) (i mod 3))) in
     let fins = List.init 6 (fun i -> (2.0, fin (i / 3) (i mod 3))) in
     let ends =
       List.init 2 (fun s ->
           [ (2.0, Stats.Kernel_drained { seq = s; stream = s });
             (2.0, Stats.Kernel_completed { seq = s; stream = s }) ])
       |> List.concat
     in
     enqs @ diss @ fins @ ends);
  expect_error "kernel never completes" [ (0., enq 0); (1., launch 0) ]

(* --- exporters ------------------------------------------------------- *)

(* Minimal JSON syntax checker: enough to prove the Chrome export is
   well-formed without a JSON library in the test dependencies. *)
let json_parses s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\n' | '\t' | '\r' -> true | _ -> false) do
      incr pos
    done
  in
  let fail () = raise Exit in
  let expect c = if peek () = Some c then incr pos else fail () in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' -> obj ()
    | Some '[' -> arr ()
    | Some '"' -> string_lit ()
    | Some ('-' | '0' .. '9') -> number ()
    | Some 't' -> literal "true"
    | Some 'f' -> literal "false"
    | Some 'n' -> literal "null"
    | _ -> fail ()
  and literal lit =
    if !pos + String.length lit <= n && String.sub s !pos (String.length lit) = lit then
      pos := !pos + String.length lit
    else fail ()
  and number () =
    let start = !pos in
    while
      !pos < n
      && match s.[!pos] with '-' | '+' | '.' | 'e' | 'E' | '0' .. '9' -> true | _ -> false
    do
      incr pos
    done;
    if !pos = start then fail ()
  and string_lit () =
    expect '"';
    let fin = ref false in
    while not !fin do
      match peek () with
      | None -> fail ()
      | Some '"' ->
        incr pos;
        fin := true
      | Some '\\' ->
        pos := !pos + 2;
        if !pos > n then fail ()
      | Some _ -> incr pos
    done
  and obj () =
    expect '{';
    skip_ws ();
    if peek () = Some '}' then incr pos
    else begin
      let fin = ref false in
      while not !fin do
        skip_ws ();
        string_lit ();
        skip_ws ();
        expect ':';
        value ();
        skip_ws ();
        match peek () with
        | Some ',' -> incr pos
        | Some '}' ->
          incr pos;
          fin := true
        | _ -> fail ()
      done
    end
  and arr () =
    expect '[';
    skip_ws ();
    if peek () = Some ']' then incr pos
    else begin
      let fin = ref false in
      while not !fin do
        value ();
        skip_ws ();
        match peek () with
        | Some ',' -> incr pos
        | Some ']' ->
          incr pos;
          fin := true
        | _ -> fail ()
      done
    end
  in
  try
    value ();
    skip_ws ();
    !pos = n
  with Exit -> false

let test_json_parser_itself () =
  Alcotest.(check bool) "valid object" true (json_parses {|{"a":[1,2.5,-3e4],"b":"x\"y","c":null}|});
  Alcotest.(check bool) "trailing garbage" false (json_parses "{}x");
  Alcotest.(check bool) "unterminated" false (json_parses {|{"a":1|});
  Alcotest.(check bool) "bare word" false (json_parses "hello")

let test_chrome_export () =
  let rng = Rng.create 3 in
  let app = gen_app rng 5 in
  let _, trace = traced_run Mode.Producer_priority app in
  let json = Trace.to_chrome_json ~meta:(("app", "rand\"5\"") :: Config.to_assoc cfg) trace in
  Alcotest.(check bool) "chrome JSON parses" true (json_parses json);
  Alcotest.(check bool) "has traceEvents" true
    (String.length json > 20 && String.sub json 0 15 = {|{"traceEvents":|});
  let empty = Trace.create () in
  Alcotest.(check bool) "empty trace still valid JSON" true
    (json_parses (Trace.to_chrome_json empty))

(* Counter ("C" phase) tracks ride on a dedicated pid; samples carry
   arbitrary series names, which must survive escaping and keep the whole
   document strictly valid JSON. *)
let test_chrome_counter_tracks () =
  let rng = Rng.create 9 in
  let app = gen_app rng 1 in
  let _, trace = traced_run Mode.Producer_priority app in
  let counters =
    [
      ( "slot \"attribution\"",
        [ (0.0, [ ("exec", 1.0); ("idle", 895.0) ]); (2.5, [ ("exec", 12.0); ("idle", 884.0) ]) ]
      );
      ("empty track", []);
    ]
  in
  let json = Trace.to_chrome_json ~counters trace in
  Alcotest.(check bool) "chrome JSON with counters parses" true (json_parses json);
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "counter phase present" true (contains {|"ph":"C"|} json);
  Alcotest.(check bool) "series values present" true (contains {|"idle":884.0000|} json);
  (* without counters there must be no counter process at all *)
  Alcotest.(check bool) "no counter pid without counters" false
    (contains {|"ph":"C"|} (Trace.to_chrome_json trace))

let test_csv_export () =
  let rng = Rng.create 4 in
  let app = gen_app rng 6 in
  let _, trace = traced_run Mode.Baseline app in
  let csv = Trace.to_csv trace in
  let lines = String.split_on_char '\n' csv |> List.filter (fun l -> l <> "") in
  (match lines with
  | header :: rows ->
    Alcotest.(check string) "csv header" "ts,event,kernel,tb,stream,cmd,bytes" header;
    Alcotest.(check int) "one row per event" (Trace.length trace) (List.length rows);
    List.iter
      (fun row ->
        Alcotest.(check int)
          (Printf.sprintf "row %S has 7 fields" row)
          7
          (List.length (String.split_on_char ',' row)))
      rows
  | [] -> Alcotest.fail "empty csv")

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_csv_name_of_escaping () =
  (* Kernel names go through Report.csv_field, so a hostile name cannot
     corrupt the row structure (RFC 4180: wrap in quotes, double inner
     quotes). *)
  let rng = Rng.create 5 in
  let app = gen_app rng 4 in
  let _, trace = traced_run Mode.Baseline app in
  let csv = Trace.to_csv ~name_of:(fun seq -> Printf.sprintf "k%d,with \"quotes\"" seq) trace in
  let lines = String.split_on_char '\n' csv |> List.filter (fun l -> l <> "") in
  (match lines with
  | header :: rows ->
    Alcotest.(check string) "name column after kernel" "ts,event,kernel,name,tb,stream,cmd,bytes"
      header;
    Alcotest.(check int) "one row per event" (Trace.length trace) (List.length rows)
  | [] -> Alcotest.fail "empty csv");
  Alcotest.(check bool) "hostile name quoted and doubled" true
    (contains csv "\"k0,with \"\"quotes\"\"\"");
  (* An RFC 4180 reader sees a constant field count despite embedded commas. *)
  let fields_of line =
    let n = ref 1 and in_q = ref false in
    String.iter
      (fun c ->
        if c = '"' then in_q := not !in_q else if c = ',' && not !in_q then incr n)
      line;
    !n
  in
  List.iter
    (fun line ->
      Alcotest.(check int) (Printf.sprintf "row %S has 8 fields" line) 8 (fields_of line))
    (List.tl (String.split_on_char '\n' csv |> List.filter (fun l -> l <> "")))

(* --- the acceptance gate: every suite app x every mode --------------- *)

let test_suite_apps_all_modes () =
  List.iter
    (fun (name, gen) ->
      let app = gen () in
      List.iter
        (fun mode ->
          let _, trace = traced_run mode app in
          check_or_fail ~ctx:name ~mode trace)
        Mode.all_fig9)
    Suite.all

(* --- pinned exports ------------------------------------------------------ *)

(* The exports, the terminal summary and the checker's verdict of a traced
   run, digested together: the CSV and Chrome exports, [render] (timeline,
   per-kernel counters, totals) and [check].  The digests were computed
   when every TB event still travelled through the sink one at a time; the
   engine's column hand-off must reproduce them byte for byte. *)
let export_digest ~mode stats trace =
  let verdict =
    match Trace.check ~window:(Mode.window mode) ~slots trace with
    | Ok () -> "ok"
    | Error msgs -> String.concat "\n" msgs
  in
  Digest.to_hex
    (Digest.string
       (String.concat "\x00"
          [ Trace.to_csv trace; Trace.to_chrome_json trace; Trace.render stats trace; verdict ]))

let pinned_solo_digests =
  [
    ("FFT", "baseline", "029830ec200fef204f4553236b570d04");
    ("FFT", "ideal", "4ee8b7d69ee613f82210bb415cbb7b1c");
    ("FFT", "prelaunch", "b710fa3a133b4be459fea63612615d23");
    ("FFT", "producer", "44e112ac0a25dd676208258df520fd7e");
    ("FFT", "consumer2", "44e112ac0a25dd676208258df520fd7e");
    ("FFT", "consumer3", "644755e54316a252befcf72f87830df7");
    ("FFT", "consumer4", "399d1aa2617d623380e98cb9b52fd40d");
    ("FFT", "edf2", "44e112ac0a25dd676208258df520fd7e");
    ("FFT", "edf3", "644755e54316a252befcf72f87830df7");
    ("FFT", "edf4", "399d1aa2617d623380e98cb9b52fd40d");
    ("GAUSSIAN", "baseline", "ba40acc59a987e5bff238686d6084b86");
    ("GAUSSIAN", "ideal", "207eb7e7f2cdf335aad639d247338e41");
    ("GAUSSIAN", "prelaunch", "cf1cb0bc4b0c3b54faf6146301a0ce48");
    ("GAUSSIAN", "producer", "cf1cb0bc4b0c3b54faf6146301a0ce48");
    ("GAUSSIAN", "consumer2", "cf1cb0bc4b0c3b54faf6146301a0ce48");
    ("GAUSSIAN", "consumer3", "6dc87a47a92466aa7f3e7b125607a706");
    ("GAUSSIAN", "consumer4", "ed126c3f12ee4072971235c0d886b8e5");
    ("GAUSSIAN", "edf2", "cf1cb0bc4b0c3b54faf6146301a0ce48");
    ("GAUSSIAN", "edf3", "6dc87a47a92466aa7f3e7b125607a706");
    ("GAUSSIAN", "edf4", "ed126c3f12ee4072971235c0d886b8e5");
    ("HS", "baseline", "4a9b714c840a7cdce4e2c7e64c4fef15");
    ("HS", "ideal", "b5becef3a54147d16c72a7b6716ace02");
    ("HS", "prelaunch", "1e422b2d03a35f66d0c5f4c670ff146a");
    ("HS", "producer", "ef3196fa28557462d20303cbabc21229");
    ("HS", "consumer2", "fbadad91ab45808f9745214ec5caadbd");
    ("HS", "consumer3", "3691a9ae34eb6266188f75d3c3b9e95a");
    ("HS", "consumer4", "c85808d0a9aef06f631349fc9f902460");
    ("HS", "edf2", "ef3196fa28557462d20303cbabc21229");
    ("HS", "edf3", "25a7c0fe35d17557b5e2c253654ad622");
    ("HS", "edf4", "e95fffa4fd6f723f9deff94990f6c29a");
    ("LUD", "baseline", "efcba75e861f7d0c852a444840b6935f");
    ("LUD", "ideal", "872dfe87ded8e3db5641cd88daf0bbf4");
    ("LUD", "prelaunch", "ac8fe8866f896e6791777c8612ca1530");
    ("LUD", "producer", "4b310f26c971f5a73a5af01922aa834a");
    ("LUD", "consumer2", "4b310f26c971f5a73a5af01922aa834a");
    ("LUD", "consumer3", "ef3b443251d9cdfc30bd127e6c9dc5b5");
    ("LUD", "consumer4", "b6b4ec15f5d0745223aad5f480a4e2bd");
    ("LUD", "edf2", "4b310f26c971f5a73a5af01922aa834a");
    ("LUD", "edf3", "ef3b443251d9cdfc30bd127e6c9dc5b5");
    ("LUD", "edf4", "b6b4ec15f5d0745223aad5f480a4e2bd");
  ]

let test_pinned_solo_exports () =
  List.iter
    (fun name ->
      let app = Suite.by_name name () in
      List.iter
        (fun (mname, mode) ->
          let stats, trace = traced_run mode app in
          let got = export_digest ~mode stats trace in
          match List.find_opt (fun (n, m, _) -> n = name && m = mname) pinned_solo_digests with
          | Some (_, _, want) -> Alcotest.(check string) (Printf.sprintf "%s/%s exports" name mname) want got
          | None -> Alcotest.failf "no pinned digest for (%S, %S) -> %S" name mname got)
        Mode.known)
    [ "FFT"; "GAUSSIAN"; "HS"; "LUD" ]

(* One shared-machine co-run pair per submission policy: each app's own
   trace, with app-local ids. *)
let pinned_corun_digests =
  [
    (("fifo", 0), "df7c328bee5abbccb15788195930b98a");
    (("fifo", 1), "3e590a7bd79e34c1ff468459a896227a");
    (("round_robin", 0), "fe490a4e4e8c15e4c8794495d6b299c8");
    (("round_robin", 1), "1225a6e6bf9f005eeb802364358cc43d");
    (("packed", 0), "372a101b42ab870ce63cf98ce6ad2f6e");
    (("packed", 1), "4b310f26c971f5a73a5af01922aa834a");
  ]

let test_pinned_corun_exports () =
  let mode = Mode.Producer_priority in
  let preps =
    Array.map (fun name -> Runner.prepare ~cfg mode (Suite.by_name name ())) [| "FFT"; "LUD" |]
  in
  List.iter
    (fun submission ->
      let traces = Array.map (fun _ -> Trace.create ()) preps in
      let res =
        Multi.run ~submission ~traces:(Array.map (fun t -> Some (Trace.sink t)) traces) cfg mode
          preps
      in
      Array.iteri
        (fun i trace ->
          let sname = Multi.submission_name submission in
          let got = export_digest ~mode res.Multi.mr_stats.(i) trace in
          match List.assoc_opt (sname, i) pinned_corun_digests with
          | Some want -> Alcotest.(check string) (Printf.sprintf "%s app %d exports" sname i) want got
          | None -> Alcotest.failf "no pinned digest for (%S, %d) -> %S" sname i got)
        traces)
    [ Multi.Fifo; Multi.Round_robin; Multi.Packed ]

(* --- the non-static path ------------------------------------------------ *)

(* A producer and a gather Y[i] = X[IDX[i]]: the gather's address comes
   from a global load, so Algorithm 1 cannot analyse it and Prep relates
   the pair as fully connected.  The engine then releases every consumer
   TB at the producer's drain, stamping one Dep_satisfied per TB there.
   No suite or fuzzed kernel reaches this fallback. *)
let gather_tbs = 48

let gather_app () =
  let block = 64 in
  let n = gather_tbs * block in
  let d = Dsl.create "gather-pair" in
  let a = Dsl.buffer d ~elems:n and idx = Dsl.buffer d ~elems:n in
  let x = Dsl.buffer d ~elems:n and out = Dsl.buffer d ~elems:n in
  Dsl.h2d d a;
  Dsl.h2d d idx;
  Dsl.launch d (Templates.map1 ~name:"ig_produce" ~work:60) ~grid:gather_tbs ~block
    ~args:[ ("n", Command.Int n); ("IN", Command.Buf a); ("OUT", Command.Buf x) ];
  Dsl.launch d (Test_analysis.indirect_kernel ()) ~grid:gather_tbs ~block
    ~args:[ ("IDX", Command.Buf idx); ("X", Command.Buf x); ("Y", Command.Buf out) ];
  Dsl.d2h d out;
  Dsl.app d

let test_nonstatic_gather () =
  let app = gather_app () in
  let li = (Runner.prepare ~cfg Mode.Producer_priority app).Prep.p_launches.(1) in
  Alcotest.(check bool) "gather is non-static" true
    (Option.is_some li.Prep.li_result.Symeval.nonstatic_reason);
  Alcotest.(check bool) "pair is fully connected" true (li.Prep.li_relation = Bipartite.Fully_connected);
  (match Diff.check ~cfg app with
  | Ok () -> ()
  | Error mms ->
    Alcotest.failf "gather pair diverges from Refsched:\n%s"
      (String.concat "\n" (List.map (Format.asprintf "%a" Diff.pp_mismatch) mms)));
  List.iter
    (fun (mname, mode) ->
      let _, trace = traced_run mode app in
      check_or_fail ~ctx:"gather pair" ~mode trace;
      let evs = Array.to_list (Trace.events trace) in
      let drain =
        List.find_map
          (fun { Trace.ts; ev } -> match ev with Stats.Kernel_drained { seq = 0; _ } -> Some ts | _ -> None)
          evs
      in
      let deps =
        List.filter_map
          (fun { Trace.ts; ev } -> match ev with Stats.Dep_satisfied { seq = 1; _ } -> Some ts | _ -> None)
          evs
      in
      Alcotest.(check int) (mname ^ ": one Dep_satisfied per gather TB") gather_tbs (List.length deps);
      Alcotest.(check bool) (mname ^ ": all at the producer's drain") true
        (List.for_all (fun ts -> Some ts = drain) deps);
      match Explain.check (Explain.run ~cfg ~whatif:false mode ~name:"gather" app) with
      | Ok () -> ()
      | Error e -> Alcotest.failf "gather pair under %s: %s" mname e)
    Mode.known

(* --- dep_ready = 0.0: no parents vs a parent done at t = 0 --------------- *)

(* TB 0 has no parents: no Dep_satisfied, dep_ready 0.0.  TB 1's last
   parent finished at t = 0: one Dep_satisfied at 0, dep_ready 0.0 too.
   Only the ordinal tells them apart, and it must, the same way whether
   the TB events arrive one at a time or as the engine's columns. *)
let test_dep_ready_zero () =
  let entries =
    [ (0, 0.0, Stats.Kernel_enqueue { seq = 0; stream = 0; tbs = 2 });
      (1, 0.0, Stats.Kernel_launched { seq = 0; stream = 0 });
      (7, 1.0, Stats.Kernel_drained { seq = 0; stream = 0 });
      (8, 1.0, Stats.Kernel_completed { seq = 0; stream = 0 }) ]
  in
  (* (ordinal, ts, event) of the TB events, [dep_ord] placing TB 1's dep *)
  let tb_events ~dep_ord =
    [ (dep_ord, 0.0, Stats.Dep_satisfied { seq = 0; tb = 1 });
      (3, 0.0, Stats.Tb_dispatch { seq = 0; tb = 0 });
      ((if dep_ord = 2 then 4 else 2), 0.0, Stats.Tb_dispatch { seq = 0; tb = 1 });
      (5, 1.0, Stats.Tb_finish { seq = 0; tb = 0 });
      (6, 1.0, Stats.Tb_finish { seq = 0; tb = 1 }) ]
  in
  let one_at_a_time ~dep_ord =
    let t = Trace.create () in
    List.iter (fun (_, ts, ev) -> Trace.sink t ts ev)
      (List.sort compare (entries @ tb_events ~dep_ord));
    t
  in
  let columns ~dep_ord =
    let t = Trace.create () in
    let order = Bytes.make 24 '\255' and times = Array.make_matrix 3 2 0.0 in
    List.iter
      (fun (o, ts, ev) ->
        let kind, tb =
          match ev with
          | Stats.Dep_satisfied { tb; _ } -> (0, tb)
          | Stats.Tb_dispatch { tb; _ } -> (1, tb)
          | _ -> (2, match ev with Stats.Tb_finish { tb; _ } -> tb | _ -> assert false)
        in
        Bytes.set_int32_le order (4 * ((3 * tb) + kind)) (Int32.of_int o);
        times.(kind).(tb) <- ts)
      (tb_events ~dep_ord);
    Trace.sink t 0.0
      (Stats.Tb_columns
         { seq = 0; dep_ready = times.(0); start = times.(1); finish = times.(2); order; order_at = 0 });
    List.iter (fun (_, ts, ev) -> Trace.sink t ts ev) entries;
    t
  in
  let verdict t =
    match Trace.check ~window:1 ~slots:4 t with Ok () -> "ok" | Error msgs -> String.concat "; " msgs
  in
  let fine = { Attrib.ma_slots = 4; ma_window = 1; ma_fine = true } in
  let dep_ticks t =
    let p = Attrib.Parse.of_trace t in
    match Attrib.Parse.kernel_of p 0 with
    | Some k -> List.init 2 (Attrib.Parse.dep_tick p fine k)
    | None -> Alcotest.fail "kernel 0 not parsed"
  in
  let csv_dep_before =
    String.concat "\n"
      [ "ts,event,kernel,tb,stream,cmd,bytes"; "0.0000,kernel_enqueue,0,2,0,,";
        "0.0000,kernel_launched,0,,0,,"; "0.0000,dep_satisfied,0,1,,,"; "0.0000,tb_dispatch,0,0,,,";
        "0.0000,tb_dispatch,0,1,,,"; "1.0000,tb_finish,0,0,,,"; "1.0000,tb_finish,0,1,,,";
        "1.0000,kernel_drained,0,,0,,"; "1.0000,kernel_completed,0,,0,,"; "" ]
  in
  List.iter
    (fun (how, make) ->
      (* Dep before its dispatch: a valid trace. *)
      let t = make ~dep_ord:2 in
      Alcotest.(check string) (how ^ ": csv") csv_dep_before (Trace.to_csv t);
      Alcotest.(check string) (how ^ ": check") "ok" (verdict t);
      Alcotest.(check (list int)) (how ^ ": dep ticks (none, 0)") [ -1; 0 ] (dep_ticks t);
      (* The same dep after the dispatch, at the same instant: only TB 1 is
         in violation; TB 0, with no parents, never is. *)
      let t = make ~dep_ord:4 in
      Alcotest.(check string) (how ^ ": late dep checked") "dependencies of TB 1 of kernel 0 satisfied only after it started"
        (verdict t);
      Alcotest.(check (list int)) (how ^ ": late dep ticks") [ -1; 0 ] (dep_ticks t))
    [ ("one at a time", one_at_a_time); ("columns", columns) ]

let suite =
  [
    Alcotest.test_case "random apps: all modes pass check + baseline work" `Quick
      test_random_cross_mode;
    Alcotest.test_case "tracing does not perturb simulation" `Quick test_tracing_is_transparent;
    Alcotest.test_case "derived counters are consistent" `Quick test_counters_consistent;
    Alcotest.test_case "partial lifecycles keep NaN stamps" `Quick test_partial_lifecycle_stamps;
    Alcotest.test_case "events are time-sorted" `Quick test_events_sorted;
    Alcotest.test_case "checker rejects broken traces" `Quick test_checker_rejects;
    Alcotest.test_case "mini JSON parser sanity" `Quick test_json_parser_itself;
    Alcotest.test_case "chrome trace_event export is valid JSON" `Quick test_chrome_export;
    Alcotest.test_case "chrome counter tracks" `Quick test_chrome_counter_tracks;
    Alcotest.test_case "csv export shape" `Quick test_csv_export;
    Alcotest.test_case "csv name column escaping" `Quick test_csv_name_of_escaping;
    Alcotest.test_case "every suite app x Fig. 9 mode passes check" `Slow
      test_suite_apps_all_modes;
    Alcotest.test_case "pinned exports: 4 suite apps x every mode" `Quick test_pinned_solo_exports;
    Alcotest.test_case "pinned exports: co-run pair x submission policies" `Quick
      test_pinned_corun_exports;
    Alcotest.test_case "non-static gather: Refsched, check, explain" `Quick test_nonstatic_gather;
    Alcotest.test_case "dep_ready 0.0: no parents vs parent done at 0" `Quick test_dep_ready_zero;
    QCheck_alcotest.to_alcotest prop_events_stable_sort;
    QCheck_alcotest.to_alcotest prop_kernel_table;
  ]
