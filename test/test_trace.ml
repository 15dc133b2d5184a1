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

(* The kc_recorded contract: the four lifecycle stamps are NaN when the
   event is missing — and NaN vanishes silently downstream — so consumers
   gate on the explicit flag.  A complete trace sets it; synthetically
   truncated lifecycles must clear it while leaving the missing stamps
   NaN. *)
let test_kc_recorded_contract () =
  let rng = Rng.create 23 in
  let app = gen_app rng 2 in
  let _, trace = traced_run Mode.Producer_priority app in
  Array.iter
    (fun (k : Trace.kernel_counters) ->
      Alcotest.(check bool)
        (Printf.sprintf "kernel %d: complete lifecycle is recorded" k.Trace.kc_seq)
        true k.Trace.kc_recorded)
    (Trace.kernel_counters trace);
  (* enqueue only: launched/drained/completed stamps missing *)
  let partial = Trace.create () in
  let sink = Trace.sink partial in
  sink 0.0 (Stats.Kernel_enqueue { seq = 0; stream = 0; tbs = 2 });
  sink 1.0 (Stats.Kernel_launched { seq = 0; stream = 0 });
  (match Trace.kernel_counters partial with
  | [| k |] ->
    Alcotest.(check bool) "partial lifecycle is not recorded" false k.Trace.kc_recorded;
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

let suite =
  [
    Alcotest.test_case "random apps: all modes pass check + baseline work" `Quick
      test_random_cross_mode;
    Alcotest.test_case "tracing does not perturb simulation" `Quick test_tracing_is_transparent;
    Alcotest.test_case "derived counters are consistent" `Quick test_counters_consistent;
    Alcotest.test_case "kc_recorded flags partial lifecycles" `Quick test_kc_recorded_contract;
    Alcotest.test_case "events are time-sorted" `Quick test_events_sorted;
    Alcotest.test_case "checker rejects broken traces" `Quick test_checker_rejects;
    Alcotest.test_case "mini JSON parser sanity" `Quick test_json_parser_itself;
    Alcotest.test_case "chrome trace_event export is valid JSON" `Quick test_chrome_export;
    Alcotest.test_case "chrome counter tracks" `Quick test_chrome_counter_tracks;
    Alcotest.test_case "csv export shape" `Quick test_csv_export;
    Alcotest.test_case "csv name column escaping" `Quick test_csv_name_of_escaping;
    Alcotest.test_case "every suite app x Fig. 9 mode passes check" `Slow
      test_suite_apps_all_modes;
    QCheck_alcotest.to_alcotest prop_events_stable_sort;
  ]
