(* The domain pool and everything built on it.

   The contract under test is determinism: map_ordered must be
   observationally identical to Array.map for every domain count — same
   results in the same order, and when tasks raise, the same (lowest-index)
   exception.  On top of that, the two big parallel consumers must be
   reproducible: the fuzzer finds the same counterexamples and the bench
   collector measures the same cycles whether it runs on 1 domain or 4. *)

module Parallel = Bm_parallel
module Config = Bm_gpu.Config
module Mode = Bm_maestro.Mode
module Microbench = Bm_workloads.Microbench
module Genapp = Bm_workloads.Genapp
module Fuzz = Bm_oracle.Fuzz
module Benchfile = Bm_metrics.Benchfile
module Benchrun = Bm_harness.Benchrun

(* --- map_ordered vs Array.map ---------------------------------------- *)

let prop_map_ordered_is_array_map =
  QCheck2.Test.make ~name:"map_ordered agrees with Array.map" ~count:100
    QCheck2.Gen.(pair (list_size (int_range 0 200) (int_range (-1000) 1000)) (int_range 1 5))
    (fun (l, domains) ->
      let xs = Array.of_list l in
      let f x = (x * x) lxor (x lsr 1) in
      Parallel.map_ordered ~domains f xs = Array.map f xs)

(* Uneven task costs exercise the work-stealing-ish dynamic queue: cheap
   and expensive tasks interleave but results still land in input order. *)
let prop_map_ordered_uneven_costs =
  QCheck2.Test.make ~name:"map_ordered keeps order under uneven task costs" ~count:25
    QCheck2.Gen.(pair (list_size (int_range 1 60) (int_range 0 2000)) (int_range 2 5))
    (fun (l, domains) ->
      let xs = Array.of_list l in
      let f x =
        let acc = ref 0 in
        for i = 1 to x do
          acc := !acc + (i land 7)
        done;
        (x, !acc)
      in
      Parallel.map_ordered ~domains f xs = Array.map f xs)

let prop_map_ordered_raising_tasks =
  QCheck2.Test.make ~name:"map_ordered raises the same exception as Array.map" ~count:60
    QCheck2.Gen.(pair (list_size (int_range 1 40) (int_range (-4) 24)) (int_range 1 5))
    (fun (l, domains) ->
      let xs = Array.of_list l in
      let f x = if x < 0 then raise (Failure (string_of_int x)) else x + 1 in
      let run g = try Ok (g ()) with Failure msg -> Error msg in
      run (fun () -> Parallel.map_ordered ~domains f xs) = run (fun () -> Array.map f xs))

(* Even when several tasks fail, the surfaced exception is the one
   Array.map would have raised: the lowest failing index. *)
let test_lowest_index_exception () =
  let xs = [| 1; -2; 3; -4; -5 |] in
  let f x = if x < 0 then raise (Failure (string_of_int x)) else x in
  match Parallel.map_ordered ~domains:4 f xs with
  | _ -> Alcotest.fail "expected a raise"
  | exception Failure msg -> Alcotest.(check string) "lowest failing index wins" "-2" msg

let test_map_list_order () =
  let l = List.init 37 (fun i -> i) in
  Alcotest.(check (list int)) "map_list preserves order" (List.map (fun x -> x * 3) l)
    (Parallel.map_list ~domains:3 (fun x -> x * 3) l)

let test_empty_and_singleton () =
  Alcotest.(check (array int)) "empty" [||] (Parallel.map_ordered ~domains:4 succ [||]);
  Alcotest.(check (array int)) "singleton" [| 8 |] (Parallel.map_ordered ~domains:4 succ [| 7 |])

let test_default_jobs_knob () =
  let before = Parallel.default_jobs () in
  Alcotest.(check bool) "default within [1, max]" true
    (before >= 1 && before <= Parallel.max_default);
  Parallel.set_default_jobs 3;
  Alcotest.(check int) "override sticks" 3 (Parallel.default_jobs ());
  Parallel.set_default_jobs before;
  Alcotest.check_raises "jobs 0 rejected"
    (Invalid_argument "Bm_parallel.set_default_jobs: need at least one domain") (fun () ->
      Parallel.set_default_jobs 0)

(* --- fuzz determinism across domain counts --------------------------- *)

let failure_key (f : Fuzz.failure) =
  (f.Fuzz.f_index, Fuzz.kind_name f.Fuzz.f_kind, f.Fuzz.f_detail, Genapp.to_string f.Fuzz.f_spec,
   Option.map Genapp.to_string f.Fuzz.f_shrunk)

(* The injected window bug produces real counterexamples; both the failure
   set and the shrunk reproducers must be independent of the domain count. *)
let test_fuzz_jobs_identity () =
  let cfg = Config.titan_x_pascal in
  let run jobs = Fuzz.run ~cfg ~seed:42 ~count:10 ~soundness:false ~window_bug:1 ~jobs () in
  let seq = run 1 and par = run 4 in
  Alcotest.(check bool) "bug found sequentially" false (Fuzz.ok seq);
  Alcotest.(check (list (pair int (pair string string))))
    "precision stats identical"
    (List.map (fun (p, n, r) -> (n, (Bm_depgraph.Pattern.name p, Printf.sprintf "%.6f" r)))
       seq.Fuzz.r_precision)
    (List.map (fun (p, n, r) -> (n, (Bm_depgraph.Pattern.name p, Printf.sprintf "%.6f" r)))
       par.Fuzz.r_precision);
  Alcotest.(check int) "same failure count" (List.length seq.Fuzz.r_failures)
    (List.length par.Fuzz.r_failures);
  List.iter2
    (fun a b ->
      if failure_key a <> failure_key b then
        Alcotest.failf "failure diverged across domain counts:@.%a@.vs@.%a" Fuzz.pp_failure a
          Fuzz.pp_failure b)
    seq.Fuzz.r_failures par.Fuzz.r_failures

(* Chunked generation is a memory optimization only: the failure set, the
   precision statistics and every log line must be byte-identical for any
   chunk size (and any domain count on top).  Both axes run on one
   campaign driver, so both are pinned, each with real failures; the
   co-run axis skips shrinking, which the single-app axis already pins
   through the same driver at a fraction of the cost. *)
let test_fuzz_chunk_identity () =
  let cfg = Config.titan_x_pascal in
  let check_axis name run =
    let reference = run ~chunk:256 ~jobs:1 in
    if fst reference = [] then Alcotest.failf "%s: injected bug not found" name;
    List.iter
      (fun (chunk, jobs) ->
        let keys, logs = run ~chunk ~jobs in
        Alcotest.(check (list string))
          (Printf.sprintf "%s logs identical at chunk=%d jobs=%d" name chunk jobs)
          (snd reference) logs;
        if keys <> fst reference then
          Alcotest.failf "%s failures diverged at chunk=%d jobs=%d" name chunk jobs)
      [ (1, 1); (3, 4); (7, 2); (10, 1) ]
  in
  let logged f =
    let logs = ref [] in
    let keys = f (fun s -> logs := s :: !logs) in
    (keys, List.rev !logs)
  in
  check_axis "run" (fun ~chunk ~jobs ->
      logged (fun log ->
          let r =
            Fuzz.run ~cfg ~seed:42 ~count:10 ~soundness:false ~window_bug:1 ~chunk ~jobs ~log ()
          in
          List.map (fun f -> Format.asprintf "%a" Fuzz.pp_failure f) r.Fuzz.r_failures));
  check_axis "run_corun" (fun ~chunk ~jobs ->
      logged (fun log ->
          let r = Fuzz.run_corun ~cfg ~seed:7 ~count:12 ~slots_bug:3 ~shrink:false ~chunk ~jobs ~log () in
          List.map (fun f -> Format.asprintf "%a" Fuzz.pp_corun_failure f) r.Fuzz.cr_failures));
  Alcotest.check_raises "chunk < 1 rejected" (Invalid_argument "Fuzz.run: chunk must be >= 1")
    (fun () -> ignore (Fuzz.run ~cfg ~seed:1 ~count:1 ~chunk:0 ()));
  Alcotest.check_raises "co-run chunk < 1 rejected"
    (Invalid_argument "Fuzz.run_corun: chunk must be >= 1") (fun () ->
      ignore (Fuzz.run_corun ~cfg ~seed:1 ~count:1 ~chunk:0 ()))

(* --- bench collection determinism ------------------------------------ *)

(* Everything except the host wall-clock spans must be byte-identical; the
   spans are real timer readings and the only sanctioned difference. *)
let strip_spans (bf : Benchfile.t) =
  { bf with
    Benchfile.bf_apps =
      List.map (fun a -> { a with Benchfile.ar_pipeline_us = [] }) bf.Benchfile.bf_apps }

let test_benchrun_jobs_identity () =
  let apps =
    [
      ("vecadd64", fun () -> Microbench.vector_add ~tbs:64);
      ("dual4x3", fun () -> Microbench.dual_stream ~tbs:4 ~kernels_per_stream:3);
    ]
  in
  let seq = Benchrun.collect ~apps ~jobs:1 () in
  let par = Benchrun.collect ~apps ~jobs:4 () in
  Alcotest.(check string) "cycle-identical bench JSON modulo wall-clock spans"
    (Benchfile.to_string (strip_spans seq))
    (Benchfile.to_string (strip_spans par));
  (* Sanity: the snapshot actually contains simulated work. *)
  List.iter
    (fun (a : Benchfile.app_result) ->
      List.iter
        (fun (m : Benchfile.mode_result) ->
          if not (m.Benchfile.mr_cycles > 0.0) then
            Alcotest.failf "%s/%s has no cycles" a.Benchfile.ar_app m.Benchfile.mr_mode)
        a.Benchfile.ar_modes)
    seq.Benchfile.bf_apps

(* The snapshot file keeps 12 significant digits; a re-measurement of the
   same code must still compare as a zero delta, so --threshold 0 passes
   exactly when the cycles are unchanged. *)
let test_benchrun_compare_own_snapshot () =
  let file = Filename.temp_file "bm_bench" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () ->
      Benchfile.save file (Benchrun.collect ());
      Alcotest.(check int) "--threshold 0 against its own snapshot" 0
        (Benchrun.compare_against ~threshold_pct:0.0 file))

let suite =
  [
    QCheck_alcotest.to_alcotest prop_map_ordered_is_array_map;
    QCheck_alcotest.to_alcotest prop_map_ordered_uneven_costs;
    QCheck_alcotest.to_alcotest prop_map_ordered_raising_tasks;
    Alcotest.test_case "map_ordered: lowest-index exception wins" `Quick
      test_lowest_index_exception;
    Alcotest.test_case "map_list: order preserved" `Quick test_map_list_order;
    Alcotest.test_case "map_ordered: empty and singleton" `Quick test_empty_and_singleton;
    Alcotest.test_case "default_jobs knob" `Quick test_default_jobs_knob;
    Alcotest.test_case "fuzz: --jobs 4 = --jobs 1 (same counterexamples)" `Slow
      test_fuzz_jobs_identity;
    Alcotest.test_case "fuzz: chunked generation is invisible" `Slow test_fuzz_chunk_identity;
    Alcotest.test_case "benchrun: --jobs 4 = --jobs 1 (cycle-identical)" `Slow
      test_benchrun_jobs_identity;
    Alcotest.test_case "benchrun: zero delta against its own snapshot" `Slow
      test_benchrun_compare_own_snapshot;
  ]
