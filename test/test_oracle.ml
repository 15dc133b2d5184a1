(* The differential oracle as a test suite.

   Three layers: (1) the optimized event-driven scheduler must agree
   cycle-exactly with the naive list-scanning reference on seeded random
   apps and on directed corner cases (window saturation, slot overrun,
   producer/consumer priority interleavings); (2) Algorithm 1's static
   per-TB dependency graphs must be a superset of the exact graphs the PTX
   interpreter observes, including the >63-parent degrade-to-full
   fallback; (3) the fuzzer must catch an intentionally injected window
   bug and shrink the reproducer to a trivial kernel chain. *)

module Rng = Bm_engine.Rng
module Command = Bm_gpu.Command
module Config = Bm_gpu.Config
module Mode = Bm_maestro.Mode
module Pattern = Bm_depgraph.Pattern
module Bipartite = Bm_depgraph.Bipartite
module Prep = Bm_maestro.Prep
module Dsl = Bm_workloads.Dsl
module Templates = Bm_workloads.Templates
module Genapp = Bm_workloads.Genapp
module Diff = Bm_oracle.Diff
module Soundness = Bm_oracle.Soundness
module Shrink = Bm_oracle.Shrink
module Fuzz = Bm_oracle.Fuzz
module Refsched = Bm_oracle.Refsched
module Sim = Bm_maestro.Sim
module Cache = Bm_maestro.Cache
module Runner = Bm_maestro.Runner
module Suite = Bm_workloads.Suite

let cfg = Config.titan_x_pascal

let assert_agrees ?window_bug name app =
  match Diff.check ~cfg ?window_bug app with
  | Ok () -> ()
  | Error (mm :: _) -> Alcotest.failf "%s: %a" name Diff.pp_mismatch mm
  | Error [] -> assert false

(* --- differential: seeded random apps -------------------------------- *)

let test_diff_random () =
  let rng = Rng.create 0xd1ff in
  for idx = 0 to 49 do
    assert_agrees (Printf.sprintf "random app %d" idx) (Genapp.build (Genapp.generate rng idx))
  done

(* Synchronous host copies (the ablation's "blocking APIs" row) are a
   separate engine path: every copy stalls the host until it completes.
   [Diff.check] never sets the flag, so this sweep is its only oracle. *)
let test_diff_host_blocking_random () =
  let rng = Rng.create 7 in
  for idx = 0 to 29 do
    let app = Genapp.build (Genapp.generate rng idx) in
    let preps = Hashtbl.create 2 in
    List.iter
      (fun (_, mode) ->
        let reorder = Mode.reorders mode in
        let prep =
          match Hashtbl.find_opt preps reorder with
          | Some p -> p
          | None ->
            let p = Prep.prepare ~reorder cfg app in
            Hashtbl.add preps reorder p;
            p
        in
        let sim = Sim.run ~host_blocking_copies:true cfg mode prep in
        let ref_ = Refsched.run ~host_blocking_copies:true cfg mode prep in
        match Diff.diff_stats sim ref_ with
        | [] -> ()
        | ds ->
          Alcotest.failf "random app %d under %s with blocking copies: %s" idx (Mode.name mode)
            (String.concat "; " ds))
      Mode.known
  done

(* --- differential: directed corners ---------------------------------- *)

let kspec ?(body = Genapp.Map) ?(work = 2) ?(sync = false) grid =
  { Genapp.k_body = body; k_work = work; k_grid = grid; k_sync_after = sync }

let spec_app name chains =
  Genapp.build { Genapp.g_name = name; g_block = 64; g_chains = Array.of_list chains }

(* A long single-stream chain keeps the pre-launch window saturated: at
   any instant two kernels are resident under kernel-pre-launching and the
   window gate (not slots or dependences) is the binding constraint. *)
let test_diff_window_full () =
  assert_agrees "window-full chain"
    (spec_app "winfull" [ List.init 10 (fun _ -> kspec 4) ])

(* One kernel larger than the whole machine (grid > 28 SMs x 32 slots):
   TBs queue for slots, exercising the free-slot accounting and the
   dispatch-on-TB-completion path in both engines. *)
let test_diff_slot_overrun () =
  assert_agrees "slot overrun" (spec_app "slots" [ [ kspec ~work:1 1000; kspec ~work:1 1000 ] ])

(* Two asymmetric streams under producer vs consumer priority: stream 0's
   chain is compute-heavy, stream 1's is light, so the scheduling order
   (Oldest_first vs Newest_first) genuinely differs between the modes. *)
let test_diff_priority_two_streams () =
  assert_agrees "asymmetric dual stream"
    (spec_app "prio"
       [
         [ kspec ~work:8 16; kspec ~body:(Genapp.Stencil { halo = 1 }) ~work:8 16; kspec ~work:8 16 ];
         [ kspec ~work:1 2; kspec ~work:1 2; kspec ~work:1 2; kspec ~work:1 2 ];
       ])

(* Sync commands force full drains between launches. *)
let test_diff_sync_heavy () =
  assert_agrees "sync heavy"
    (spec_app "syncs" [ List.init 5 (fun i -> kspec ~sync:(i mod 2 = 0) 8) ])

(* A fully-connected pair (degrade fallback) must also agree: the consumer
   reads every element every producer TB wrote, so fine-grain tracking
   collapses to whole-kernel waiting in both engines. *)
let full_pair_app ~producer_grid =
  let d = Dsl.create "degrade" in
  let block = 64 in
  let inb = Dsl.buffer d ~elems:(producer_grid * block) in
  let mid = Dsl.buffer d ~elems:producer_grid in
  let out = Dsl.buffer d ~elems:block in
  Dsl.h2d d inb;
  Dsl.launch d ~stream:0
    (Templates.reduce_partial ~name:"deg_red" ~work:1)
    ~grid:producer_grid ~block
    ~args:
      [ ("n", Command.Int (producer_grid * block)); ("IN", Command.Buf inb); ("OUT", Command.Buf mid) ];
  Dsl.launch d ~stream:0
    (Templates.full_read ~name:"deg_full" ~work:1)
    ~grid:1 ~block
    ~args:
      [
        ("n", Command.Int block);
        ("nred", Command.Int producer_grid);
        ("qstride", Command.Int 1);
        ("IN", Command.Buf mid);
        ("OUT", Command.Buf out);
      ];
  Dsl.d2h d out;
  Dsl.app d

let test_diff_degrade_fallback () =
  assert_agrees "degrade-to-full pair" (full_pair_app ~producer_grid:70)

(* --- soundness: Algorithm 1 vs the interpreter ----------------------- *)

let assert_sound ?(expect_pairs = true) name app =
  let reports = Soundness.check_app ~cfg app in
  if expect_pairs then Alcotest.(check bool) (name ^ ": has pairs") true (reports <> []);
  List.iter
    (fun r ->
      if not (Soundness.pair_ok r) then
        Alcotest.failf "%s: %a" name Soundness.pp_report r;
      if Soundness.ratio r < 1.0 then
        Alcotest.failf "%s: ratio below 1 in %a" name Soundness.pp_report r)
    reports

(* Each Templates pairing lands on a different Table I pattern; all must
   be sound and never tighter than exact. *)
let template_pair name k1 k2 =
  let d = Dsl.create name in
  let block = 64 and grid = 8 in
  let elems = grid * block in
  let a = Dsl.buffer d ~elems in
  let b = Dsl.buffer d ~elems in
  let c = Dsl.buffer d ~elems in
  Dsl.h2d d a;
  let args i o = [ ("n", Command.Int elems); ("IN", Command.Buf i); ("OUT", Command.Buf o) ] in
  Dsl.launch d ~stream:0 k1 ~grid ~block ~args:(args a b);
  Dsl.launch d ~stream:0 k2 ~grid ~block ~args:(args b c);
  Dsl.d2h d c;
  Dsl.app d

let test_sound_templates () =
  assert_sound "map->map"
    (template_pair "mm" (Templates.map1 ~name:"m1" ~work:2) (Templates.map1 ~name:"m2" ~work:2));
  assert_sound "map->stencil"
    (template_pair "ms" (Templates.map1 ~name:"m1" ~work:2)
       (Templates.stencil1d ~name:"s1" ~halo:2 ~work:2));
  assert_sound "stencil->stencil"
    (template_pair "ss"
       (Templates.stencil1d ~name:"s1" ~halo:1 ~work:2)
       (Templates.stencil1d ~name:"s2" ~halo:3 ~work:2))

let test_sound_random () =
  let rng = Rng.create 0x50a2d in
  for idx = 0 to 14 do
    assert_sound ~expect_pairs:false
      (Printf.sprintf "random app %d" idx)
      (Genapp.build (Genapp.generate rng idx))
  done

(* 70 producer TBs each write one element; the consumer reads all 70, so
   its exact in-degree (70) exceeds the 6-bit parent-counter cap (64) and
   Algorithm 1 must degrade the pair to fully-connected — which is still
   sound.  Raising the cap recovers the precise n-to-1 graph. *)
let test_sound_degree_cap () =
  let app = full_pair_app ~producer_grid:70 in
  let reports = Soundness.check_app ~cfg app in
  let pair =
    match List.filter (fun r -> r.Soundness.pr_pattern <> Pattern.One_to_one) reports with
    | [ r ] -> r
    | other -> Alcotest.failf "expected one non-1-to-1 pair, got %d" (List.length other)
  in
  Alcotest.(check bool) "degraded to fully-connected" true
    (pair.Soundness.pr_pattern = Pattern.Fully_connected);
  Alcotest.(check bool) "sound despite degrade" true (Soundness.pair_ok pair);
  Alcotest.(check int) "exact edges = 70" 70 pair.Soundness.pr_exact_edges;
  Alcotest.(check int) "static edges = 70 (one child TB)" 70 pair.Soundness.pr_static_edges;
  (* With a wider counter the same pair stays a precise explicit graph. *)
  let wide = { cfg with Config.max_parent_degree = 128 } in
  let wide_pair =
    match
      List.filter
        (fun r -> r.Soundness.pr_pattern <> Pattern.One_to_one)
        (Soundness.check_app ~cfg:wide app)
    with
    | [ r ] -> r
    | _ -> Alcotest.fail "expected one non-1-to-1 pair"
  in
  Alcotest.(check bool) "precise with wider counters" true
    (wide_pair.Soundness.pr_pattern = Pattern.N_to_one);
  Alcotest.(check int) "ratio 1 with wider counters" wide_pair.Soundness.pr_exact_edges
    wide_pair.Soundness.pr_static_edges

(* --- the fuzzer end to end ------------------------------------------- *)

let test_fuzz_clean () =
  let report = Fuzz.run ~cfg ~seed:1 ~count:5 ~shrink:false () in
  if not (Fuzz.ok report) then Alcotest.failf "unexpected failures: %a" Fuzz.pp_report report

(* Widening the reference engine's pre-launch window is a scheduler bug by
   construction; the fuzzer must detect it and shrink the reproducer to a
   trivial chain (a window bug needs at most window+1 kernels in one
   stream to manifest). *)
let test_fuzz_catches_window_bug () =
  let report = Fuzz.run ~cfg ~seed:42 ~count:10 ~soundness:false ~window_bug:1 () in
  Alcotest.(check bool) "bug detected" false (Fuzz.ok report);
  List.iter
    (fun (f : Fuzz.failure) ->
      (match f.Fuzz.f_kind with
      | Fuzz.Scheduler_mismatch -> ()
      | k -> Alcotest.failf "expected a scheduler mismatch, got %s" (Fuzz.kind_name k));
      match f.Fuzz.f_shrunk with
      | None -> Alcotest.fail "failure was not shrunk"
      | Some s ->
        if Genapp.kernels s > 3 then
          Alcotest.failf "shrunk reproducer still has %d kernels: %s" (Genapp.kernels s)
            (Genapp.to_string s))
    report.Fuzz.r_failures

(* Shrinking is well-founded: every candidate strictly decreases the size
   measure, and minimize's result admits no failing candidate. *)
let test_shrink_measure () =
  let rng = Rng.create 0x5421 in
  for idx = 0 to 9 do
    let spec = Genapp.generate rng idx in
    let sz = Shrink.size spec in
    List.iter
      (fun c ->
        if Shrink.size c >= sz then
          Alcotest.failf "candidate did not shrink: %s -> %s" (Genapp.to_string spec)
            (Genapp.to_string c);
        if Genapp.kernels c = 0 then Alcotest.fail "empty candidate")
      (Shrink.candidates spec)
  done

let test_shrink_minimize () =
  (* "At least 4 kernels overall" must shrink to exactly 4 trivial ones. *)
  let rng = Rng.create 0xfeed in
  let spec = Genapp.generate ~max_streams:3 ~max_len:6 rng 0 in
  if Genapp.kernels spec >= 4 then begin
    let shrunk, _steps = Shrink.minimize (fun s -> Genapp.kernels s >= 4) spec in
    Alcotest.(check int) "minimal kernel count" 4 (Genapp.kernels shrunk);
    List.iter
      (fun chain ->
        List.iter
          (fun (k : Genapp.kspec) ->
            Alcotest.(check int) "grid shrunk" 1 k.Genapp.k_grid;
            Alcotest.(check int) "work shrunk" 1 k.Genapp.k_work;
            Alcotest.(check bool) "sync dropped" false k.Genapp.k_sync_after)
          chain)
      (Array.to_list shrunk.Genapp.g_chains)
  end

(* to_ocaml output must at least mention every launch of the spec. *)
let test_genapp_to_ocaml () =
  let rng = Rng.create 3 in
  let spec = Genapp.generate rng 0 in
  let src = Genapp.to_ocaml spec in
  let launches = ref 0 in
  String.iteri
    (fun i _ ->
      if i + 10 <= String.length src && String.sub src i 10 = "Dsl.launch" then incr launches)
    src;
  Alcotest.(check int) "one Dsl.launch per kernel" (Genapp.kernels spec) !launches

(* --- launch-time analysis cache -------------------------------------- *)

let check_stats_identical label plain cached =
  List.iter2
    (fun (m, a) (m', b) ->
      assert (m = m');
      match Diff.diff_stats a b with
      | [] -> ()
      | ds ->
        Alcotest.failf "%s under %s: cached prep diverged: %s" label (Mode.name m)
          (String.concat "; " ds))
    plain cached

(* Cached preparation must be cycle-exact (exact float equality on every
   Stats.t field) across the whole Table II suite under every known mode,
   with a single cache shared across the sweep so cross-app hits happen. *)
let test_cache_cycle_identity () =
  let cache = Cache.create () in
  let modes = List.map snd Mode.known in
  List.iter
    (fun (name, gen) ->
      let app = gen () in
      check_stats_identical name
        (Runner.simulate_all ~cfg ~modes app)
        (Runner.simulate_all ~cfg ~modes ~cache app))
    Suite.all

(* Second pass over the suite against a warm cache: every pair-level
   lookup should hit (the acceptance bar is >= 90%). *)
let test_cache_second_pass_hits () =
  let cache = Cache.create () in
  let apps = List.map (fun (_, gen) -> gen ()) Suite.all in
  let pass () = List.iter (fun app -> ignore (Runner.prepare ~cfg ~cache Mode.Producer_priority app)) apps in
  pass ();
  let c1 = Cache.counters cache in
  pass ();
  let c2 = Cache.counters cache in
  let hits = c2.Cache.pair_hits - c1.Cache.pair_hits in
  let misses = c2.Cache.pair_misses - c1.Cache.pair_misses in
  Alcotest.(check bool) "pair lookups happened" true (hits + misses > 0);
  if 10 * hits < 9 * (hits + misses) then
    Alcotest.failf "second-pass pair hit rate below 90%%: %d hits, %d misses" hits misses

(* Randomized sweep: many structurally-overlapping generated apps through
   one shared cache, each compared against an uncached preparation. *)
let test_cache_genapp_sweep () =
  let rng = Rng.create 0xcac4e in
  let cache = Cache.create () in
  for idx = 0 to 29 do
    let app = Genapp.build (Genapp.generate rng idx) in
    check_stats_identical
      (Printf.sprintf "genapp %d" idx)
      (Runner.simulate_all ~cfg app)
      (Runner.simulate_all ~cfg ~cache app)
  done

let suite =
  [
    Alcotest.test_case "diff: 50 random apps x all modes" `Slow test_diff_random;
    Alcotest.test_case "cache: cycle-identical over Table II suite" `Slow
      test_cache_cycle_identity;
    Alcotest.test_case "cache: second suite pass >=90% pair hits" `Quick
      test_cache_second_pass_hits;
    Alcotest.test_case "cache: randomized genapp sweep" `Slow test_cache_genapp_sweep;
    Alcotest.test_case "diff: window-full chain" `Quick test_diff_window_full;
    Alcotest.test_case "diff: slot overrun" `Quick test_diff_slot_overrun;
    Alcotest.test_case "diff: priority dual stream" `Quick test_diff_priority_two_streams;
    Alcotest.test_case "diff: sync heavy" `Quick test_diff_sync_heavy;
    Alcotest.test_case "diff: degrade-to-full pair" `Quick test_diff_degrade_fallback;
    Alcotest.test_case "sound: template pairs" `Quick test_sound_templates;
    Alcotest.test_case "sound: random apps" `Slow test_sound_random;
    Alcotest.test_case "sound: >63-parent degree cap" `Quick test_sound_degree_cap;
    Alcotest.test_case "fuzz: clean run" `Quick test_fuzz_clean;
    Alcotest.test_case "fuzz: catches injected window bug" `Slow test_fuzz_catches_window_bug;
    Alcotest.test_case "shrink: measure decreases" `Quick test_shrink_measure;
    Alcotest.test_case "shrink: minimize to fixpoint" `Quick test_shrink_minimize;
    Alcotest.test_case "genapp: to_ocaml mirrors spec" `Quick test_genapp_to_ocaml;
    Alcotest.test_case "diff: host-blocking copies, 30 random apps x all modes" `Slow
      test_diff_host_blocking_random;
  ]
