module Rng = Bm_engine.Rng
module Config = Bm_gpu.Config
module Mode = Bm_maestro.Mode
module Pattern = Bm_depgraph.Pattern
module Genapp = Bm_workloads.Genapp

type kind =
  | Scheduler_mismatch
  | Unsound_analysis
  | Relate_mismatch
  | Isolation_breach
  | Crash of string

type failure = {
  f_index : int;
  f_kind : kind;
  f_detail : string;
  f_spec : Genapp.spec;
  f_shrunk : Genapp.spec option;
  f_shrink_steps : int;
}

type report = {
  r_seed : int;
  r_count : int;
  r_modes : Mode.t list;
  r_pairs_checked : int;
  r_precision : (Pattern.t * int * float) list;
  r_failures : failure list;
}

let kind_name = function
  | Scheduler_mismatch -> "scheduler mismatch"
  | Unsound_analysis -> "unsound dependency analysis"
  | Relate_mismatch -> "relate divergence"
  | Isolation_breach -> "partition isolation breach"
  | Crash msg -> "crash: " ^ msg

(* One launch-time analysis cache per worker domain (DESIGN §8/§9: caches
   are single-domain sinks, never shared across domains).  Generated apps
   reuse kernel structures heavily, and cached preparation is
   cycle-identical — this very harness is the gate for that — so verdicts
   do not depend on which domain (and therefore which cache) examines an
   app. *)
let domain_cache : Bm_maestro.Cache.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Bm_maestro.Cache.create ())

(* Classify one spec.  [Ok] carries the soundness reports of the single
   oracle pass so the caller can fold precision statistics without
   re-running the analysis; it is empty when [soundness] is off. *)
let examine ~cfg ~modes ~soundness ~window_bug spec =
  let app = Genapp.build spec in
  let cache = Domain.DLS.get domain_cache in
  match Diff.check ~cfg ~modes ~cache ?window_bug app with
  | Error (mm :: _) -> Error (Scheduler_mismatch, Format.asprintf "%a" Diff.pp_mismatch mm)
  | Error [] -> Ok [] (* unreachable: Error implies at least one mismatch *)
  | exception exn ->
    let msg = Printexc.to_string exn in
    Error (Crash msg, msg)
  | Ok () ->
    if not soundness then Ok []
    else begin
      match Soundness.check_app ~cfg app with
      | exception exn ->
        let msg = Printexc.to_string exn in
        Error (Crash msg, msg)
      | reports -> (
        match Soundness.violations reports with
        | [] -> Ok reports
        | v :: _ ->
          let kind = if Soundness.pair_sound v then Relate_mismatch else Unsound_analysis in
          Error (kind, Format.asprintf "%a" Soundness.pp_report v))
    end

let same_kind a b =
  match (a, b) with
  | Scheduler_mismatch, Scheduler_mismatch
  | Unsound_analysis, Unsound_analysis
  | Relate_mismatch, Relate_mismatch
  | Isolation_breach, Isolation_breach
  | Crash _, Crash _ -> true
  | _ -> false

(* One failing item of a campaign, before it becomes an axis's record. *)
type 'a found = {
  index : int;
  kind : kind;
  detail : string;
  item : 'a;
  shrunk : 'a option;
  steps : int;
}

(* The campaign loop both axes share.  Generation consumes the seeded RNG
   strictly in index order — the one sequential phase — so the item stream
   is identical to a fully sequential run regardless of how many domains
   examine it, and identical for every chunk size: chunking only bounds
   how many items are alive at once (memory stays flat for huge counts),
   never the generation order, the verdicts or the log lines.  Only
   failing items are retained.  Each failure then shrinks independently
   (the shrinker re-examines candidates, never the RNG), so failures
   minimize in parallel too. *)
let campaign ~name ~noun ~nouns ~every ~to_string ~generate ~examine ~on_clean ~minimize ~shrink
    ~log ?jobs ~chunk ~seed ~count () =
  if chunk < 1 then invalid_arg (name ^ ": chunk must be >= 1");
  let rng = Rng.create seed in
  let bad = ref [] in
  let next = ref 0 in
  while !next < count do
    let base = !next in
    let n = min chunk (count - base) in
    let items = Array.init n (fun i -> generate rng (base + i)) in
    let outcomes = Bm_parallel.map_ordered ?domains:jobs examine items in
    Array.iteri
      (fun i outcome ->
        let idx = base + i in
        (match outcome with
        | Ok clean -> on_clean clean
        | Error (kind, detail) ->
          log (Printf.sprintf "%s %d (%s): %s" noun idx (to_string items.(i)) (kind_name kind));
          bad := (idx, kind, detail, items.(i)) :: !bad);
        if (idx + 1) mod every = 0 then
          log
            (Printf.sprintf "%d/%d %s checked, %d failure(s)" (idx + 1) count nouns
               (List.length !bad)))
      outcomes;
    next := base + n
  done;
  Bm_parallel.map_list ?domains:jobs
    (fun (index, kind, detail, item) ->
      let shrunk, steps =
        if not shrink then (None, 0)
        else begin
          let still_fails x =
            match examine x with Error (k, _) -> same_kind k kind | Ok _ -> false
          in
          let x, steps = minimize still_fails item in
          (Some x, steps)
        end
      in
      { index; kind; detail; item; shrunk; steps })
    (List.rev !bad)

let run ?(cfg = Config.titan_x_pascal) ?(modes = List.map snd Mode.known) ?(shrink = true)
    ?(soundness = true) ?window_bug ?(log = fun _ -> ()) ?jobs ?(chunk = 256) ~seed ~count () =
  let pairs = ref 0 in
  (* pattern -> (count, ratio sum, finite-ratio count) *)
  let precision : (Pattern.t, int ref * float ref * int ref) Hashtbl.t = Hashtbl.create 8 in
  (* Clean: accumulate the precision statistics for the summary. *)
  let on_clean reports =
    List.iter
      (fun r ->
        incr pairs;
        let cnt, sum, fin =
          match Hashtbl.find_opt precision r.Soundness.pr_pattern with
          | Some t -> t
          | None ->
            let t = (ref 0, ref 0.0, ref 0) in
            Hashtbl.add precision r.Soundness.pr_pattern t;
            t
        in
        incr cnt;
        let rat = Soundness.ratio r in
        if rat < infinity then begin
          sum := !sum +. rat;
          incr fin
        end)
      reports
  in
  let found =
    campaign ~name:"Fuzz.run" ~noun:"app" ~nouns:"apps" ~every:50 ~to_string:Genapp.to_string
      ~generate:(fun rng i -> Genapp.generate rng i)
      ~examine:(examine ~cfg ~modes ~soundness ~window_bug)
      ~on_clean ~minimize:Shrink.minimize ~shrink ~log ?jobs ~chunk ~seed ~count ()
  in
  let precision_list =
    Hashtbl.fold
      (fun p (cnt, sum, fin) acc ->
        (p, !cnt, if !fin > 0 then !sum /. float_of_int !fin else nan) :: acc)
      precision []
    |> List.sort (fun (a, _, _) (b, _, _) -> compare (Pattern.table1_id a) (Pattern.table1_id b))
  in
  {
    r_seed = seed;
    r_count = count;
    r_modes = modes;
    r_pairs_checked = !pairs;
    r_precision = precision_list;
    r_failures =
      List.map
        (fun f ->
          { f_index = f.index; f_kind = f.kind; f_detail = f.detail; f_spec = f.item;
            f_shrunk = f.shrunk; f_shrink_steps = f.steps })
        found;
  }

let ok r = r.r_failures = []

(* ------------------------------------------------------------------ *)
(* Co-run fuzzing: the concurrency axis.                              *)
(* ------------------------------------------------------------------ *)

module Multi = Bm_maestro.Multi
module Prep = Bm_maestro.Prep
module Sim = Bm_maestro.Sim

type corun_failure = {
  cf_index : int;
  cf_kind : kind;
  cf_detail : string;
  cf_corun : Genapp.corun;
  cf_shrunk : Genapp.corun option;
  cf_shrink_steps : int;
}

type corun_report = {
  cr_seed : int;
  cr_count : int;
  cr_modes : Mode.t list;
  cr_failures : corun_failure list;
}

let submission_of_tag = function
  | `Fifo -> Multi.Fifo
  | `Round_robin -> Multi.Round_robin
  | `Packed -> Multi.Packed

(* Two checks per co-run: (1) Multi vs the naive Refsched under the spec's
   own submission/spatial policy; (2) for partitioned co-runs, each app's
   stats against its solo Sim run on a machine the size of its slice — the
   isolation property, checked against an engine that knows nothing about
   co-running at all. *)
let examine_corun ~cfg ~modes ~slots_bug (c : Genapp.corun) =
  let apps = [| Genapp.build c.c_a; Genapp.build c.c_b |] in
  let cache = Domain.DLS.get domain_cache in
  let submission = submission_of_tag c.c_submission in
  let spatial =
    match c.c_partition with
    | None -> Multi.Shared
    | Some (sa, sb) -> Multi.Partitioned [| sa; sb |]
  in
  match
    Diff.check_corun ~cfg ~modes ~submissions:[ submission ] ~spatials:[ spatial ] ~cache
      ?slots_bug apps
  with
  | Error (cm :: _) ->
    Error (Scheduler_mismatch, Format.asprintf "%a" Diff.pp_corun_mismatch cm)
  | Error [] -> Ok () (* unreachable: Error implies at least one mismatch *)
  | exception exn ->
    let msg = Printexc.to_string exn in
    Error (Crash msg, msg)
  | Ok () -> (
    match c.c_partition with
    | None -> Ok ()
    | Some (sa, sb) -> (
      (* Preparation never reads the SM count, so the full-machine preps
         serve both the co-run and the solo slice runs. *)
      let slices = [| Config.with_sms cfg sa; Config.with_sms cfg sb |] in
      let breach =
        List.find_map
          (fun mode ->
            let preps =
              Array.map (fun app -> Prep.prepare ~reorder:(Mode.reorders mode) ~cache cfg app) apps
            in
            let co = Multi.run ~submission ~spatial cfg mode preps in
            List.find_map
              (fun a ->
                let solo = Sim.run slices.(a) mode preps.(a) in
                match Diff.diff_stats co.Multi.mr_stats.(a) solo with
                | [] -> None
                | details ->
                  Some
                    (Printf.sprintf "mode %s app %d co-run vs solo on %d SM(s): %s"
                       (Mode.name mode) a
                       (if a = 0 then sa else sb)
                       (String.concat "; " details)))
              [ 0; 1 ])
          modes
      in
      match breach with
      | exception exn ->
        let msg = Printexc.to_string exn in
        Error (Crash msg, msg)
      | Some detail -> Error (Isolation_breach, detail)
      | None -> Ok ()))

(* Alternate minimizing the two specs until neither shrinks further; size
   strictly decreases on every accepted step, so the loop terminates. *)
let shrink_corun still_fails (c : Genapp.corun) =
  let cur = ref c and steps = ref 0 and progress = ref true in
  while !progress do
    progress := false;
    let sa, na = Shrink.minimize (fun s -> still_fails { !cur with Genapp.c_a = s }) !cur.Genapp.c_a in
    if na > 0 then begin
      cur := { !cur with Genapp.c_a = sa };
      steps := !steps + na;
      progress := true
    end;
    let sb, nb = Shrink.minimize (fun s -> still_fails { !cur with Genapp.c_b = s }) !cur.Genapp.c_b in
    if nb > 0 then begin
      cur := { !cur with Genapp.c_b = sb };
      steps := !steps + nb;
      progress := true
    end
  done;
  (!cur, !steps)

let run_corun ?(cfg = Config.titan_x_pascal) ?(modes = List.map snd Mode.known) ?(shrink = true)
    ?slots_bug ?(log = fun _ -> ()) ?jobs ?(chunk = 64) ~seed ~count () =
  let found =
    campaign ~name:"Fuzz.run_corun" ~noun:"corun" ~nouns:"co-runs" ~every:25
      ~to_string:Genapp.corun_to_string
      ~generate:(fun rng i -> Genapp.generate_corun ~num_sms:cfg.Config.num_sms rng i)
      ~examine:(examine_corun ~cfg ~modes ~slots_bug)
      ~on_clean:ignore ~minimize:shrink_corun ~shrink ~log ?jobs ~chunk ~seed ~count ()
  in
  {
    cr_seed = seed;
    cr_count = count;
    cr_modes = modes;
    cr_failures =
      List.map
        (fun f ->
          { cf_index = f.index; cf_kind = f.kind; cf_detail = f.detail; cf_corun = f.item;
            cf_shrunk = f.shrunk; cf_shrink_steps = f.steps })
        found;
  }

let corun_ok r = r.cr_failures = []

let pp_corun_failure ppf f =
  Format.fprintf ppf "@[<v>corun %d: %s@,%s@,spec: %s@]" f.cf_index (kind_name f.cf_kind)
    f.cf_detail
    (Genapp.corun_to_string f.cf_corun);
  match f.cf_shrunk with
  | None -> ()
  | Some c ->
    Format.fprintf ppf
      "@,@[<v>shrunk (%d step(s), %d + %d kernel(s)): %s@,repro app a:@,%s@,repro app b:@,%s@]"
      f.cf_shrink_steps
      (Genapp.kernels c.Genapp.c_a)
      (Genapp.kernels c.Genapp.c_b)
      (Genapp.corun_to_string c)
      (Genapp.to_ocaml c.Genapp.c_a)
      (Genapp.to_ocaml c.Genapp.c_b)

let pp_corun_report ppf r =
  Format.fprintf ppf "@[<v>corun fuzz: seed=%d count=%d modes=%s@," r.cr_seed r.cr_count
    (String.concat "," (List.map Mode.name r.cr_modes));
  if r.cr_failures = [] then
    Format.fprintf ppf "no co-run mismatches, no isolation breaches@]"
  else begin
    Format.fprintf ppf "%d FAILURE(S):@," (List.length r.cr_failures);
    Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_corun_failure ppf r.cr_failures;
    Format.fprintf ppf "@]"
  end

let pp_failure ppf f =
  Format.fprintf ppf "@[<v>app %d: %s@,%s@,spec: %s@]" f.f_index (kind_name f.f_kind) f.f_detail
    (Genapp.to_string f.f_spec);
  match f.f_shrunk with
  | None -> ()
  | Some s ->
    Format.fprintf ppf "@,@[<v>shrunk (%d step(s), %d kernel(s)): %s@,repro:@,%s@]"
      f.f_shrink_steps (Genapp.kernels s) (Genapp.to_string s) (Genapp.to_ocaml s)

let pp_report ppf r =
  Format.fprintf ppf "@[<v>fuzz: seed=%d count=%d modes=%s@," r.r_seed r.r_count
    (String.concat "," (List.map Mode.name r.r_modes));
  Format.fprintf ppf "soundness pairs checked: %d@," r.r_pairs_checked;
  List.iter
    (fun (p, cnt, mean) ->
      Format.fprintf ppf "  pattern %-15s %5d pair(s)  mean static/exact ratio %s@,"
        (Pattern.name p) cnt
        (if Float.is_nan mean then "n/a" else Printf.sprintf "%.2f" mean))
    r.r_precision;
  if r.r_failures = [] then Format.fprintf ppf "no mismatches, no soundness violations@]"
  else begin
    Format.fprintf ppf "%d FAILURE(S):@," (List.length r.r_failures);
    Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_failure ppf r.r_failures;
    Format.fprintf ppf "@]"
  end
