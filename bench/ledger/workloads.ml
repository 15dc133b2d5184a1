(* The ledger workloads.

   Each workload has a set-up (timed as setup_s) that returns an instance,
   and an instance runs passes: a pass is a closed loop of items, each item
   one call (or short chain of calls) into the public API, started when the
   previous one returned.  Items are timed in process CPU seconds and their
   outputs are checked right after, outside the item's timer. *)

module Config = Bm_gpu.Config
module Command = Bm_gpu.Command
module Costmodel = Bm_gpu.Costmodel
module Stats = Bm_gpu.Stats
module Prep = Bm_maestro.Prep
module Cache = Bm_maestro.Cache
module Store = Bm_maestro.Store
module Sim = Bm_maestro.Sim
module Replay = Bm_maestro.Replay
module Graph = Bm_maestro.Graph
module Multi = Bm_maestro.Multi
module Explain = Bm_maestro.Explain
module Deadline = Bm_maestro.Deadline
module Mode = Bm_maestro.Mode
module Json = Bm_metrics.Json
module Prof = Bm_metrics.Prof
module Suite = Bm_workloads.Suite
module Genapp = Bm_workloads.Genapp
module Bipartite = Bm_depgraph.Bipartite
module Fingerprint = Bm_analysis.Fingerprint
module Diff = Bm_oracle.Diff

(* --- inputs -------------------------------------------------------------- *)

type env = {
  cfg : Config.t;
  suite : (string * (unit -> Command.app)) list;
  mix : (string * (unit -> Command.app)) list;  (* seeded Genapp apps *)
  pairs : (string * string) list;  (* co-run pairs, by app name *)
  explained : string list;         (* apps explained with what-if *)
  reference : Reference.t option;  (* exact outputs; only at the default seed *)
  scratch : string;                (* directory for on-disk stores *)
}

let default_seed = Config.titan_x_pascal.Config.seed

(* The prepare workloads add a small seeded Genapp mix to the suite.  Its
   apps are an order of magnitude cheaper than the suite's, so the seed
   varies the inputs without moving any per-pass total by more than noise.
   The engine workloads run the suite alone: there the seed only moves the
   cost jitter, which leaves every allocation size, and so the heap peak,
   unchanged. *)
let mix_size = 4

let default_pairs = [ ("BICG", "MVT"); ("3MM", "PATH"); ("HS", "BICG"); ("GAUSSIAN", "NW") ]
let default_explained = [ "3MM"; "FFT"; "PATH"; "HS"; "GRAMSCHM"; "FDTD-2D" ]

let env ?reference ?(suite = Suite.all) ?(mix = mix_size) ?(pairs = default_pairs)
    ?(explained = default_explained) ~scratch seed =
  let rng = Bm_engine.Rng.create seed in
  let generated =
    List.init mix (fun i ->
        let spec = Genapp.generate rng i in
        (spec.Genapp.g_name, fun () -> Genapp.build spec))
  in
  {
    cfg = { Config.titan_x_pascal with Config.seed };
    suite;
    mix = generated;
    pairs;
    explained;
    reference;
    scratch;
  }

let prepare_apps env = env.suite @ env.mix

(* The simulate-sweep modes: the Fig. 9 set plus one EDF mode. *)
let sweep_modes = Mode.all_fig9 @ [ Mode.Deadline_edf 2 ]

(* The co-run and explain mode. *)
let corun_mode = Mode.Producer_priority

(* --- pass context ---------------------------------------------------------- *)

let cache_families = [ "kernel"; "footprint"; "profile"; "rw"; "pair" ]

type ctx = {
  prof : Prof.t option;
  mutable samples : float list;  (* item CPU seconds, newest first *)
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;
  cache_hits : int array;  (* indexed like [cache_families] *)
  cache_misses : int array;
  mutable disk_hits : int;
  mutable disk_misses : int;
  mutable disk_written : int;
  mutable probes : float list;  (* Host.probe times taken between items *)
}

let new_ctx ?prof () =
  {
    prof;
    samples = [];
    attempted = 0;
    failed = 0;
    failures = [];
    cache_hits = Array.make 5 0;
    cache_misses = Array.make 5 0;
    disk_hits = 0;
    disk_misses = 0;
    disk_written = 0;
    probes = [];
  }

let span ctx name f = Prof.with_span ctx.prof name f

let record ctx label = function
  | Ok () -> ctx.attempted <- ctx.attempted + 1
  | Error msg ->
    ctx.attempted <- ctx.attempted + 1;
    ctx.failed <- ctx.failed + 1;
    if List.length ctx.failures < 5 then ctx.failures <- (label ^ ": " ^ msg) :: ctx.failures

(* A pass probes the host after every [probe_every] items, outside the
   item timers, so the host factor of a long pass samples all of it, not
   only its two ends.  A fixed count, not a time, picks the items that
   follow a probe, so the same items pay for the caches it evicts in every
   pass. *)
let probe_every = 8

let after_item ctx label result =
  record ctx label result;
  if List.length ctx.samples mod probe_every = 0 then ctx.probes <- Host.probe () :: ctx.probes

(* Time [f] as one item, then check its output.  An exception is a failed
   item, not a crash: the run still reports how many items failed. *)
let item ctx label f ~check =
  let t0 = Layers.cpu_seconds () in
  match f () with
  | r ->
    ctx.samples <- (Layers.cpu_seconds () -. t0) :: ctx.samples;
    after_item ctx label (check r);
    Some r
  | exception e ->
    ctx.samples <- (Layers.cpu_seconds () -. t0) :: ctx.samples;
    after_item ctx label (Error (Printexc.to_string e));
    None

let cache_pairs (c : Cache.counters) =
  [|
    (c.Cache.kernel_hits, c.Cache.kernel_misses);
    (c.Cache.footprint_hits, c.Cache.footprint_misses);
    (c.Cache.profile_hits, c.Cache.profile_misses);
    (c.Cache.rw_hits, c.Cache.rw_misses);
    (c.Cache.pair_hits, c.Cache.pair_misses);
  |]

(* Add a cache's counters (minus [before], for a cache that outlives the
   pass) and those of its store handle, which is always fresh per item. *)
let note_cache ctx ?before cache =
  let now = cache_pairs (Cache.counters cache) in
  let base = match before with Some b -> cache_pairs b | None -> Array.make 5 (0, 0) in
  Array.iteri
    (fun i (h, m) ->
      let h0, m0 = base.(i) in
      ctx.cache_hits.(i) <- ctx.cache_hits.(i) + h - h0;
      ctx.cache_misses.(i) <- ctx.cache_misses.(i) + m - m0)
    now;
  match Cache.store cache with
  | None -> ()
  | Some s ->
    let c = Store.counters s in
    ctx.disk_hits <- ctx.disk_hits + c.Store.disk_hits;
    ctx.disk_misses <- ctx.disk_misses + c.Store.disk_misses;
    ctx.disk_written <- ctx.disk_written + c.Store.disk_bytes_written

(* --- output checks --------------------------------------------------------- *)

let ( let* ) = Result.bind

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
let same_floats a b = Array.length a = Array.length b && Array.for_all2 same_bits a b

let same_relation a b =
  match (a, b) with
  | Bipartite.Independent, Bipartite.Independent | Bipartite.Fully_connected, Bipartite.Fully_connected ->
    true
  | Bipartite.Graph x, Bipartite.Graph y -> Bipartite.equal x y
  | (Bipartite.Independent | Bipartite.Fully_connected | Bipartite.Graph _), _ -> false

let command_sig = function
  | Command.Malloc b -> Printf.sprintf "malloc %d" b.Command.buf_id
  | Command.Memcpy_h2d b -> Printf.sprintf "h2d %d" b.Command.buf_id
  | Command.Memcpy_d2h b -> Printf.sprintf "d2h %d" b.Command.buf_id
  | Command.Kernel_launch s ->
    Printf.sprintf "launch %s s%d" s.Command.kernel.Bm_ptx.Types.kname s.Command.stream
  | Command.Device_synchronize -> "sync"

let check b fmt = Printf.ksprintf (fun msg -> if b then Ok () else Error msg) fmt

(* What a preparation is checked on: command order, relations and per-TB
   costs.  References keep only this, not the footprints and analysis
   results, so they add little to the heap the workload is measured on. *)
type prep_outputs = {
  o_commands : string array;
  o_kernel_of_cmd : int array;
  o_d2h_wait : int option array;
  o_relations : Bipartite.relation array;
  o_costs : Costmodel.t array;
}

let outputs (p : Prep.t) =
  let launches = p.Prep.p_launches in
  {
    o_commands = Array.map command_sig p.Prep.p_commands;
    o_kernel_of_cmd = p.Prep.p_kernel_of_cmd;
    o_d2h_wait = p.Prep.p_d2h_wait;
    o_relations = Array.map (fun (li : Prep.launch_info) -> li.Prep.li_relation) launches;
    o_costs = Array.map (fun (li : Prep.launch_info) -> li.Prep.li_cost) launches;
  }

let same_prep ~reference (p : Prep.t) =
  let o = outputs p in
  let* () =
    check
      (o.o_commands = reference.o_commands
      && o.o_kernel_of_cmd = reference.o_kernel_of_cmd
      && o.o_d2h_wait = reference.o_d2h_wait)
      "command order differs"
  in
  let* () = check (Array.length o.o_costs = Array.length reference.o_costs) "launch count differs" in
  let bad = ref None in
  Array.iteri
    (fun i (c : Costmodel.t) ->
      let r = reference.o_costs.(i) in
      if !bad = None then
        if not (same_relation o.o_relations.(i) reference.o_relations.(i)) then
          bad := Some (Printf.sprintf "launch %d: relation differs" i)
        else if
          not
            (same_floats c.Costmodel.tb_us r.Costmodel.tb_us
            && same_floats c.Costmodel.tb_mem_requests r.Costmodel.tb_mem_requests)
        then bad := Some (Printf.sprintf "launch %d: costs differ" i))
    o.o_costs;
  match !bad with None -> Ok () | Some msg -> Error msg

let same_preps ~reference:(rp, rr) (p, r) =
  let* () = same_prep ~reference:rp p in
  same_prep ~reference:rr r

let same_stats a b = match Diff.diff_stats a b with [] -> Ok () | d :: _ -> Error d

let against_reference env ~app ~mode total_us =
  match env.reference with
  | None -> Ok ()
  | Some r -> (
    match Reference.find r ~app ~mode:(Mode.name mode) with
    | None -> Error (Printf.sprintf "%s/%s missing from the reference" app (Mode.name mode))
    | Some us ->
      check (same_bits us total_us) "%s/%s: total_us %.17g, reference %.17g" app (Mode.name mode)
        total_us us)

(* --- shared helpers ------------------------------------------------------------ *)

let rec rm_tree path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_tree (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let open_store dir =
  match Store.open_dir dir with Ok s -> s | Error msg -> failwith ("store: " ^ msg)

(* Both reorder classes, as Runner.simulate_all and bmctl prewarm do. *)
let prepare_both ?prof ?cache cfg app =
  let prep reorder = Prof.with_span prof "prepare" (fun () -> Prep.prepare ~reorder ?prof ?cache cfg app) in
  let plain = prep false in
  (plain, prep true)

let both_outputs (plain, reordered) = (outputs plain, outputs reordered)

(* The outputs of the cold, cache-free preparations every prepare workload
   is checked against. *)
let cold_references env =
  List.map (fun (name, build) -> (name, both_outputs (prepare_both env.cfg (build ())))) (prepare_apps env)

(* At the default seed a cold preparation must also reproduce
   reference.json in every sweep mode. *)
let verify_preps env refs =
  match env.reference with
  | None -> []
  | Some _ ->
    List.concat_map
      (fun ((app, build), (_, reference)) ->
        let plain, reordered = prepare_both env.cfg (build ()) in
        (app ^ " cold", same_preps ~reference (plain, reordered))
        :: List.map
             (fun mode ->
               let prep = if Mode.reorders mode then reordered else plain in
               ( app ^ " reference",
                 against_reference env ~app ~mode (Sim.run env.cfg mode prep).Stats.total_us ))
             sweep_modes)
      (List.combine (prepare_apps env) refs)

(* --- keyed store calls --------------------------------------------------------- *)

(* The distinct keyed Store calls one app's preparation issues, rebuilt from
   its reference preparations with the public key functions: what a fresh
   per-app Cache asks the disk tier for. *)
type store_op =
  | Footprint of Store.key * Bm_analysis.Footprint.kernel_footprints
  | Profile of Store.key * Costmodel.profile
  | Rw of Store.key * Bm_maestro.Reorder.rw
  | Relation of Store.key * int * int * Bipartite.relation

let store_ops_of_app cfg (plain, reordered) =
  let seen = Hashtbl.create 64 in
  let ops = ref [] in
  let add key op =
    let k = Store.key_string key in
    if not (Hashtbl.mem seen k) then begin
      Hashtbl.add seen k ();
      ops := op :: !ops
    end
  in
  let fp_of (spec : Command.launch_spec) =
    Fingerprint.to_string (Fingerprint.of_kernel spec.Command.kernel)
  in
  List.iter
    (fun (p : Prep.t) ->
      Array.iter
        (fun (li : Prep.launch_info) ->
          let spec = li.Prep.li_spec in
          let fp = fp_of spec and fl = Command.footprint_launch spec in
          let k = Store.footprint_key ~fp ~fl in
          add k (Footprint (k, li.Prep.li_fp));
          let k = Store.profile_key ~fp ~fl in
          add k (Profile (k, Costmodel.profile li.Prep.li_result fl));
          let buffers =
            List.map
              (fun (b : Command.buffer) -> (b.Command.buf_id, b.Command.base, b.Command.bytes))
              (Command.buffers_of_args spec)
          in
          let k = Store.rw_key ~fp ~fl ~buffers in
          add k (Rw (k, Prep.kernel_rw spec li.Prep.li_fp));
          match li.Prep.li_prev with
          | None -> ()
          | Some prev ->
            let pli = p.Prep.p_launches.(prev) in
            let k =
              Store.pair_key ~pfp:(fp_of pli.Prep.li_spec)
                ~pfl:(Command.footprint_launch pli.Prep.li_spec)
                ~cfp:fp ~cfl:fl ~max_degree:cfg.Config.max_parent_degree
            in
            add k (Relation (k, pli.Prep.li_tbs, li.Prep.li_tbs, li.Prep.li_relation)))
        p.Prep.p_launches)
    [ plain; reordered ];
  List.rev !ops

(* Replay the calls: each is read from [read_from] and written to
   [write_to], as a miss in a fresh store directory is written through. *)
let replay_store_ops ctx ~read_from ~write_to ops =
  let run family find put =
    ignore (span ctx ("store." ^ family ^ ".read") find);
    span ctx ("store." ^ family ^ ".write") put
  in
  List.iter
    (function
      | Footprint (key, v) ->
        run "footprint"
          (fun () -> Store.find_footprints read_from ~key)
          (fun () -> Store.put_footprints write_to ~key v)
      | Profile (key, v) ->
        run "profile" (fun () -> Store.find_profile read_from ~key) (fun () -> Store.put_profile write_to ~key v)
      | Rw (key, v) -> run "rw" (fun () -> Store.find_rw read_from ~key) (fun () -> Store.put_rw write_to ~key v)
      | Relation (key, n_parents, n_children, v) ->
        run "relation"
          (fun () -> Store.find_relation read_from ~key)
          (fun () -> Store.put_relation write_to ~key ~n_parents ~n_children v))
    ops

(* --- workloads ----------------------------------------------------------------- *)

type instance = {
  pass : ctx -> unit;
  store_ops : ctx -> unit;  (* traced runs: replay the pass's keyed store calls *)
  prime : unit -> (string * (unit, string) result) list;
      (* once per run, untimed, after the timed set-ups: writes any disk
         store, then checks set-up outputs against reference.json *)
  cleanup : unit -> unit;
}

(* Why each workload exists is recorded in BENCHMARK.json and README.md. *)
type t = { name : string; setup : ?prof:Prof.t -> env -> instance }

let no_store_ops _ = ()
let nothing () = ()

(* One bmctl-style invocation per app: build it, then prepare both reorder
   classes with a fresh in-memory cache and, given [dir], a fresh handle on
   that store directory. *)
let prepare_items ctx env refs ?dir () =
  List.iter2
    (fun (name, build) (_, reference) ->
      ignore
        (item ctx name
           (fun () ->
             let store = Option.map (fun d -> span ctx "store.open" (fun () -> open_store d)) dir in
             let cache = Cache.create ?store () in
             let app = span ctx "build" build in
             (cache, prepare_both ?prof:ctx.prof ~cache env.cfg app))
           ~check:(fun (cache, preps) ->
             note_cache ctx cache;
             same_preps ~reference preps)))
    (prepare_apps env) refs

(* Analysis dominates; the store and the engines are bypassed. *)
let prepare_cold =
  {
    name = "prepare-cold";
    setup =
      (fun ?prof:_ env ->
        let refs = cold_references env in
        {
          pass = (fun ctx -> prepare_items ctx env refs ());
          store_ops = no_store_ops;
          prime = (fun () -> verify_preps env refs);
          cleanup = nothing;
        });
  }

(* Store reads and decode dominate; analysis is skipped.  The store is
   written once per run, outside setup_s: that creates some 3,300 small
   files, and on a two-vCPU ext4 VM the system time of creating one ranged
   from about 20 us to 0.5 ms between minutes.  The write path is still
   measured, per layer, by the traced runs' store replay. *)
let prepare_disk_warm =
  {
    name = "prepare-disk-warm";
    setup =
      (fun ?prof:_ env ->
        let refs = cold_references env in
        let dir = Filename.concat env.scratch "disk-warm" in
        let replay_dir = Filename.concat env.scratch "replay" in
        let ops =
          lazy
            (List.map
               (fun (_, build) -> store_ops_of_app env.cfg (prepare_both env.cfg (build ())))
               (prepare_apps env))
        in
        {
          pass = (fun ctx -> prepare_items ctx env refs ~dir ());
          store_ops =
            (fun ctx ->
              rm_tree replay_dir;
              List.iter
                (replay_store_ops ctx ~read_from:(open_store dir) ~write_to:(open_store replay_dir))
                (Lazy.force ops));
          prime =
            (fun () ->
              rm_tree dir;
              List.iter
                (fun (_, build) ->
                  let cache = Cache.create ~store:(open_store dir) () in
                  ignore (prepare_both ~cache env.cfg (build ())))
                (prepare_apps env);
              verify_preps env refs);
          cleanup =
            (fun () ->
              rm_tree dir;
              rm_tree replay_dir);
        });
  }

type captured = {
  c_name : string;
  c_app : Command.app;
  c_preps : prep_outputs * prep_outputs;  (* plain, reordered *)
  c_graph : string;           (* Graph.to_json, serialized *)
}

let decode_graph s =
  match Json.of_string s with
  | Error msg -> Error (Graph.Corrupt msg)
  | Ok j -> Graph.of_json j

(* The engines and graph decode dominate; analysis is bypassed by a warm
   cache. *)
let simulate_sweep =
  {
    name = "simulate-sweep";
    setup =
      (fun ?prof env ->
        let cfg = env.cfg in
        let cache = Cache.create () in
        let captured =
          List.map
            (fun (name, build) ->
              let app = Prof.with_span prof "build" build in
              let preps = both_outputs (prepare_both ?prof ~cache cfg app) in
              let graph = Prof.with_span prof "graph.capture" (fun () -> Graph.capture ?prof ~cache cfg app) in
              { c_name = name; c_app = app; c_preps = preps; c_graph = Json.to_string (Graph.to_json graph) })
            env.suite
        in
        let pass ctx =
          let before = Cache.counters cache in
          List.iter
            (fun c ->
              let preps =
                item ctx (c.c_name ^ " prepare")
                  (fun () -> prepare_both ?prof:ctx.prof ~cache cfg c.c_app)
                  ~check:(same_preps ~reference:c.c_preps)
              in
              let graph =
                item ctx (c.c_name ^ " decode")
                  (fun () -> span ctx "graph.decode" (fun () -> decode_graph c.c_graph))
                  ~check:(function
                    | Ok g -> Result.map_error (Format.asprintf "%a" Graph.pp_error) (Graph.validate cfg c.c_app g)
                    | Error e -> Error (Format.asprintf "%a" Graph.pp_error e))
              in
              match (preps, graph) with
              | Some (plain, reordered), Some (Ok graph) ->
                List.iter
                  (fun mode ->
                    let label = c.c_name ^ " " ^ Mode.name mode in
                    let prep = if Mode.reorders mode then reordered else plain in
                    match
                      item ctx (label ^ " sim")
                        (fun () -> span ctx "sim" (fun () -> Sim.run cfg mode prep))
                        ~check:(fun st -> against_reference env ~app:c.c_name ~mode st.Stats.total_us)
                    with
                    | None -> ()
                    | Some sim ->
                      ignore
                        (item ctx (label ^ " replay")
                           (fun () -> span ctx "replay" (fun () -> Replay.run cfg mode graph))
                           ~check:(same_stats sim)))
                  sweep_modes
              | _ -> ())
            captured;
          note_cache ctx ~before cache
        in
        { pass; store_ops = no_store_ops; prime = (fun () -> []); cleanup = nothing });
  }

let corun_policies cfg =
  let half = cfg.Config.num_sms / 2 in
  [
    (Multi.Fifo, Multi.Shared);
    (Multi.Packed, Multi.Shared);
    (Multi.Round_robin, Multi.Shared);
    (Multi.Fifo, Multi.Partitioned [| half; half |]);
  ]

type tenant = {
  t_app : Command.app;
  t_prep : Prep.t;
  t_solo_us : float;  (* makespan of Sim.run on the whole machine *)
  t_bound : float;   (* RTA worst case *)
  t_lower : float;   (* min_makespan_us *)
}

(* The N-app engine, explain's traced re-simulations and RTA: a change
   that only speeds up Sim.run cannot hide a slowdown here. *)
let corun_explain =
  {
    name = "corun-explain";
    setup =
      (fun ?prof env ->
        let cfg = env.cfg and mode = corun_mode in
        let cache = Cache.create () in
        let tenants =
          List.map
            (fun (name, build) ->
              let app = Prof.with_span prof "build" build in
              let prep =
                Prof.with_span prof "prepare" (fun () ->
                    Prep.prepare ~reorder:(Mode.reorders mode) ?prof ~cache cfg app)
              in
              ( name,
                {
                  t_app = app;
                  t_prep = prep;
                  t_solo_us = (Sim.run cfg mode prep).Stats.total_us;
                  t_bound = Deadline.bound_of_prep cfg mode prep;
                  t_lower = Deadline.min_makespan_us cfg prep;
                } ))
            env.suite
        in
        let tenant name = List.assoc name tenants in
        let policies = corun_policies cfg in
        (* Partition isolation: each tenant of a split co-run must match its
           solo run on its own slice. *)
        let slices =
          List.concat_map
            (fun (a, b) ->
              List.concat_map
                (function
                  | _, Multi.Partitioned sms ->
                    List.mapi
                      (fun i n ->
                        ((n, i, (a, b)), Sim.run (Config.with_sms cfg sms.(i)) mode (tenant n).t_prep))
                      [ a; b ]
                  | _, Multi.Shared -> [])
                policies)
            env.pairs
        in
        let within name makespan bound =
          let t = tenant name in
          check
            (t.t_lower <= makespan && makespan <= bound)
            "%s: makespan %.6g outside [%.6g, %.6g]" name makespan t.t_lower bound
        in
        let check_corun (a, b) spatial (r : Multi.result) =
          match spatial with
          | Multi.Shared ->
            (* Under sharing a tenant may wait for every co-runner's work. *)
            let bound = (tenant a).t_bound +. (tenant b).t_bound in
            let* () = within a r.Multi.mr_stats.(0).Stats.total_us bound in
            within b r.Multi.mr_stats.(1).Stats.total_us bound
          | Multi.Partitioned _ ->
            let solo i n = List.assoc (n, i, (a, b)) slices in
            let* () = same_stats r.Multi.mr_stats.(0) (solo 0 a) in
            same_stats r.Multi.mr_stats.(1) (solo 1 b)
        in
        let pass ctx =
          let before = Cache.counters cache in
          List.iter
            (fun (a, b) ->
              let preps = [| (tenant a).t_prep; (tenant b).t_prep |] in
              List.iter
                (fun (submission, spatial) ->
                  (* Sinks that drop events keep the engine's emission path
                     on, as under explain, without charging the co-run
                     layer for recording. *)
                  let traces = [| Some (fun _ _ -> ()); Some (fun _ _ -> ()) |] in
                  ignore
                    (item ctx
                       (Printf.sprintf "%s+%s %s %s" a b (Multi.submission_name submission)
                          (Multi.spatial_name spatial))
                       (fun () -> span ctx "corun" (fun () -> Multi.run ~submission ~spatial ~traces cfg mode preps))
                       ~check:(check_corun (a, b) spatial)))
                policies)
            env.pairs;
          List.iter
            (fun name ->
              ignore
                (item ctx (name ^ " explain")
                   (fun () ->
                     span ctx "explain" (fun () -> Explain.run ~cfg ~cache ~whatif:true mode ~name (tenant name).t_app))
                   ~check:(fun (x : Explain.solo) ->
                     let* () = Explain.check x in
                     let* () =
                       check (List.length x.Explain.x_whatif = List.length Explain.knobs) "what-if missing"
                     in
                     check
                       (same_bits x.Explain.x_total_us (tenant name).t_solo_us)
                       "%s: explained makespan differs from Sim.run" name)))
            env.explained;
          ignore
            (item ctx "rta"
               (fun () ->
                 span ctx "rta" (fun () ->
                     List.map
                       (fun (name, t) ->
                         (name, Deadline.bound_of_prep cfg mode t.t_prep, Deadline.min_makespan_us cfg t.t_prep))
                       tenants))
               ~check:(fun bounds ->
                 List.fold_left
                   (fun acc (name, bound, lower) ->
                     let* () = acc in
                     let t = tenant name in
                     let* () =
                       check
                         (same_bits bound t.t_bound && same_bits lower t.t_lower)
                         "%s: RTA not deterministic" name
                     in
                     within name t.t_solo_us bound)
                   (Ok ()) bounds));
          note_cache ctx ~before cache
        in
        let prime () =
          List.map
            (fun (name, t) -> (name ^ " reference", against_reference env ~app:name ~mode t.t_solo_us))
            (if env.reference = None then [] else tenants)
        in
        { pass; store_ops = no_store_ops; prime; cleanup = nothing });
  }

let all = [ prepare_cold; prepare_disk_warm; simulate_sweep; corun_explain ]
let find name = List.find_opt (fun w -> w.name = name) all
