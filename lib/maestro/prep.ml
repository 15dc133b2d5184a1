module Command = Bm_gpu.Command
module Config = Bm_gpu.Config
module Costmodel = Bm_gpu.Costmodel
module Footprint = Bm_analysis.Footprint
module Symeval = Bm_analysis.Symeval
module Bipartite = Bm_depgraph.Bipartite
module Pattern = Bm_depgraph.Pattern
module Encode = Bm_depgraph.Encode
module I = Bm_analysis.Sinterval
module Prof = Bm_metrics.Prof

type launch_info = {
  li_seq : int;
  li_prev : int option;  (* predecessor launch in the same stream *)
  li_spec : Command.launch_spec;
  li_result : Symeval.result;
  li_fp : Footprint.kernel_footprints;
  li_profile : Costmodel.profile;
  li_cost : Costmodel.t;
  li_tbs : int;
  li_relation : Bipartite.relation;
  li_pattern : Pattern.t;
  li_sizes : Encode.sizes;
  li_copy_deps : int list;
}

type t = {
  p_commands : Command.t array;
  p_launches : launch_info array;
  p_kernel_of_cmd : int array;
  p_d2h_wait : int option array;
}

(* Attribute a footprint interval to the buffer containing it: buffers are
   disjoint and padded, so the buffer with the greatest base <= lo wins. *)
let owner_buffer buffers (i : I.t) =
  List.fold_left
    (fun best (b : Command.buffer) ->
      if b.Command.base <= i.I.lo then
        match best with
        | Some (bb : Command.buffer) when bb.Command.base >= b.Command.base -> best
        | Some _ | None -> Some b
      else best)
    None buffers

let kernel_rw spec fp =
  let buffers = Command.buffers_of_args spec in
  match fp with
  | Footprint.Conservative _ ->
    let ids = List.map (fun b -> b.Command.buf_id) buffers in
    { Reorder.reads = ids; writes = ids }
  | Footprint.Per_tb fps ->
    let whole = Footprint.whole fps in
    let ids_of intervals =
      List.filter_map (fun i -> Option.map (fun b -> b.Command.buf_id) (owner_buffer buffers i)) intervals
      |> List.sort_uniq compare
    in
    { Reorder.reads = ids_of whole.Footprint.freads; writes = ids_of whole.Footprint.fwrites }

let command_rw cmd krw =
  match cmd with
  | Command.Malloc b -> { Reorder.reads = []; writes = [ b.Command.buf_id ] }
  | Command.Memcpy_h2d b -> { Reorder.reads = []; writes = [ b.Command.buf_id ] }
  | Command.Memcpy_d2h b -> { Reorder.reads = [ b.Command.buf_id ]; writes = [] }
  | Command.Kernel_launch spec -> krw spec
  | Command.Device_synchronize -> { Reorder.reads = []; writes = [] }

let prepare ?(reorder = true) ?prof ?cache (cfg : Config.t) (app : Command.app) =
  (* Two memo layers.  L1 (per call, keyed by kernel name — unique within an
     app): apps reuse kernels across many launches (GAUSSIAN alone has 510
     launches of 2 kernels).  L2 ([?cache], keyed by structural fingerprint,
     shared across calls on one domain): sweeps and re-runs skip the whole
     pipeline for kernels they have seen before, under any name. *)
  let kids : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let kid_of kernel =
    match cache with
    | None -> -1
    | Some c -> (
      let name = kernel.Bm_ptx.Types.kname in
      match Hashtbl.find_opt kids name with
      | Some kid -> kid
      | None ->
        let kid = Cache.kernel_id c kernel in
        Hashtbl.add kids name kid;
        kid)
  in
  let results : (string, Symeval.result) Hashtbl.t = Hashtbl.create 16 in
  let analyze kernel =
    let name = kernel.Bm_ptx.Types.kname in
    match Hashtbl.find_opt results name with
    | Some r -> r
    | None ->
      let compute () = Prof.with_span prof "analyze" (fun () -> Symeval.analyze kernel) in
      let r =
        match cache with
        | None -> compute ()
        | Some c ->
          let r = Cache.analysis c ~kid:(kid_of kernel) compute in
          (* The cached result may come from an alpha-twin under another
             name; everything but the embedded kernel is identical. *)
          if r.Symeval.kernel == kernel then r else { r with Symeval.kernel }
      in
      Hashtbl.add results name r;
      r
  in
  (* Footprints are cached per (kernel, launch configuration): iterative apps
     relaunch identical configurations hundreds of times. *)
  let fp_cache = Hashtbl.create 64 in
  let footprint spec fl =
    let key = (spec.Command.kernel.Bm_ptx.Types.kname, fl) in
    match Hashtbl.find_opt fp_cache key with
    | Some fp -> fp
    | None ->
      let compute () =
        Prof.with_span prof "footprint" (fun () -> Footprint.of_result (analyze spec.Command.kernel) fl)
      in
      let fp =
        match cache with
        | None -> compute ()
        | Some c -> Cache.footprint c ~kid:(kid_of spec.Command.kernel) ~fl compute
      in
      Hashtbl.add fp_cache key fp;
      fp
  in
  (* Cost profiles (per-TB instruction/memory counts) are the
     seq-independent half of the cost model; the jitter half is applied per
     launch below. *)
  let params = Costmodel.params cfg in
  let profile_memo = Hashtbl.create 64 in
  let profile_of (spec : Command.launch_spec) fl =
    let key = (spec.Command.kernel.Bm_ptx.Types.kname, fl) in
    match Hashtbl.find_opt profile_memo key with
    | Some p -> p
    | None ->
      let compute () =
        Prof.with_span prof "costmodel" (fun () ->
            Costmodel.profile (analyze spec.Command.kernel) fl)
      in
      let p =
        match cache with
        | None -> compute ()
        | Some c -> Cache.profile c ~kid:(kid_of spec.Command.kernel) ~fl compute
      in
      Hashtbl.add profile_memo key p;
      p
  in
  (* Read/write buffer sets per (kernel, launch configuration): computing
     one walks the whole per-TB footprint union, so the L1 memo matters for
     iterative apps (it is called twice per launch).  Buffer ids are only
     meaningful relative to this app's buffer layout, so the cross-call
     tiers key the layout too (Cache.rw). *)
  let rw_memo = Hashtbl.create 64 in
  let rw_of (spec : Command.launch_spec) fl fp =
    let key = (spec.Command.kernel.Bm_ptx.Types.kname, fl) in
    match Hashtbl.find_opt rw_memo key with
    | Some rw -> rw
    | None ->
      let compute () = kernel_rw spec fp in
      let rw =
        match cache with
        | None -> compute ()
        | Some c ->
          let buffers =
            List.map
              (fun (b : Command.buffer) -> (b.Command.buf_id, b.Command.base, b.Command.bytes))
              (Command.buffers_of_args spec)
          in
          Cache.rw c ~kid:(kid_of spec.Command.kernel) ~fl ~buffers compute
      in
      Hashtbl.add rw_memo key rw;
      rw
  in
  (* Producer→consumer results, same two layers.  The pair is determined by
     both kernels and both launch configurations (grids drive the
     Fully_connected sizes), plus the degree cap. *)
  let pair_memo = Hashtbl.create 64 in
  let pair_of (pspec : Command.launch_spec) pfl pfp (spec : Command.launch_spec) cfl fp =
    let key =
      ( pspec.Command.kernel.Bm_ptx.Types.kname,
        pfl,
        spec.Command.kernel.Bm_ptx.Types.kname,
        cfl )
    in
    match Hashtbl.find_opt pair_memo key with
    | Some pr -> pr
    | None ->
      let compute () =
        let relation =
          Prof.with_span prof "relate" (fun () ->
              Bipartite.relate ~max_degree:cfg.Config.max_parent_degree pfp fp)
        in
        let pattern = Pattern.classify relation in
        let sizes =
          Prof.with_span prof "encode" (fun () ->
              Encode.measure_pair
                ~n_parents:(Bm_ptx.Types.dim3_count pspec.Command.grid)
                ~n_children:(Bm_ptx.Types.dim3_count spec.Command.grid)
                relation)
        in
        { Cache.pr_relation = relation; pr_pattern = pattern; pr_sizes = sizes }
      in
      let pr =
        match cache with
        | None -> compute ()
        | Some c ->
          Cache.pair c
            ~pkid:(kid_of pspec.Command.kernel)
            ~pfl
            ~ckid:(kid_of spec.Command.kernel)
            ~cfl ~max_degree:cfg.Config.max_parent_degree compute
      in
      Hashtbl.add pair_memo key pr;
      pr
  in
  (* Reorder (or keep) the command stream. *)
  let original = Array.of_list app.Command.commands in
  let rws =
    Array.map
      (fun c ->
        command_rw c (fun spec ->
            let fl = Command.footprint_launch spec in
            rw_of spec fl (footprint spec fl)))
      original
  in
  let final =
    if reorder then
      Prof.with_span prof "reorder" (fun () ->
          Array.of_list (Reorder.reorder (Array.map2 (fun c rw -> (c, rw)) original rws)))
    else original
  in
  let n = Array.length final in
  (* Walk the final order: build launch infos, H2D gating, D2H gating. *)
  let launches = ref [] in
  let kernel_of_cmd = Array.make n (-1) in
  let d2h_wait = Array.make n None in
  let last_writer : (int, int) Hashtbl.t = Hashtbl.create 16 in  (* buf id -> kernel seq *)
  let pending_h2d : (int, int) Hashtbl.t = Hashtbl.create 16 in  (* buf id -> cmd idx *)
  let seq = ref 0 in
  (* Per-stream predecessor tracking: dependencies are only enforced (and
     in-order completion only required) within a stream. *)
  let stream_prev :
      (int, int * Footprint.kernel_footprints * Command.launch_spec * Footprint.launch) Hashtbl.t =
    Hashtbl.create 4
  in
  Array.iteri
    (fun ci cmd ->
      match cmd with
      | Command.Malloc _ | Command.Device_synchronize -> ()
      | Command.Memcpy_h2d b -> Hashtbl.replace pending_h2d b.Command.buf_id ci
      | Command.Memcpy_d2h b ->
        d2h_wait.(ci) <- Hashtbl.find_opt last_writer b.Command.buf_id
      | Command.Kernel_launch spec ->
        let result = analyze spec.Command.kernel in
        let fl = Command.footprint_launch spec in
        let fp = footprint spec fl in
        let rw = rw_of spec fl fp in
        let prev = Hashtbl.find_opt stream_prev spec.Command.stream in
        let relation, pattern, sizes =
          match prev with
          | None ->
            (Bipartite.Independent, Pattern.classify Bipartite.Independent,
             Encode.measure Bipartite.Independent)
          | Some (_, pfp, pspec, pfl) ->
            let pr = pair_of pspec pfl pfp spec fl fp in
            (pr.Cache.pr_relation, pr.Cache.pr_pattern, pr.Cache.pr_sizes)
        in
        let profile = profile_of spec fl in
        let cost =
          (* The expansion is keyed on the launch sequence number too, so
             it repeats across calls (and across reorder classes that keep
             the launch order), never within one. *)
          let kernel_seq = !seq in
          let compute () =
            Prof.with_span prof "costmodel" (fun () ->
                Costmodel.of_profile params ~kernel_seq profile)
          in
          match cache with
          | None -> compute ()
          | Some c ->
            Cache.cost c ~kid:(kid_of spec.Command.kernel) ~fl ~seq:kernel_seq ~params compute
        in
        let copy_deps =
          List.filter_map (fun buf_id -> Hashtbl.find_opt pending_h2d buf_id) rw.Reorder.reads
        in
        List.iter (fun buf_id -> Hashtbl.replace last_writer buf_id !seq) rw.Reorder.writes;
        kernel_of_cmd.(ci) <- !seq;
        launches :=
          {
            li_seq = !seq;
            li_prev = (match prev with Some (p, _, _, _) -> Some p | None -> None);
            li_spec = spec;
            li_result = result;
            li_fp = fp;
            li_profile = profile;
            li_cost = cost;
            li_tbs = Bm_ptx.Types.dim3_count spec.Command.grid;
            li_relation = relation;
            li_pattern = pattern;
            li_sizes = sizes;
            li_copy_deps = copy_deps;
          }
          :: !launches;
        Hashtbl.replace stream_prev spec.Command.stream (!seq, fp, spec, fl);
        incr seq)
    final;
  {
    p_commands = final;
    p_launches = Array.of_list (List.rev !launches);
    p_kernel_of_cmd = kernel_of_cmd;
    p_d2h_wait = d2h_wait;
  }

let with_relation t ~seq relation =
  let launches =
    Array.map
      (fun li ->
        if li.li_seq <> seq then li
        else
          let pattern = Pattern.classify relation in
          let n_parents = match li.li_prev with Some p -> t.p_launches.(p).li_tbs | None -> 0 in
          let sizes = Encode.measure_pair ~n_parents ~n_children:li.li_tbs relation in
          { li with li_relation = relation; li_pattern = pattern; li_sizes = sizes })
      t.p_launches
  in
  { t with p_launches = launches }
