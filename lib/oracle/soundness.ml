module Command = Bm_gpu.Command
module Config = Bm_gpu.Config
module Footprint = Bm_analysis.Footprint
module Dynamic = Bm_analysis.Dynamic
module Bipartite = Bm_depgraph.Bipartite
module Pattern = Bm_depgraph.Pattern
module Prep = Bm_maestro.Prep
module Interp = Bm_ptx.Interp

type pair_report = {
  pr_child_seq : int;
  pr_parent_seq : int;
  pr_pattern : Pattern.t;
  pr_static_edges : int;
  pr_exact_edges : int;
  pr_missing : (int * int) list;
  pr_relate_diff : string option;
}

let pair_sound r = r.pr_missing = []
let pair_ok r = pair_sound r && r.pr_relate_diff = None

let ratio r =
  if r.pr_exact_edges > 0 then float_of_int r.pr_static_edges /. float_of_int r.pr_exact_edges
  else if r.pr_static_edges = 0 then 1.0
  else infinity

(* Does the static relation contain edge (p, c)? *)
let static_has rel (p, c) =
  match rel with
  | Bipartite.Independent -> false
  | Bipartite.Fully_connected -> true
  | Bipartite.Graph g ->
    c < g.Bipartite.n_children
    &&
    let rec from i = i < Bipartite.in_degree g c && (Bipartite.parent g c i = p || from (i + 1)) in
    from 0

(* Naive re-derivation of the static relation from per-TB footprints,
   including the degree cap and the exact fully-connected detection — the
   differential reference for the candidate-indexed Bipartite.relate. *)
let naive_relate ~max_degree parent child =
  match (Footprint.materialize parent, Footprint.materialize child) with
  | Error _, _ | _, Error _ -> Bipartite.Fully_connected
  | Ok pfps, Ok cfps ->
    let n_parents = Array.length pfps and n_children = Array.length cfps in
    let edges = Dynamic.relate_exact ~writes:pfps ~reads:cfps in
    if edges = [] then Bipartite.Independent
    else begin
      let indeg = Array.make n_children 0 in
      List.iter (fun (_, c) -> indeg.(c) <- indeg.(c) + 1) edges;
      if Array.exists (fun d -> d > max_degree) indeg then Bipartite.Fully_connected
      else if
        n_parents > 1 && n_children > 1
        && Array.for_all (fun d -> d = n_parents) indeg
      then Bipartite.Fully_connected
      else Bipartite.Graph (Bipartite.of_edges ~n_parents ~n_children edges)
    end

let relation_equal a b =
  match (a, b) with
  | Bipartite.Independent, Bipartite.Independent -> true
  | Bipartite.Fully_connected, Bipartite.Fully_connected -> true
  | Bipartite.Graph x, Bipartite.Graph y -> Bipartite.equal x y
  | _ -> false

let check_app ?(cfg = Config.titan_x_pascal) ?fuel app =
  let prep = Prep.prepare ~reorder:true cfg app in
  let mem = Interp.memory () in
  (* Execute launches in order against the shared image, collecting the
     exact footprints of each as a side effect of the execution. *)
  let dyn_fp =
    Array.map
      (fun (li : Prep.launch_info) ->
        let launch = Command.footprint_launch li.Prep.li_spec in
        let fp = Dynamic.footprints ?fuel li.Prep.li_spec.Command.kernel launch mem in
        match Footprint.materialize fp with
        | Ok fps -> fps
        | Error _ -> assert false (* Dynamic always returns Per_tb *))
      prep.Prep.p_launches
  in
  Array.to_list prep.Prep.p_launches
  |> List.filter_map (fun (li : Prep.launch_info) ->
         match li.Prep.li_prev with
         | None -> None
         | Some p ->
           let exact =
             Dynamic.relate_exact ~writes:dyn_fp.(p) ~reads:dyn_fp.(li.Prep.li_seq)
           in
           let missing = List.filter (fun e -> not (static_has li.Prep.li_relation e)) exact in
           let n_parents = prep.Prep.p_launches.(p).Prep.li_tbs in
           let relate_diff =
             let naive =
               naive_relate ~max_degree:cfg.Config.max_parent_degree
                 prep.Prep.p_launches.(p).Prep.li_fp li.Prep.li_fp
             in
             if relation_equal naive li.Prep.li_relation then None
             else
               Some
                 (Format.asprintf "indexed relate = %a, naive relate = %a"
                    Bipartite.pp_relation li.Prep.li_relation Bipartite.pp_relation naive)
           in
           Some
             {
               pr_child_seq = li.Prep.li_seq;
               pr_parent_seq = p;
               pr_pattern = li.Prep.li_pattern;
               pr_static_edges =
                 Bipartite.edge_count li.Prep.li_relation ~n_parents ~n_children:li.Prep.li_tbs;
               pr_exact_edges = List.length exact;
               pr_missing = missing;
               pr_relate_diff = relate_diff;
             })

let violations reports = List.filter (fun r -> not (pair_ok r)) reports

let pp_report ppf r =
  Format.fprintf ppf "pair %d->%d [%s]: static %d edges, exact %d (ratio %.2f)%s%s"
    r.pr_parent_seq r.pr_child_seq (Pattern.name r.pr_pattern) r.pr_static_edges r.pr_exact_edges
    (ratio r)
    (if r.pr_missing = [] then ""
     else
       Printf.sprintf ", UNSOUND: %d missing edge(s) e.g. (%d,%d)" (List.length r.pr_missing)
         (fst (List.hd r.pr_missing))
         (snd (List.hd r.pr_missing)))
    (match r.pr_relate_diff with None -> "" | Some d -> ", RELATE MISMATCH: " ^ d)
