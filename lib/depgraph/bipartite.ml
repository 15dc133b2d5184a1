module Footprint = Bm_analysis.Footprint
module I = Bm_analysis.Sinterval

type t = {
  n_parents : int;
  n_children : int;
  parents_of : int array array;
  children_of : int array array;
}

type relation =
  | Independent
  | Fully_connected
  | Graph of t

let default_max_degree = 64

let of_edges ~n_parents ~n_children edges =
  let parents_of = Array.make n_children [] in
  let children_of = Array.make n_parents [] in
  List.iter
    (fun (p, c) ->
      if p < 0 || p >= n_parents || c < 0 || c >= n_children then
        invalid_arg "Bipartite.of_edges: node out of range";
      if not (List.mem p parents_of.(c)) then begin
        parents_of.(c) <- p :: parents_of.(c);
        children_of.(p) <- c :: children_of.(p)
      end)
    edges;
  {
    n_parents;
    n_children;
    parents_of = Array.map (fun l -> Array.of_list (List.sort compare l)) parents_of;
    children_of = Array.map (fun l -> Array.of_list (List.sort compare l)) children_of;
  }

exception Degrade_to_full

(* Candidate index over parent write intervals: sorted by interval lo with a
   prefix maximum of hi, so the parents possibly overlapping [l, h] form a
   contiguous prefix of entries with lo <= h, filtered by the running hi. *)
type index = {
  entries : (I.t * int) array;  (* sorted by lo *)
  prefix_max_hi : int array;
}

let build_index (parent_fps : Footprint.t array) =
  let entries = ref [] in
  Array.iteri
    (fun p fp -> List.iter (fun w -> entries := (w, p) :: !entries) fp.Footprint.fwrites)
    parent_fps;
  let entries =
    Array.of_list
      (List.sort (fun ((a : I.t), _) ((b : I.t), _) -> compare a.I.lo b.I.lo) !entries)
  in
  let prefix_max_hi = Array.make (Array.length entries) min_int in
  let running = ref min_int in
  Array.iteri
    (fun i ((w : I.t), _) ->
      running := max !running w.I.hi;
      prefix_max_hi.(i) <- !running)
    entries;
  { entries; prefix_max_hi }

(* All parents whose some write interval intersects [r]. *)
let candidates idx (r : I.t) add =
  let n = Array.length idx.entries in
  (* Binary search: last entry with lo <= r.hi. *)
  let hi_idx =
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      let (w : I.t), _ = idx.entries.(mid) in
      if w.I.lo <= r.I.hi then lo := mid + 1 else hi := mid
    done;
    !lo - 1
  in
  let i = ref hi_idx in
  while !i >= 0 && idx.prefix_max_hi.(!i) >= r.I.lo do
    let w, p = idx.entries.(!i) in
    if I.intersects w r then add p;
    decr i
  done

let relate ?(max_degree = default_max_degree) parent child =
  match (parent, child) with
  | Footprint.Conservative _, _ | _, Footprint.Conservative _ -> Fully_connected
  | Footprint.Per_tb parent_fps, Footprint.Per_tb child_fps -> (
    let n_parents = Array.length parent_fps in
    let n_children = Array.length child_fps in
    let idx = build_index parent_fps in
    let parents_of = Array.make n_children [||] in
    let any_edge = ref false in
    (* [stamp.(p) = c]: parent [p] is already among child [c]'s parents. *)
    let stamp = Array.make n_parents (-1) in
    try
      Array.iteri
        (fun c (fp : Footprint.t) ->
          let ps = ref [] and degree = ref 0 in
          List.iter
            (fun r ->
              candidates idx r (fun p ->
                  if stamp.(p) <> c then begin
                    stamp.(p) <- c;
                    ps := p :: !ps;
                    incr degree;
                    if !degree > max_degree then raise Degrade_to_full
                  end))
            fp.Footprint.freads;
          if !degree > 0 then begin
            any_edge := true;
            parents_of.(c) <- Array.of_list (List.sort Int.compare !ps)
          end)
        child_fps;
      if not !any_edge then Independent
      else begin
        (* Detect the fully-connected case exactly.  Single-parent or
           single-child pairs are kept as graphs: they are 1-to-n / n-to-1,
           not a kernel-level barrier. *)
        let full =
          n_parents > 1 && n_children > 1
          && Array.for_all (fun ps -> Array.length ps = n_parents) parents_of
        in
        if full then Fully_connected
        else begin
          let children_of = Array.make n_parents [] in
          Array.iteri
            (fun c ps -> Array.iter (fun p -> children_of.(p) <- c :: children_of.(p)) ps)
            parents_of;
          Graph
            {
              n_parents;
              n_children;
              parents_of;
              children_of =
                Array.map (fun l -> Array.of_list (List.sort compare l)) children_of;
            }
        end
      end
    with Degrade_to_full -> Fully_connected)

let edge_count rel ~n_parents ~n_children =
  match rel with
  | Independent -> 0
  | Fully_connected -> n_parents * n_children
  | Graph g -> Array.fold_left (fun acc ps -> acc + Array.length ps) 0 g.parents_of

let max_in_degree g = Array.fold_left (fun m ps -> max m (Array.length ps)) 0 g.parents_of
let max_out_degree g = Array.fold_left (fun m cs -> max m (Array.length cs)) 0 g.children_of

let equal a b =
  a.n_parents = b.n_parents && a.n_children = b.n_children && a.parents_of = b.parents_of

let pp_relation ppf = function
  | Independent -> Format.pp_print_string ppf "independent"
  | Fully_connected -> Format.pp_print_string ppf "fully-connected"
  | Graph g ->
    Format.fprintf ppf "graph(%d parents, %d children, %d edges)" g.n_parents g.n_children
      (Array.fold_left (fun acc ps -> acc + Array.length ps) 0 g.parents_of)
