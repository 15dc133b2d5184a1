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
  let n = Array.fold_left (fun acc fp -> acc + List.length fp.Footprint.fwrites) 0 parent_fps in
  let entries = Array.make n (I.singleton 0, 0) in
  let k = ref 0 in
  Array.iteri
    (fun p fp ->
      List.iter
        (fun w ->
          entries.(!k) <- (w, p);
          incr k)
        fp.Footprint.fwrites)
    parent_fps;
  (* The candidate scan visits the same set whatever the order among equal
     [lo]s, so an unstable in-place sort will do; per-TB writes of a kernel
     usually come in address order already. *)
  let lo i = (fst entries.(i)).I.lo in
  let sorted = ref true in
  for i = 1 to n - 1 do
    if lo (i - 1) > lo i then sorted := false
  done;
  if not !sorted then
    Array.sort (fun ((a : I.t), _) ((b : I.t), _) -> Int.compare a.I.lo b.I.lo) entries;
  let prefix_max_hi = Array.make n min_int in
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

(* From each child's sorted parent ids to the relation.  Single-parent or
   single-child pairs are kept as graphs: they are 1-to-n / n-to-1, not a
   kernel-level barrier, so only a multi-parent, multi-child pair where
   every child has every parent is [Fully_connected].  [children_of] is
   filled by one counting pass and one pass over the children in order,
   so each of its rows comes out sorted. *)
let assemble ~n_parents ~n_children parents_of =
  if Array.for_all (fun ps -> Array.length ps = 0) parents_of then Independent
  else if
    n_parents > 1 && n_children > 1
    && Array.for_all (fun ps -> Array.length ps = n_parents) parents_of
  then Fully_connected
  else begin
    let count = Array.make n_parents 0 in
    Array.iter (Array.iter (fun p -> count.(p) <- count.(p) + 1)) parents_of;
    let children_of = Array.map (fun k -> Array.make k 0) count in
    Array.fill count 0 n_parents 0;
    Array.iteri
      (fun c ps ->
        Array.iter
          (fun p ->
            children_of.(p).(count.(p)) <- c;
            count.(p) <- count.(p) + 1)
          ps)
      parents_of;
    Graph { n_parents; n_children; parents_of; children_of }
  end

(* Floor and ceiling of [a / b], [b <> 0]. *)
let fdiv a b =
  let q = a / b in
  if a mod b <> 0 && a < 0 <> (b < 0) then q - 1 else q

let cdiv a b =
  let q = a / b in
  if a mod b <> 0 && a < 0 = (b < 0) then q + 1 else q

(* One side of a pair in summary form: TBs [0, affine) follow [accs] (the
   parent's writes, the child's reads) and the rest are listed in [tail].
   A per-TB side is all tail. *)
type side = {
  tbs : int;
  affine : int;
  accs : Footprint.affine array;
  tail : Footprint.t array;
}

let side ~writes = function
  | Footprint.Summary s ->
    {
      tbs = s.Footprint.s_tbs;
      affine = s.Footprint.s_affine;
      accs = (if writes then s.Footprint.s_writes else s.Footprint.s_reads);
      tail = s.Footprint.s_tail;
    }
  | Footprint.Per_tb fps -> { tbs = Array.length fps; affine = 0; accs = [||]; tail = fps }
  | Footprint.Conservative _ -> invalid_arg "Bipartite.side: conservative"

(* The bound [k * p <= y] ([le]) or [k * p >= y] puts on an integer [p],
   [k <> 0]: an upper one when [k > 0 = le], else a lower one. *)
let p_bound k y ~le = if (k > 0) = le then fdiv y k else cdiv y k

(* The bound on a TB [p] that [off + m * floor ((rem + k * p) / d) <= bound]
   puts ([m <> 0], [k <> 0]; upper when [m * k > 0]): the floor term is at
   most [u = floor ((bound - off) / m)] for [m > 0], which bounds the
   numerator by [(u + 1) * d - 1], or at least [ceil ((bound - off) / m)]
   for [m < 0]. *)
let endpoint_bound ~k ~d ~m ~rem ~off bound =
  if m > 0 then p_bound k ((((fdiv (bound - off) m) + 1) * d) - 1 - rem) ~le:true
  else p_bound k ((cdiv (bound - off) m * d) - rem) ~le:false

(* The parents [p < n] whose write [w] at [p] intersects the child read
   [shift rb d].  Both endpoints of [w] are monotone in [p], so overlapping
   ranges ([lo p <= r.hi] and [hi p >= r.lo], the second as [-hi p <=
   -r.lo]) bound [p] to one integer range; a candidate is confirmed with
   [intersects] unless both strides are at most 1, where overlap is
   intersection.  [add_range] takes a confirmed range whole. *)
let affine_parents ~n (w : Footprint.affine) (rb : I.t) d ~add_range ~add =
  let b = w.Footprint.base and k = w.Footprint.coef in
  let r_lo = rb.I.lo + d and r_hi = rb.I.hi + d in
  let lo, hi =
    if k = 0 then if b.I.lo <= r_hi && b.I.hi >= r_lo then (0, n - 1) else (0, -1)
    else
      let den = w.Footprint.den and m = w.Footprint.scale in
      let below = endpoint_bound ~k ~d:den ~m ~rem:w.Footprint.lo_rem ~off:b.I.lo r_hi in
      let above =
        endpoint_bound ~k ~d:den ~m:(-m) ~rem:w.Footprint.hi_rem ~off:(-b.I.hi) (-r_lo)
      in
      if m * k > 0 then (above, below) else (below, above)
  in
  let lo = max lo 0 and hi = min hi (n - 1) in
  if lo <= hi then
    if b.I.stride <= 1 && rb.I.stride <= 1 then add_range lo hi
    else
      let r = I.shift rb d in
      if k = 0 then (if I.intersects b r then add_range lo hi)
      else
        for p = lo to hi do
          if I.intersects (Footprint.at w p) r then add p
        done

(* Each child's reads meet the parent's affine writes in closed form
   ([affine_parents]) and the parent's listed TBs through the index; a
   per-TB side is all listed, so two per-TB sides take the index alone.
   The degree cap is checked on each confirmed range's length first, so an
   over-cap child degrades in O(1). *)
let relate_sides ~max_degree parent child =
  let ps = side ~writes:true parent and cs = side ~writes:false child in
  let n_parents = ps.tbs and n_children = cs.tbs in
  let idx = build_index ps.tail in
  let parents_of = Array.make n_children [||] in
  (* Child [!child]'s parents so far: [buf.(0 .. !degree - 1)], each
     stamped with the child's id. *)
  let stamp = Array.make n_parents (-1) in
  let buf = Array.make (max 1 (min max_degree n_parents)) 0 in
  let child = ref 0 and degree = ref 0 in
  let add p =
    if stamp.(p) <> !child then begin
      stamp.(p) <- !child;
      if !degree >= max_degree then raise Degrade_to_full;
      buf.(!degree) <- p;
      incr degree
    end
  in
  let add_range lo hi =
    if hi - lo + 1 > max_degree then raise Degrade_to_full;
    for p = lo to hi do
      add p
    done
  in
  let add_tail i = add (ps.affine + i) in
  (* The child read [shift rb d]. *)
  let read rb d =
    for j = 0 to Array.length ps.accs - 1 do
      affine_parents ~n:ps.affine ps.accs.(j) rb d ~add_range ~add
    done;
    if Array.length ps.tail > 0 then candidates idx (I.shift rb d) add_tail
  in
  try
    for c = 0 to n_children - 1 do
      child := c;
      degree := 0;
      if c < cs.affine then
        for j = 0 to Array.length cs.accs - 1 do
          (* [at] of a plain shift, without building the interval. *)
          let a = cs.accs.(j) in
          if a.Footprint.den = 1 then read a.Footprint.base (a.Footprint.coef * c)
          else read (Footprint.at a c) 0
        done
      else List.iter (fun r -> read r 0) cs.tail.(c - cs.affine).Footprint.freads;
      if !degree > 0 then begin
        let ps = Array.sub buf 0 !degree in
        Array.sort Int.compare ps;
        parents_of.(c) <- ps
      end
    done;
    assemble ~n_parents ~n_children parents_of
  with Degrade_to_full -> Fully_connected

let relate ?(max_degree = default_max_degree) parent child =
  match (parent, child) with
  | Footprint.Conservative _, _ | _, Footprint.Conservative _ -> Fully_connected
  | (Footprint.Per_tb _ | Footprint.Summary _), (Footprint.Per_tb _ | Footprint.Summary _) ->
    relate_sides ~max_degree parent child

let edge_count rel ~n_parents ~n_children =
  match rel with
  | Independent -> 0
  | Fully_connected -> n_parents * n_children
  | Graph g -> Array.fold_left (fun acc ps -> acc + Array.length ps) 0 g.parents_of

let max_in_degree g = Array.fold_left (fun m ps -> max m (Array.length ps)) 0 g.parents_of

let equal a b =
  a.n_parents = b.n_parents && a.n_children = b.n_children && a.parents_of = b.parents_of

let pp_relation ppf = function
  | Independent -> Format.pp_print_string ppf "independent"
  | Fully_connected -> Format.pp_print_string ppf "fully-connected"
  | Graph g ->
    Format.fprintf ppf "graph(%d parents, %d children, %d edges)" g.n_parents g.n_children
      (Array.fold_left (fun acc ps -> acc + Array.length ps) 0 g.parents_of)
