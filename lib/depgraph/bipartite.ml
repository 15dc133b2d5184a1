module Footprint = Bm_analysis.Footprint
module I = Bm_analysis.Sinterval

type form =
  | One_to_one
  | One_to_n of { parent_of : int array; kid_off : int array; kids : int array }
  | N_to_one of { child_of : int array; par_off : int array; pars : int array }
  | N_group of {
      group_of_parent : int array;
      group_of_child : int array;
      member_off : int array;
      members : int array;
      gkid_off : int array;
      gkids : int array;
    }
  | Overlapped of { first : int array; len : int array; kid_off : int array; kids : int array }
  | Irregular of { par_off : int array; pars : int array; kid_off : int array; kids : int array }

type t = { n_parents : int; n_children : int; form : form }

type relation =
  | Independent
  | Fully_connected
  | Graph of t

let default_max_degree = 64

(* --- reading edges ------------------------------------------------------ *)

let in_degree g c =
  match g.form with
  | One_to_one | One_to_n _ -> 1
  | N_to_one { par_off; _ } | Irregular { par_off; _ } -> par_off.(c + 1) - par_off.(c)
  | N_group { group_of_child; member_off; _ } ->
    let k = group_of_child.(c) in
    if k < 0 then 0 else member_off.(k + 1) - member_off.(k)
  | Overlapped { len; _ } -> len.(c)

let parent g c i =
  match g.form with
  | One_to_one -> c
  | One_to_n { parent_of; _ } -> parent_of.(c)
  | N_to_one { par_off; pars; _ } | Irregular { par_off; pars; _ } -> pars.(par_off.(c) + i)
  | N_group { group_of_child; member_off; members; _ } ->
    members.(member_off.(group_of_child.(c)) + i)
  | Overlapped { first; _ } -> first.(c) + i

let out_degree g p =
  match g.form with
  | One_to_one -> 1
  | One_to_n { kid_off; _ } | Overlapped { kid_off; _ } | Irregular { kid_off; _ } ->
    kid_off.(p + 1) - kid_off.(p)
  | N_to_one { child_of; _ } -> if child_of.(p) < 0 then 0 else 1
  | N_group { group_of_parent; gkid_off; _ } ->
    let k = group_of_parent.(p) in
    if k < 0 then 0 else gkid_off.(k + 1) - gkid_off.(k)

let iter_children g p f x =
  match g.form with
  | One_to_one -> f x p
  | N_to_one { child_of; _ } -> if child_of.(p) >= 0 then f x child_of.(p)
  | One_to_n { kid_off; kids; _ } | Overlapped { kid_off; kids; _ } | Irregular { kid_off; kids; _ }
    ->
    for i = kid_off.(p) to kid_off.(p + 1) - 1 do
      f x kids.(i)
    done
  | N_group { group_of_parent; gkid_off; gkids; _ } ->
    let k = group_of_parent.(p) in
    if k >= 0 then
      for i = gkid_off.(k) to gkid_off.(k + 1) - 1 do
        f x gkids.(i)
      done

let in_degrees g =
  match g.form with
  | One_to_one | One_to_n _ -> Array.make g.n_children 1
  | Overlapped { len; _ } -> Array.copy len
  | N_to_one _ | Irregular _ | N_group _ ->
    let d = Array.make g.n_children 0 in
    for c = 0 to g.n_children - 1 do
      d.(c) <- in_degree g c
    done;
    d

let edges g =
  let e = ref 0 in
  for c = 0 to g.n_children - 1 do
    e := !e + in_degree g c
  done;
  !e

let edge_count rel ~n_parents ~n_children =
  match rel with
  | Independent -> 0
  | Fully_connected -> n_parents * n_children
  | Graph g -> edges g

let max_in_degree g =
  let m = ref 0 in
  for c = 0 to g.n_children - 1 do
    m := max !m (in_degree g c)
  done;
  !m

(* Canonical forms of one edge set are equal values, so the physical test
   settles the common case; otherwise child by child, through the
   accessors, so a window row can be held against a listed one. *)
let equal a b =
  a.n_parents = b.n_parents
  && a.n_children = b.n_children
  && (a.form == b.form
     ||
     let same = ref true and c = ref 0 in
     while !same && !c < a.n_children do
       let d = in_degree a !c in
       if d <> in_degree b !c then same := false
       else
         for i = 0 to d - 1 do
           if parent a !c i <> parent b !c i then same := false
         done;
       incr c
     done;
     !same)

let pp_relation ppf = function
  | Independent -> Format.pp_print_string ppf "independent"
  | Fully_connected -> Format.pp_print_string ppf "fully-connected"
  | Graph g ->
    Format.fprintf ppf "graph(%d parents, %d children, %d edges)" g.n_parents g.n_children (edges g)

(* --- the canonical form ------------------------------------------------- *)

type rows = { r_parents : int; r_offsets : int array; r_targets : int array }

(* A counting sort into [n] buckets: [each f] calls [f k v] for every value
   [v] of bucket [k], in ascending [v].  Returns offsets and values. *)
let bucket n each =
  let off = Array.make (n + 1) 0 in
  each (fun k _ -> off.(k + 1) <- off.(k + 1) + 1);
  for k = 1 to n do
    off.(k) <- off.(k) + off.(k - 1)
  done;
  let out = Array.make off.(n) 0 and fill = Array.sub off 0 n in
  each (fun k v ->
      out.(fill.(k)) <- v;
      fill.(k) <- fill.(k) + 1);
  (off, out)

(* For [bucket]: index [i] into bucket [key.(i)] unless that is negative. *)
let by_key key f = Array.iteri (fun i k -> if k >= 0 then f k i) key

(* Each parent's children from each child's parents. *)
let transpose ~np off tgt =
  bucket np (fun f ->
      for c = 0 to Array.length off - 2 do
        for i = off.(c) to off.(c + 1) - 1 do
          f tgt.(i) c
        done
      done)

(* The n-group form, if the rows have it: every parent's children share one
   row.  Row [c] is [at (start c) .. at (start c + size c - 1)].  Children
   are visited in order; a row whose first parent has no group yet opens
   one (none of its parents may have one), and any other row must equal
   its first parent's group row.  Linear in the edges. *)
let n_group ~np ~nc ~start ~size ~at =
  let group_of_parent = Array.make np (-1) and group_of_child = Array.make nc (-1) in
  let rep = Array.make nc 0 in  (* group -> its first child *)
  let groups = ref 0 and ok = ref true and c = ref 0 in
  while !ok && !c < nc do
    let a = start !c and l = size !c in
    if l > 0 then begin
      let k = group_of_parent.(at a) in
      if k < 0 then begin
        for i = a to a + l - 1 do
          if group_of_parent.(at i) >= 0 then ok := false;
          group_of_parent.(at i) <- !groups
        done;
        rep.(!groups) <- !c;
        group_of_child.(!c) <- !groups;
        incr groups
      end
      else begin
        let ra = start rep.(k) in
        if size rep.(k) <> l then ok := false
        else
          for i = 0 to l - 1 do
            if at (a + i) <> at (ra + i) then ok := false
          done;
        group_of_child.(!c) <- k
      end
    end;
    incr c
  done;
  if not (!ok && !groups > 0) then None
  else
    let member_off, members = bucket !groups (by_key group_of_parent) in
    let gkid_off, gkids = bucket !groups (by_key group_of_child) in
    Some (N_group { group_of_parent; group_of_child; member_off; members; gkid_off; gkids })

(* One pass checks the rows and gathers what the choice needs; the form is
   the first of Table I's cases, in the classifier's order, that the edges
   fit.  The 1-to-n, n-to-1 and irregular forms keep [tgt] itself. *)
let of_rows { r_parents = np; r_offsets = off; r_targets = tgt } =
  let nc = Array.length off - 1 in
  let outdeg = Array.make np 0 in
  let identity = ref (np = nc) and all_one = ref true in
  let contiguous = ref true and max_in = ref 0 in
  for c = 0 to nc - 1 do
    let a = off.(c) and b = off.(c + 1) in
    if b - a <> 1 then all_one := false else if tgt.(a) <> c then identity := false;
    max_in := max !max_in (b - a);
    if b > a && tgt.(b - 1) - tgt.(a) <> b - a - 1 then contiguous := false;
    for i = a to b - 1 do
      let p = tgt.(i) in
      if p < 0 || p >= np || (i > a && p <= tgt.(i - 1)) then
        invalid_arg "Bipartite.of_rows: a row is not ascending within the parents";
      outdeg.(p) <- outdeg.(p) + 1
    done
  done;
  let max_out = Array.fold_left max 0 outdeg in
  let form =
    if !identity && !all_one then One_to_one
    else if !all_one then
      let kid_off, kids = transpose ~np off tgt in
      One_to_n { parent_of = tgt; kid_off; kids }
    else if max_out <= 1 && !max_in > 1 then begin
      let child_of = Array.make np (-1) in
      for c = 0 to nc - 1 do
        for i = off.(c) to off.(c + 1) - 1 do
          child_of.(tgt.(i)) <- c
        done
      done;
      N_to_one { child_of; par_off = off; pars = tgt }
    end
    else
      match
        n_group ~np ~nc ~start:(Array.get off) ~size:(fun c -> off.(c + 1) - off.(c)) ~at:(Array.get tgt)
      with
      | Some form -> form
      | None ->
        let kid_off, kids = transpose ~np off tgt in
        if !contiguous && max_out > 1 then
          let len = Array.init nc (fun c -> off.(c + 1) - off.(c)) in
          let first = Array.init nc (fun c -> if len.(c) > 0 then tgt.(off.(c)) else 0) in
          Overlapped { first; len; kid_off; kids }
        else Irregular { par_off = off; pars = tgt; kid_off; kids }
  in
  { n_parents = np; n_children = nc; form }

let out_of_range what = invalid_arg ("Bipartite." ^ what ^ ": node out of range")
let below what bound = Array.iter (fun k -> if k >= bound then out_of_range what)

let of_edges ~n_parents ~n_children edges =
  List.iter
    (fun (p, c) -> if p < 0 || p >= n_parents || c < 0 || c >= n_children then out_of_range "of_edges")
    edges;
  let sorted = List.sort_uniq compare (List.rev_map (fun (p, c) -> (c, p)) edges) in
  let r_offsets, r_targets = bucket n_children (fun f -> List.iter (fun (c, p) -> f c p) sorted) in
  of_rows { r_parents = n_parents; r_offsets; r_targets }

(* Payload builders take the form a payload states when it is already
   canonical (what capture writes), without the rows [of_rows] would
   classify, and fall back to [of_rows] otherwise. *)
let of_parent_of ~n_parents parent_of =
  let nc = Array.length parent_of in
  Array.iter (fun p -> if p < 0 || p >= n_parents then out_of_range "of_parent_of") parent_of;
  let identity = ref (n_parents = nc) in
  Array.iteri (fun c p -> if p <> c then identity := false) parent_of;
  let form =
    if !identity then One_to_one
    else
      let kid_off, kids = bucket n_parents (by_key parent_of) in
      One_to_n { parent_of; kid_off; kids }
  in
  { n_parents; n_children = nc; form }

let of_child_of ~n_children child_of =
  below "of_child_of" n_children child_of;
  let np = Array.length child_of in
  (* Each child's parents by a counting sort that fills each bucket from
     its end: [par_off.(c)] counts down from the end of child [c]'s
     parents to their start. *)
  let par_off = Array.make (n_children + 1) 0 in
  Array.iter (fun c -> if c >= 0 then par_off.(c) <- par_off.(c) + 1) child_of;
  let max_in = Array.fold_left max 0 par_off in
  if max_in <= 1 || Array.exists (fun c -> c < -1) child_of then begin
    let r_offsets, r_targets = bucket n_children (by_key child_of) in
    of_rows { r_parents = np; r_offsets; r_targets }
  end
  else begin
    for c = 1 to n_children - 1 do
      par_off.(c) <- par_off.(c) + par_off.(c - 1)
    done;
    par_off.(n_children) <- par_off.(n_children - 1);
    let pars = Array.make par_off.(n_children) 0 in
    for p = np - 1 downto 0 do
      let c = child_of.(p) in
      if c >= 0 then begin
        par_off.(c) <- par_off.(c) - 1;
        pars.(par_off.(c)) <- p
      end
    done;
    { n_parents = np; n_children; form = N_to_one { child_of; par_off; pars } }
  end

(* The n-group form is canonical when groups are numbered by first child,
   every group has parents and children, and no earlier case fits: not
   every child has one parent, and not (every parent one child and some
   child several parents). *)
let canonical_groups ~group_of_parent ~group_of_child =
  let groups = ref 0 and ok = ref true in
  Array.iter
    (fun k ->
      if k < -1 || k > !groups then ok := false else if k = !groups then incr groups)
    group_of_child;
  Array.iter (fun k -> if k < -1 || k >= !groups then ok := false) group_of_parent;
  if not (!ok && !groups > 0) then None
  else
    let member_off, members = bucket !groups (by_key group_of_parent) in
    let gkid_off, gkids = bucket !groups (by_key group_of_child) in
    let size off k = off.(k + 1) - off.(k) in
    let max_in = ref 0 and max_out = ref 0 in
    for k = 0 to !groups - 1 do
      if size member_off k = 0 then ok := false;
      max_in := max !max_in (size member_off k);
      max_out := max !max_out (size gkid_off k)
    done;
    let all_one = Array.for_all (fun k -> k >= 0 && size member_off k = 1) group_of_child in
    if !ok && (not all_one) && not (!max_out <= 1 && !max_in > 1) then
      Some (N_group { group_of_parent; group_of_child; member_off; members; gkid_off; gkids })
    else None

let of_groups ~group_of_parent ~group_of_child =
  let nc = Array.length group_of_child in
  below "of_groups" nc group_of_parent;
  below "of_groups" nc group_of_child;
  match canonical_groups ~group_of_parent ~group_of_child with
  | Some form -> { n_parents = Array.length group_of_parent; n_children = nc; form }
  | None ->
    let moff, members = bucket nc (by_key group_of_parent) in
    let rows f =
      by_key group_of_child (fun k c ->
          for i = moff.(k) to moff.(k + 1) - 1 do
            f c members.(i)
          done)
    in
    let r_offsets, r_targets = bucket nc rows in
    of_rows { r_parents = Array.length group_of_parent; r_offsets; r_targets }

(* Windowed rows classified off the windows, in [of_rows]' order, by
   checks over children and parents; only the chosen form's lists are
   filled, each in one sequential pass.  Nonempty windows that are
   pairwise equal or disjoint are n-to-1 or n-group, so once both fail
   some parent has two children and the form is overlapped, unless there
   is no edge at all. *)
let of_windows ~n_parents:np ~first ~len =
  let nc = Array.length len in
  if Array.length first <> nc then invalid_arg "Bipartite.of_windows: first and len differ in length";
  let identity = ref (np = nc) and all_one = ref true and max_in = ref 0 and edges = ref 0 in
  for c = 0 to nc - 1 do
    let f = first.(c) and l = len.(c) in
    if l < 0 || (l > 0 && (f < 0 || f > np - l)) then out_of_range "of_windows";
    if l = 0 then first.(c) <- 0;
    if l <> 1 then all_one := false else if f <> c then identity := false;
    max_in := Int.max !max_in l;
    edges := !edges + l
  done;
  let form =
    if !identity && !all_one then One_to_one
    else begin
      (* Each parent's out-degree: the windows' difference array, summed
         into the end of each parent's children, which [kids] fills
         backwards, so [kid_off] ends up holding their starts. *)
      let kid_off = Array.make (np + 1) 0 in
      for c = 0 to nc - 1 do
        if len.(c) > 0 then begin
          let f = first.(c) in
          kid_off.(f) <- kid_off.(f) + 1;
          kid_off.(f + len.(c)) <- kid_off.(f + len.(c)) - 1
        end
      done;
      let deg = ref 0 and at = ref 0 and max_out = ref 0 in
      for p = 0 to np - 1 do
        deg := !deg + kid_off.(p);
        at := !at + !deg;
        kid_off.(p) <- !at;
        max_out := Int.max !max_out !deg
      done;
      kid_off.(np) <- !at;
      let kids () =
        let kids = Array.make !edges 0 in
        for c = nc - 1 downto 0 do
          for p = first.(c) to first.(c) + len.(c) - 1 do
            kid_off.(p) <- kid_off.(p) - 1;
            kids.(kid_off.(p)) <- c
          done
        done;
        kids
      in
      if !all_one then One_to_n { parent_of = first; kid_off; kids = kids () }
      else if !max_out <= 1 && !max_in > 1 then begin
        let child_of = Array.make np (-1) and par_off = Array.make (nc + 1) 0 in
        let pars = Array.make !edges 0 in
        for c = 0 to nc - 1 do
          let a = par_off.(c) in
          for i = 0 to len.(c) - 1 do
            pars.(a + i) <- first.(c) + i;
            child_of.(first.(c) + i) <- c
          done;
          par_off.(c + 1) <- a + len.(c)
        done;
        N_to_one { child_of; par_off; pars }
      end
      else
        match n_group ~np ~nc ~start:(Array.get first) ~size:(Array.get len) ~at:Fun.id with
        | Some form -> form
        | None when !edges > 0 -> Overlapped { first; len; kid_off; kids = kids () }
        | None -> Irregular { par_off = Array.make (nc + 1) 0; pars = [||]; kid_off; kids = [||] }
    end
  in
  { n_parents = np; n_children = nc; form }

(* --- confirming edges from footprints ----------------------------------- *)

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
   for [m < 0].  A plain shift ([d = 1], [m = +-1]) skips the division by
   [m]. *)
let endpoint_bound ~k ~d ~m ~rem ~off bound =
  if d = 1 && m = 1 then p_bound k (bound - off - rem) ~le:true
  else if d = 1 && m = -1 then p_bound k (off - bound - rem) ~le:false
  else if m > 0 then p_bound k ((((fdiv (bound - off) m) + 1) * d) - 1 - rem) ~le:true
  else p_bound k ((cdiv (bound - off) m * d) - rem) ~le:false

(* The parents [p < n] whose write [w] at [p] has its low end at most [r_hi]
   and its high end at least [r_lo] (the second as [-hi p <= -r_lo]): both
   ends are monotone in [p], so they form the one range [parent_lo ..
   parent_hi], empty when [parent_lo > parent_hi]. *)
let below (w : Footprint.affine) r_hi =
  endpoint_bound ~k:w.Footprint.coef ~d:w.Footprint.den ~m:w.Footprint.scale ~rem:w.Footprint.lo_rem
    ~off:w.Footprint.base.I.lo r_hi

let above (w : Footprint.affine) r_lo =
  endpoint_bound ~k:w.Footprint.coef ~d:w.Footprint.den ~m:(-w.Footprint.scale)
    ~rem:w.Footprint.hi_rem ~off:(-w.Footprint.base.I.hi) (-r_lo)

let parent_lo (w : Footprint.affine) r_lo r_hi =
  let k = w.Footprint.coef and b = w.Footprint.base in
  if k = 0 then if b.I.lo <= r_hi && b.I.hi >= r_lo then 0 else max_int
  else Int.max 0 (if w.Footprint.scale * k > 0 then above w r_lo else below w r_hi)

let parent_hi ~n (w : Footprint.affine) r_lo r_hi =
  let k = w.Footprint.coef in
  if k = 0 then n - 1 else Int.min (n - 1) (if w.Footprint.scale * k > 0 then below w r_hi else above w r_lo)

(* The parents [p < n] whose write [w] at [p] intersects the child read
   [shift rb d]: the range [parent_lo .. parent_hi], where a candidate is
   confirmed with [meets] unless both strides are at most 1, where overlap
   is intersection.  The test shifts the write by [-d] rather than the
   read by [d], so nothing is allocated.  [add_range] takes a confirmed
   range whole. *)
let affine_parents ~n (w : Footprint.affine) (rb : I.t) d ~add_range ~add =
  let r_lo = rb.I.lo + d and r_hi = rb.I.hi + d in
  let lo = parent_lo w r_lo r_hi and hi = parent_hi ~n w r_lo r_hi in
  let b = w.Footprint.base in
  let stride = b.I.stride in
  if lo <= hi then
    if stride <= 1 && rb.I.stride <= 1 then add_range lo hi
    else if w.Footprint.coef = 0 then
      (if I.meets ~lo:(b.I.lo - d) ~hi:(b.I.hi - d) ~stride rb then add_range lo hi)
    else
      for p = lo to hi do
        if I.meets ~lo:(Footprint.lo_at w p - d) ~hi:(Footprint.hi_at w p - d) ~stride rb then add p
      done

(* Sort [buf.(0 .. n - 1)] in place.  Parents arrive ascending from the
   closed-form ranges and descending from the index scan, so a descending
   run is reversed first and the insertion sort is then linear. *)
let sort_prefix buf n =
  let desc = ref true in
  for i = 1 to n - 1 do
    if buf.(i) > buf.(i - 1) then desc := false
  done;
  if !desc then
    for i = 0 to (n / 2) - 1 do
      let x = buf.(i) in
      buf.(i) <- buf.(n - 1 - i);
      buf.(n - 1 - i) <- x
    done
  else
    for i = 1 to n - 1 do
      let x = buf.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && buf.(!j) > x do
        buf.(!j + 1) <- buf.(!j);
        decr j
      done;
      buf.(!j + 1) <- x
    done

(* Each child's reads meet the parent's affine writes in closed form
   ([affine_parents]) and the parent's listed TBs through the index; a
   per-TB side is all listed, so two per-TB sides take the index alone.
   The degree cap is checked on each confirmed range's length first, so an
   over-cap child raises [Degrade_to_full] in O(1).  Each child's parents
   are sorted in [buf] and appended to one growing target buffer. *)
let confirm_sides ~max_degree ps cs =
  let n_parents = ps.tbs and n_children = cs.tbs in
  let idx = build_index ps.tail in
  let off = Array.make (n_children + 1) 0 in
  let tgt = ref (Array.make (max 1 n_children) 0) and edges = ref 0 in
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
    let d = !degree in
    if d > 0 then begin
      sort_prefix buf d;
      if !edges + d > Array.length !tgt then begin
        let grown = Array.make (max (!edges + d) (2 * Array.length !tgt)) 0 in
        Array.blit !tgt 0 grown 0 !edges;
        tgt := grown
      end;
      Array.blit buf 0 !tgt !edges d;
      edges := !edges + d
    end;
    off.(c + 1) <- !edges
  done;
  let targets = if Array.length !tgt = !edges then !tgt else Array.sub !tgt 0 !edges in
  { r_parents = n_parents; r_offsets = off; r_targets = targets }

type confirmed =
  | Rows of rows
  | Windows of { w_parents : int; first : int array; len : int array }

(* The windows' reach: every access has stride at most 1, so overlap is
   intersection, and the parent lists few enough writes that each child
   can meet them one by one. *)
let max_listed_writes = 8

let plain (a : Footprint.affine) = a.Footprint.base.I.stride <= 1
let flat (r : I.t) = r.I.stride <= 1

let rec meets_any r_lo r_hi = function
  | [] -> false
  | (w : I.t) :: ws -> (w.I.lo <= r_hi && w.I.hi >= r_lo) || meets_any r_lo r_hi ws

(* Each child's parents as one window, read off the accesses: each child
   read [r_lo, r_hi] meets each affine write in the range [parent_lo ..
   parent_hi] and each listed parent write in its TB or nothing, so a
   child costs a few divisions per read and write and no edge is visited.
   The ranges are sorted by start in [los]/[his] and must chain into one
   window.  [Exit] when a pair is out of reach or a child's ranges leave
   a gap; a window over [max_degree] degrades at once, and child 0 is
   read before anything of the pair's size is allocated, so a pair over
   the cap everywhere degrades in O(1). *)
let confirm_windows ~max_degree ps cs =
  let listed = Array.fold_left (fun m fp -> m + List.length fp.Footprint.fwrites) 0 ps.tail in
  if
    listed > max_listed_writes
    || not
         (Array.for_all plain ps.accs
         && Array.for_all plain cs.accs
         && Array.for_all (fun fp -> List.for_all flat fp.Footprint.fwrites) ps.tail
         && Array.for_all (fun fp -> List.for_all flat fp.Footprint.freads) cs.tail)
  then raise Exit;
  let n = ps.affine in
  let tail_reads = Array.fold_left (fun m fp -> Int.max m (List.length fp.Footprint.freads)) 0 cs.tail in
  let ranges = Int.max 1 (Int.max (Array.length cs.accs) tail_reads * (Array.length ps.accs + listed)) in
  let los = Array.make ranges 0 and his = Array.make ranges 0 and m = ref 0 in
  let add lo hi =
    if lo <= hi then begin
      let x = ref !m in
      while !x > 0 && los.(!x - 1) > lo do
        los.(!x) <- los.(!x - 1);
        his.(!x) <- his.(!x - 1);
        decr x
      done;
      los.(!x) <- lo;
      his.(!x) <- hi;
      incr m
    end
  in
  let read r_lo r_hi =
    for i = 0 to Array.length ps.accs - 1 do
      let w = ps.accs.(i) in
      add (parent_lo w r_lo r_hi) (parent_hi ~n w r_lo r_hi)
    done;
    for t = 0 to Array.length ps.tail - 1 do
      if meets_any r_lo r_hi ps.tail.(t).Footprint.fwrites then add (n + t) (n + t)
    done
  in
  let read_listed (r : I.t) = read r.I.lo r.I.hi in
  let w_lo = ref 0 and w_len = ref 0 in
  let window c =
    m := 0;
    if c < cs.affine then
      for j = 0 to Array.length cs.accs - 1 do
        let r = cs.accs.(j) in
        if r.Footprint.den = 1 then
          let shift = r.Footprint.coef * c in
          read (r.Footprint.base.I.lo + shift) (r.Footprint.base.I.hi + shift)
        else read (Footprint.lo_at r c) (Footprint.hi_at r c)
      done
    else List.iter read_listed cs.tail.(c - cs.affine).Footprint.freads;
    let hi = ref (if !m > 0 then his.(0) else -1) in
    for x = 1 to !m - 1 do
      if los.(x) > !hi + 1 then raise Exit;
      hi := Int.max !hi his.(x)
    done;
    w_lo := if !m > 0 then los.(0) else 0;
    w_len := !hi - !w_lo + 1;
    if !w_len > max_degree then raise Degrade_to_full
  in
  window 0;
  let first = Array.make cs.tbs !w_lo and len = Array.make cs.tbs !w_len in
  for c = 1 to cs.tbs - 1 do
    window c;
    first.(c) <- !w_lo;
    len.(c) <- !w_len
  done;
  Windows { w_parents = ps.tbs; first; len }

(* Both sides, or [None] for a conservative one, and [None] for a pair
   that degrades. *)
let with_sides parent child f =
  match (parent, child) with
  | Footprint.Conservative _, _ | _, Footprint.Conservative _ -> None
  | (Footprint.Per_tb _ | Footprint.Summary _), (Footprint.Per_tb _ | Footprint.Summary _) -> (
    try Some (f (side ~writes:true parent) (side ~writes:false child)) with Degrade_to_full -> None)

let confirm_rows ?(max_degree = default_max_degree) parent child =
  with_sides parent child (confirm_sides ~max_degree)

let confirm ?(max_degree = default_max_degree) parent child =
  with_sides parent child (fun ps cs ->
      try confirm_windows ~max_degree ps cs with Exit -> Rows (confirm_sides ~max_degree ps cs))

(* No edge is independent, and every child having every parent of a
   multi-parent, multi-child pair is fully connected. *)
let relation_of = function
  | None -> Fully_connected
  | Some confirmed ->
    let np, nc, e =
      match confirmed with
      | Rows r -> (r.r_parents, Array.length r.r_offsets - 1, Array.length r.r_targets)
      | Windows { w_parents; len; _ } -> (w_parents, Array.length len, Array.fold_left ( + ) 0 len)
    in
    if e = 0 then Independent
    else if np > 1 && nc > 1 && e = np * nc then Fully_connected
    else
      match confirmed with
      | Rows r -> Graph (of_rows r)
      | Windows { w_parents; first; len } -> Graph (of_windows ~n_parents:w_parents ~first ~len)

let relate ?max_degree parent child = relation_of (confirm ?max_degree parent child)
