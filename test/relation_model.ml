(* The reference for Bipartite's Table I forms: a graph as two arrays of
   sorted rows, classified by scanning the rows and encoded into the
   format-3 relation payload, as the library did before a relation
   carried its form.  Tests hold Bipartite's forms, accessors, sizes and
   JSON payloads against it. *)

open Bm_depgraph
module Json = Bm_metrics.Json
module Jsonc = Bm_maestro.Jsonc

type graph = {
  n_parents : int;
  n_children : int;
  parents_of : int array array;  (* child -> sorted parents *)
  children_of : int array array;  (* parent -> sorted children *)
}

let of_edges ~n_parents ~n_children edges =
  let parents_of = Array.make n_children [] and children_of = Array.make n_parents [] in
  List.iter
    (fun (p, c) ->
      if not (List.mem p parents_of.(c)) then begin
        parents_of.(c) <- p :: parents_of.(c);
        children_of.(p) <- c :: children_of.(p)
      end)
    edges;
  let sorted = Array.map (fun l -> Array.of_list (List.sort compare l)) in
  { n_parents; n_children; parents_of = sorted parents_of; children_of = sorted children_of }

(* --- the row classifier ------------------------------------------------ *)

let is_one_to_one g =
  g.n_parents = g.n_children
  && Array.for_all (fun x -> x) (Array.mapi (fun c ps -> ps = [| c |]) g.parents_of)

let is_one_to_n g = Array.for_all (fun ps -> Array.length ps = 1) g.parents_of

let is_n_to_one g =
  Array.for_all (fun cs -> Array.length cs <= 1) g.children_of
  && Array.exists (fun ps -> Array.length ps > 1) g.parents_of

(* Children sharing an identical parent set form a group; distinct groups
   must have disjoint parent sets, and every parent in a group must point
   exactly at the group's children. *)
let is_n_group g =
  let groups = Hashtbl.create 8 in
  Array.iteri
    (fun c ps ->
      if Array.length ps > 0 then
        let key = Array.to_list ps in
        let cur = try Hashtbl.find groups key with Not_found -> [] in
        Hashtbl.replace groups key (c :: cur))
    g.parents_of;
  let parent_seen = Hashtbl.create 16 in
  try
    Hashtbl.iter
      (fun ps children ->
        let children = List.sort compare children in
        List.iter
          (fun p ->
            if Hashtbl.mem parent_seen p then raise Exit;
            Hashtbl.replace parent_seen p ();
            if Array.to_list g.children_of.(p) <> children then raise Exit)
          ps)
      groups;
    Hashtbl.length groups > 0
  with Exit -> false

let is_contiguous ps =
  let n = Array.length ps in
  n > 0 && ps.(n - 1) - ps.(0) = n - 1

let is_overlapped g =
  Array.for_all (fun ps -> Array.length ps = 0 || is_contiguous ps) g.parents_of
  && Array.exists (fun cs -> Array.length cs > 1) g.children_of

let classify g =
  if is_one_to_one g then Pattern.One_to_one
  else if is_one_to_n g then Pattern.One_to_n
  else if is_n_to_one g then Pattern.N_to_one
  else if is_n_group g then Pattern.N_group
  else if is_overlapped g then Pattern.Overlapped
  else Pattern.Irregular

let edges g = Array.fold_left (fun acc ps -> acc + Array.length ps) 0 g.parents_of

let measure g =
  let pattern = classify g in
  let n = g.n_parents and m = g.n_children in
  let plain_bytes = edges g * Encode.entry_bytes in
  let words =
    match pattern with
    | Pattern.Independent | Pattern.Fully_connected -> 1
    | Pattern.One_to_one | Pattern.N_to_one -> n
    | Pattern.One_to_n | Pattern.N_group -> m + n
    | Pattern.Overlapped -> n + (m * Array.fold_left (fun d ps -> max d (Array.length ps)) 0 g.parents_of)
    | Pattern.Irregular -> edges g
  in
  { Encode.plain_bytes; encoded_bytes = min (words * Encode.entry_bytes) plain_bytes; pattern }

(* --- the codec --------------------------------------------------------- *)

type encoded =
  | Enc_one_to_one of { n : int }
  | Enc_one_to_n of { n_parents : int; parent_of : int array }
  | Enc_n_to_one of { n_children : int; child_of : int array }
  | Enc_n_group of { group_of_parent : int array; group_of_child : int array }
  | Enc_overlapped of { n_parents : int; windows : (int * int) array }
  | Enc_irregular of { n_parents : int; parents_of : int array array }

let encode g =
  match classify g with
  | Pattern.One_to_one -> Enc_one_to_one { n = g.n_parents }
  | Pattern.One_to_n ->
    Enc_one_to_n { n_parents = g.n_parents; parent_of = Array.map (fun ps -> ps.(0)) g.parents_of }
  | Pattern.N_to_one ->
    Enc_n_to_one
      {
        n_children = g.n_children;
        child_of = Array.map (fun cs -> if Array.length cs = 0 then -1 else cs.(0)) g.children_of;
      }
  | Pattern.N_group ->
    (* Group ids in first-seen order over children. *)
    let groups = Hashtbl.create 8 in
    let next = ref 0 in
    let group_of_child =
      Array.map
        (fun ps ->
          if Array.length ps = 0 then -1
          else
            let key = Array.to_list ps in
            match Hashtbl.find_opt groups key with
            | Some gid -> gid
            | None ->
              let gid = !next in
              incr next;
              Hashtbl.add groups key gid;
              gid)
        g.parents_of
    in
    let group_of_parent = Array.make g.n_parents (-1) in
    Hashtbl.iter (fun ps gid -> List.iter (fun p -> group_of_parent.(p) <- gid) ps) groups;
    Enc_n_group { group_of_parent; group_of_child }
  | Pattern.Overlapped ->
    Enc_overlapped
      {
        n_parents = g.n_parents;
        windows =
          Array.map
            (fun ps -> if Array.length ps = 0 then (0, 0) else (ps.(0), Array.length ps))
            g.parents_of;
      }
  | Pattern.Independent | Pattern.Fully_connected | Pattern.Irregular ->
    Enc_irregular { n_parents = g.n_parents; parents_of = Array.map Array.copy g.parents_of }

let of_parents_of ~n_parents parents_of =
  let edges =
    List.concat (Array.to_list (Array.mapi (fun c ps -> List.map (fun p -> (p, c)) (Array.to_list ps)) parents_of))
  in
  of_edges ~n_parents ~n_children:(Array.length parents_of) edges

let decode = function
  | Enc_one_to_one { n } -> of_parents_of ~n_parents:n (Array.init n (fun c -> [| c |]))
  | Enc_one_to_n { n_parents; parent_of } ->
    of_parents_of ~n_parents (Array.map (fun p -> [| p |]) parent_of)
  | Enc_n_to_one { n_children; child_of } ->
    of_parents_of ~n_parents:(Array.length child_of)
      (Array.init n_children (fun c ->
           Array.of_list
             (List.filter (fun p -> child_of.(p) = c) (List.init (Array.length child_of) Fun.id))))
  | Enc_n_group { group_of_parent; group_of_child } ->
    let members gid =
      Array.of_list
        (List.filter
           (fun p -> group_of_parent.(p) = gid)
           (List.init (Array.length group_of_parent) Fun.id))
    in
    of_parents_of ~n_parents:(Array.length group_of_parent)
      (Array.map (fun gid -> if gid < 0 then [||] else members gid) group_of_child)
  | Enc_overlapped { n_parents; windows } ->
    of_parents_of ~n_parents (Array.map (fun (first, len) -> Array.init len (( + ) first)) windows)
  | Enc_irregular { n_parents; parents_of } -> of_parents_of ~n_parents parents_of

(* The format-3 payload of a graph's encoding. *)
let json_of_encoded e =
  let ja i = Json.Num (float_of_int i) and packed = Jsonc.json_of_packed_ints_rle in
  match e with
  | Enc_one_to_one { n } -> Json.Obj [ ("k", Json.Str "o2o"); ("n", ja n) ]
  | Enc_one_to_n { n_parents; parent_of } ->
    Json.Obj [ ("k", Json.Str "o2n"); ("np", ja n_parents); ("po", packed parent_of) ]
  | Enc_n_to_one { n_children; child_of } ->
    Json.Obj [ ("k", Json.Str "n2o"); ("nc", ja n_children); ("co", packed child_of) ]
  | Enc_n_group { group_of_parent; group_of_child } ->
    Json.Obj [ ("k", Json.Str "grp"); ("gp", packed group_of_parent); ("gc", packed group_of_child) ]
  | Enc_overlapped { n_parents; windows } ->
    let flat = Array.concat (Array.to_list (Array.map (fun (f, l) -> [| f; l |]) windows)) in
    Json.Obj [ ("k", Json.Str "ovl"); ("np", ja n_parents); ("w", packed flat) ]
  | Enc_irregular { n_parents; parents_of } ->
    let flat =
      Array.concat
        ([| Array.length parents_of |]
        :: List.concat_map (fun ps -> [ [| Array.length ps |]; ps ]) (Array.to_list parents_of))
    in
    Json.Obj [ ("k", Json.Str "irr"); ("np", ja n_parents); ("po", packed flat) ]

(* 32-bit words of variable payload: what [measure]'s encoded bytes model. *)
let encoded_words = function
  | Enc_one_to_one _ -> 0
  | Enc_one_to_n { parent_of; _ } -> Array.length parent_of
  | Enc_n_to_one { child_of; _ } -> Array.length child_of
  | Enc_n_group { group_of_parent; group_of_child } ->
    Array.length group_of_parent + Array.length group_of_child
  | Enc_overlapped { windows; _ } -> 2 * Array.length windows
  | Enc_irregular { parents_of; _ } ->
    Array.fold_left (fun acc ps -> acc + 1 + Array.length ps) 0 parents_of

(* The model graph of a Bipartite graph, read through its accessors. *)
let of_bipartite (g : Bipartite.t) =
  {
    n_parents = g.Bipartite.n_parents;
    n_children = g.Bipartite.n_children;
    parents_of =
      Array.init g.Bipartite.n_children (fun c ->
          Array.init (Bipartite.in_degree g c) (Bipartite.parent g c));
    children_of =
      Array.init g.Bipartite.n_parents (fun p ->
          let cs = ref [] in
          Bipartite.iter_children g p (fun () c -> cs := c :: !cs) ();
          Array.of_list (List.rev !cs));
  }
