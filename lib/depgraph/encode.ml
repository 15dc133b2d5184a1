type sizes = {
  plain_bytes : int;
  encoded_bytes : int;
  pattern : Pattern.t;
}

let entry_bytes = 4

let measure rel =
  let pattern = Pattern.classify rel in
  match rel with
  | Bipartite.Independent -> { plain_bytes = entry_bytes; encoded_bytes = entry_bytes; pattern }
  | Bipartite.Fully_connected ->
    (* Plain would materialize M*N edges; we cannot know M and N here, so
       callers measuring fully-connected pairs should use [measure_full]. *)
    { plain_bytes = entry_bytes; encoded_bytes = entry_bytes; pattern }
  | Bipartite.Graph g ->
    let edges = Array.fold_left (fun acc ps -> acc + Array.length ps) 0 g.parents_of in
    let n = g.n_parents and m = g.n_children in
    let plain_bytes = edges * entry_bytes in
    let encoded_bytes =
      match pattern with
      | Pattern.Independent | Pattern.Fully_connected -> entry_bytes
      | Pattern.One_to_one -> n * entry_bytes
      | Pattern.One_to_n -> (m + n) * entry_bytes
      | Pattern.N_to_one -> n * entry_bytes
      | Pattern.N_group -> (m + n) * entry_bytes
      | Pattern.Overlapped ->
        let degmax = Bipartite.max_in_degree g in
        (n + (m * degmax)) * entry_bytes
      | Pattern.Irregular -> plain_bytes
    in
    (* Encoding never exceeds the plain representation. *)
    { plain_bytes; encoded_bytes = min encoded_bytes plain_bytes; pattern }

let measure_full ~n_parents ~n_children =
  {
    plain_bytes = n_parents * n_children * entry_bytes;
    encoded_bytes = entry_bytes;
    pattern = Pattern.Fully_connected;
  }

let measure_pair ~n_parents ~n_children rel =
  match rel with
  | Bipartite.Fully_connected -> measure_full ~n_parents ~n_children
  | Bipartite.Independent | Bipartite.Graph _ -> measure rel

(* --- the codec itself ------------------------------------------------- *)

type encoded =
  | Enc_independent of { n_parents : int; n_children : int }
  | Enc_full of { n_parents : int; n_children : int }
  | Enc_one_to_one of { n : int }
  | Enc_one_to_n of { n_parents : int; parent_of : int array }
  | Enc_n_to_one of { n_children : int; child_of : int array }
  | Enc_n_group of { group_of_parent : int array; group_of_child : int array }
  | Enc_overlapped of { n_parents : int; windows : (int * int) array }
  | Enc_irregular of { n_parents : int; parents_of : int array array }

let encode ~n_parents ~n_children rel =
  match rel with
  | Bipartite.Independent -> Enc_independent { n_parents; n_children }
  | Bipartite.Fully_connected -> Enc_full { n_parents; n_children }
  | Bipartite.Graph g -> (
    match Pattern.classify rel with
    | Pattern.One_to_one -> Enc_one_to_one { n = g.Bipartite.n_parents }
    | Pattern.One_to_n ->
      (* is_one_to_n guarantees every child has exactly one parent. *)
      Enc_one_to_n
        { n_parents = g.Bipartite.n_parents;
          parent_of = Array.map (fun ps -> ps.(0)) g.Bipartite.parents_of }
    | Pattern.N_to_one ->
      Enc_n_to_one
        { n_children = g.Bipartite.n_children;
          child_of =
            Array.map
              (fun cs -> if Array.length cs = 0 then -1 else cs.(0))
              g.Bipartite.children_of }
    | Pattern.N_group ->
      (* Group ids in first-seen order over children; is_n_group guarantees
         each parent belongs to exactly one group (or none). *)
      let groups = Hashtbl.create 8 in
      let next = ref 0 in
      let group_of_child =
        Array.map
          (fun ps ->
            if Array.length ps = 0 then -1
            else begin
              let key = Array.to_list ps in
              match Hashtbl.find_opt groups key with
              | Some gid -> gid
              | None ->
                let gid = !next in
                incr next;
                Hashtbl.add groups key gid;
                gid
            end)
          g.Bipartite.parents_of
      in
      let group_of_parent = Array.make g.Bipartite.n_parents (-1) in
      Hashtbl.iter (fun ps gid -> List.iter (fun p -> group_of_parent.(p) <- gid) ps) groups;
      Enc_n_group { group_of_parent; group_of_child }
    | Pattern.Overlapped ->
      Enc_overlapped
        { n_parents = g.Bipartite.n_parents;
          windows =
            Array.map
              (fun ps -> if Array.length ps = 0 then (0, 0) else (ps.(0), Array.length ps))
              g.Bipartite.parents_of }
    | Pattern.Independent | Pattern.Fully_connected | Pattern.Irregular ->
      (* classify never maps a Graph to Independent/Fully_connected, but the
         plain adjacency fallback is correct for them regardless. *)
      Enc_irregular
        { n_parents = g.Bipartite.n_parents;
          parents_of = Array.map Array.copy g.Bipartite.parents_of })

(* Decoding builds the [Bipartite.t] record directly rather than expanding
   to an edge list for [Bipartite.of_edges]: the encoded forms are already
   structured, and the edge-list detour (a tuple per edge, a [List.mem]
   dedup scan per edge — quadratic on an N-to-one row — and a polymorphic
   sort per row) costs far more than the result itself.  Every branch
   produces the same sorted, deduplicated rows [of_edges] would, validating
   indices the same way ([Invalid_argument] on out-of-range); [children_of]
   is derived from [parents_of] by a counting pass, and walking children in
   ascending order keeps its rows sorted for free. *)
let graph_of_parents_of ~n_parents (parents_of : int array array) =
  let n_children = Array.length parents_of in
  let deg = Array.make n_parents 0 in
  Array.iter
    (fun ps ->
      Array.iter
        (fun p ->
          if p < 0 || p >= n_parents then invalid_arg "Encode.decode: node out of range";
          deg.(p) <- deg.(p) + 1)
        ps)
    parents_of;
  let children_of = Array.init n_parents (fun p -> Array.make deg.(p) 0) in
  let fill = Array.make n_parents 0 in
  Array.iteri
    (fun c ps ->
      Array.iter
        (fun p ->
          children_of.(p).(fill.(p)) <- c;
          fill.(p) <- fill.(p) + 1)
        ps)
    parents_of;
  Bipartite.Graph { Bipartite.n_parents; n_children; parents_of; children_of }

let decode = function
  | Enc_independent _ -> Bipartite.Independent
  | Enc_full _ -> Bipartite.Fully_connected
  | Enc_one_to_one { n } ->
    if n < 0 then invalid_arg "Encode.decode: negative size";
    Bipartite.Graph
      {
        Bipartite.n_parents = n;
        n_children = n;
        parents_of = Array.init n (fun c -> [| c |]);
        children_of = Array.init n (fun p -> [| p |]);
      }
  | Enc_one_to_n { n_parents; parent_of } ->
    graph_of_parents_of ~n_parents (Array.map (fun p -> [| p |]) parent_of)
  | Enc_n_to_one { n_children; child_of } ->
    if n_children < 0 then invalid_arg "Encode.decode: negative size";
    let n_parents = Array.length child_of in
    let cnt = Array.make n_children 0 in
    Array.iter
      (fun c ->
        if c >= n_children then invalid_arg "Encode.decode: node out of range";
        if c >= 0 then cnt.(c) <- cnt.(c) + 1)
      child_of;
    let parents_of = Array.init n_children (fun c -> Array.make cnt.(c) 0) in
    let fill = Array.make n_children 0 in
    Array.iteri
      (fun p c ->
        if c >= 0 then begin
          parents_of.(c).(fill.(c)) <- p;
          fill.(c) <- fill.(c) + 1
        end)
      child_of;
    Bipartite.Graph
      {
        Bipartite.n_parents;
        n_children;
        parents_of;
        children_of = Array.map (fun c -> if c >= 0 then [| c |] else [||]) child_of;
      }
  | Enc_n_group { group_of_parent; group_of_child } ->
    (* Parents of each group collected once (ascending, so sorted), not
       re-scanned per child. *)
    let members : (int, int list ref) Hashtbl.t = Hashtbl.create 8 in
    Array.iteri
      (fun p gid ->
        if gid >= 0 then
          match Hashtbl.find_opt members gid with
          | Some l -> l := p :: !l
          | None -> Hashtbl.add members gid (ref [ p ]))
      group_of_parent;
    let arrays = Hashtbl.create 8 in
    Hashtbl.iter (fun gid l -> Hashtbl.add arrays gid (Array.of_list (List.rev !l))) members;
    graph_of_parents_of ~n_parents:(Array.length group_of_parent)
      (Array.map
         (fun gid ->
           if gid < 0 then [||]
           else
             match Hashtbl.find_opt arrays gid with
             | Some a -> Array.copy a
             | None -> [||])
         group_of_child)
  | Enc_overlapped { n_parents; windows } ->
    graph_of_parents_of ~n_parents
      (Array.map (fun (first, len) -> Array.init len (fun i -> first + i)) windows)
  | Enc_irregular { n_parents; parents_of } ->
    (* Arbitrary rows: normalize to the sorted, deduplicated form
       [of_edges] guarantees. *)
    graph_of_parents_of ~n_parents
      (Array.map
         (fun row ->
           let r = Array.copy row in
           Array.sort (fun (a : int) b -> compare a b) r;
           let n = Array.length r in
           let w = ref 0 in
           for i = 0 to n - 1 do
             if !w = 0 || r.(!w - 1) <> r.(i) then begin
               r.(!w) <- r.(i);
               incr w
             end
           done;
           if !w = n then r else Array.sub r 0 !w)
         parents_of)

let pattern_of_encoded = function
  | Enc_independent _ -> Pattern.Independent
  | Enc_full _ -> Pattern.Fully_connected
  | Enc_one_to_one _ -> Pattern.One_to_one
  | Enc_one_to_n _ -> Pattern.One_to_n
  | Enc_n_to_one _ -> Pattern.N_to_one
  | Enc_n_group _ -> Pattern.N_group
  | Enc_overlapped _ -> Pattern.Overlapped
  | Enc_irregular _ -> Pattern.Irregular

let encoded_words = function
  | Enc_independent _ | Enc_full _ | Enc_one_to_one _ -> 0
  | Enc_one_to_n { parent_of; _ } -> Array.length parent_of
  | Enc_n_to_one { child_of; _ } -> Array.length child_of
  | Enc_n_group { group_of_parent; group_of_child } ->
    Array.length group_of_parent + Array.length group_of_child
  | Enc_overlapped { windows; _ } -> 2 * Array.length windows
  | Enc_irregular { parents_of; _ } ->
    Array.fold_left (fun acc ps -> acc + 1 + Array.length ps) 0 parents_of

let encoded_overhead_class = function
  | Pattern.Fully_connected -> "O(1)"
  | Pattern.N_group -> "O(M+N)"
  | Pattern.One_to_one -> "O(N)"
  | Pattern.One_to_n -> "O(M+N)"
  | Pattern.N_to_one -> "O(N)"
  | Pattern.Overlapped -> "O(N + M.deg_max)"
  | Pattern.Independent -> "O(1)"
  | Pattern.Irregular -> "O(E)"

let pp_sizes ppf s =
  Format.fprintf ppf "%s: plain=%dB encoded=%dB" (Pattern.name s.pattern) s.plain_bytes
    s.encoded_bytes
