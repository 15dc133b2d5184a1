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
    let n = g.Bipartite.n_parents and m = g.Bipartite.n_children in
    let edges = Bipartite.edge_count rel ~n_parents:n ~n_children:m in
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

let encoded_overhead_class = function
  | Pattern.Fully_connected -> "O(1)"
  | Pattern.N_group -> "O(M+N)"
  | Pattern.One_to_one -> "O(N)"
  | Pattern.One_to_n -> "O(M+N)"
  | Pattern.N_to_one -> "O(N)"
  | Pattern.Overlapped -> "O(N + M.deg_max)"
  | Pattern.Independent -> "O(1)"
  | Pattern.Irregular -> "O(E)"
