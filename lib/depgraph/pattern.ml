type t =
  | Independent
  | Fully_connected
  | One_to_one
  | One_to_n
  | N_to_one
  | N_group
  | Overlapped
  | Irregular

(* A graph's pattern is its form's tag: {!Bipartite.of_rows} has already
   chosen the first case of this order the edges fit. *)
let classify = function
  | Bipartite.Independent -> Independent
  | Bipartite.Fully_connected -> Fully_connected
  | Bipartite.Graph g -> (
    match g.Bipartite.form with
    | Bipartite.One_to_one -> One_to_one
    | Bipartite.One_to_n _ -> One_to_n
    | Bipartite.N_to_one _ -> N_to_one
    | Bipartite.N_group _ -> N_group
    | Bipartite.Overlapped _ -> Overlapped
    | Bipartite.Irregular _ -> Irregular)

let name = function
  | Independent -> "independent"
  | Fully_connected -> "fully-connected"
  | One_to_one -> "1-to-1"
  | One_to_n -> "1-to-n"
  | N_to_one -> "n-to-1"
  | N_group -> "n-group"
  | Overlapped -> "overlapped"
  | Irregular -> "irregular"

let table1_id = function
  | Fully_connected -> 1
  | N_group -> 2
  | One_to_one -> 3
  | One_to_n -> 4
  | N_to_one -> 5
  | Overlapped -> 6
  | Independent -> 7
  | Irregular -> 0

let pp ppf t = Format.pp_print_string ppf (name t)
