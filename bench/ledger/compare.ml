(* `ledger.exe compare A.json B.json`: hold every workload x end-to-end
   metric of run set B against run set A with the bounds BENCHMARK.json
   fixes.

   A row is "worse" when B's median is worse than A's by more than the
   bound, and "unresolved" when either side's run-to-run spread (quartile
   distance over median) is wider than the bound — unless every run of B
   beats every run of A, which no spread can explain away. *)

module Json = Bm_metrics.Json

type bound = { metric : string; better_lower : bool; bound : float }

(* (workload, metric) -> values, in file order *)
type runs = ((string * string) * float list) list

let member_str name j = Option.bind (Json.member name j) Json.to_str
let member_num name j = Option.bind (Json.member name j) Json.to_float

let bounds_of_benchmark j =
  match Option.bind (Json.member "end_to_end" j) Json.to_list with
  | None -> Error "BENCHMARK.json: no end_to_end list"
  | Some l ->
    let parse m =
      match (member_str "name" m, member_str "better" m, member_num "bound" m) with
      | Some metric, Some ("lower" | "higher" as better), Some bound ->
        Ok { metric; better_lower = better = "lower"; bound }
      | _ -> Error "BENCHMARK.json: malformed end_to_end entry"
    in
    List.fold_right
      (fun m acc -> Result.bind acc (fun l -> Result.map (fun b -> b :: l) (parse m)))
      l (Ok [])

(* A run file holds one record or an array of them (what -o appends). *)
let runs_of_json j : (runs, string) result =
  let records = match j with Json.Arr l -> l | r -> [ r ] in
  let tbl = Hashtbl.create 64 and order = ref [] in
  let add key v =
    match Hashtbl.find_opt tbl key with
    | Some l -> Hashtbl.replace tbl key (v :: l)
    | None ->
      Hashtbl.add tbl key [ v ];
      order := key :: !order
  in
  let bad = ref None in
  List.iter
    (fun r ->
      match (member_str "workload" r, Option.bind (Json.member "metrics" r) Json.to_obj) with
      | Some w, Some ms ->
        List.iter (fun (name, m) -> Option.iter (add (w, name)) (member_num "value" m)) ms
      | _ -> bad := Some "run record without workload or metrics")
    records;
  match !bad with
  | Some msg -> Error msg
  | None -> Ok (List.rev_map (fun k -> (k, List.rev (Hashtbl.find tbl k))) !order)

type verdict = Agree | Worse | Unresolved

let verdict_name = function Agree -> "agree" | Worse -> "worse" | Unresolved -> "unresolved"

type row = {
  r_workload : string;
  r_metric : string;
  r_a : float;       (* medians *)
  r_b : float;
  r_change : float;  (* signed share of A; positive = worse *)
  r_spread_a : float;
  r_spread_b : float;
  r_bound : float;
  r_verdict : verdict;
}

let judge (b : bound) ~workload a_vals b_vals =
  let ma = Stat.median a_vals and mb = Stat.median b_vals in
  let worse = if b.better_lower then mb -. ma else ma -. mb in
  let change = if ma = 0.0 then (if worse = 0.0 then 0.0 else Float.infinity) else worse /. Float.abs ma in
  let sa = Stat.spread a_vals and sb = Stat.spread b_vals in
  let b_dominates =
    let best_a = List.fold_left (if b.better_lower then Float.min else Float.max) (List.hd a_vals) a_vals in
    let worst_b = List.fold_left (if b.better_lower then Float.max else Float.min) (List.hd b_vals) b_vals in
    if b.better_lower then worst_b < best_a else worst_b > best_a
  in
  let verdict =
    if b_dominates then Agree
    else if Float.max sa sb > b.bound then Unresolved
    else if change > b.bound then Worse
    else Agree
  in
  {
    r_workload = workload;
    r_metric = b.metric;
    r_a = ma;
    r_b = mb;
    r_change = change;
    r_spread_a = sa;
    r_spread_b = sb;
    r_bound = b.bound;
    r_verdict = verdict;
  }

(* One row per workload (sorted) x end-to-end metric that both sides hold. *)
let rows bounds (a : runs) (b : runs) =
  let workloads = List.sort_uniq compare (List.map (fun ((w, _), _) -> w) a) in
  List.concat_map
    (fun w ->
      List.filter_map
        (fun bd ->
          match (List.assoc_opt (w, bd.metric) a, List.assoc_opt (w, bd.metric) b) with
          | Some (_ :: _ as av), Some (_ :: _ as bv) -> Some (judge bd ~workload:w av bv)
          | _ -> None)
        bounds)
    workloads

let print rows =
  Printf.printf "%-18s %-13s %14s %14s %9s %9s %9s %7s  %s\n" "workload" "metric" "A median" "B median"
    "change" "spread A" "spread B" "bound" "verdict";
  List.iter
    (fun r ->
      Printf.printf "%-18s %-13s %14.6g %14.6g %+8.2f%% %8.2f%% %8.2f%% %6.1f%%  %s\n" r.r_workload r.r_metric
        r.r_a r.r_b (100.0 *. r.r_change) (100.0 *. r.r_spread_a) (100.0 *. r.r_spread_b) (100.0 *. r.r_bound)
        (verdict_name r.r_verdict))
    rows
