(* Tests for bipartite dependency graphs, Table I pattern classification
   and the encoding/storage model. *)

open Bm_depgraph
module Footprint = Bm_analysis.Footprint
module I = Bm_analysis.Sinterval
module Json = Bm_metrics.Json

let graph ~n edges = Bipartite.Graph (Bipartite.of_edges ~n_parents:n ~n_children:n edges)

let pairs n f =
  let edges = ref [] in
  for c = 0 to n - 1 do
    List.iter (fun p -> if p >= 0 && p < n then edges := (p, c) :: !edges) (f c)
  done;
  graph ~n !edges

let classify rel = Pattern.classify rel

let test_of_edges_dedup () =
  let g =
    Bipartite.of_edges ~n_parents:2 ~n_children:2 [ (0, 0); (0, 0); (1, 1) ]
  in
  Alcotest.(check int) "no duplicate edges" 1 (Bipartite.in_degree g 0);
  Alcotest.(check int) "children mirror parents" 1 (Bipartite.out_degree g 1)

let test_of_edges_bounds () =
  Alcotest.check_raises "out of range"
    (Invalid_argument "Bipartite.of_edges: node out of range")
    (fun () -> ignore (Bipartite.of_edges ~n_parents:2 ~n_children:2 [ (2, 0) ]))

let test_classify_one_to_one () =
  Alcotest.(check string) "1-1" "1-to-1"
    (Pattern.name (classify (pairs 16 (fun c -> [ c ]))))

let test_classify_one_to_n () =
  Alcotest.(check string) "1-n" "1-to-n"
    (Pattern.name (classify (pairs 16 (fun c -> [ c / 4 ]))))

let test_classify_n_to_one () =
  let n = 16 in
  let edges = ref [] in
  for p = 0 to n - 1 do
    edges := (p, p / 4) :: !edges
  done;
  Alcotest.(check string) "n-1" "n-to-1" (Pattern.name (classify (graph ~n !edges)))

let test_classify_n_group () =
  Alcotest.(check string) "n-group" "n-group"
    (Pattern.name (classify (pairs 16 (fun c -> List.init 4 (fun i -> (c / 4 * 4) + i)))))

let test_classify_overlapped () =
  Alcotest.(check string) "overlapped" "overlapped"
    (Pattern.name (classify (pairs 16 (fun c -> [ c - 1; c; c + 1 ]))))

let test_classify_full_and_independent () =
  Alcotest.(check string) "full" "fully-connected" (Pattern.name (classify Bipartite.Fully_connected));
  Alcotest.(check string) "indep" "independent" (Pattern.name (classify Bipartite.Independent))

let test_classify_irregular () =
  (* Non-contiguous multi-parent sets that differ per child. *)
  let rel = pairs 16 (fun c -> [ c; (c + 5) mod 16 ]) in
  Alcotest.(check string) "irregular" "irregular" (Pattern.name (classify rel))

let test_table1_ids () =
  Alcotest.(check (list int)) "table1 numbering" [ 1; 2; 3; 4; 5; 6; 7 ]
    (List.map Pattern.table1_id
       [
         Pattern.Fully_connected; Pattern.N_group; Pattern.One_to_one; Pattern.One_to_n;
         Pattern.N_to_one; Pattern.Overlapped; Pattern.Independent;
       ])

(* --- relate: construction from footprints ------------------------- *)

(* Fabricate per-TB footprints directly. *)
let fp_of_intervals reads writes = { Footprint.freads = reads; fwrites = writes }

let elementwise_fps ~tbs ~span ~base =
  Footprint.Per_tb
    (Array.init tbs (fun b ->
         let lo = base + (b * span) in
         let iv = I.range lo (lo + span - 1) in
         fp_of_intervals [ iv ] [ iv ]))

let test_relate_one_to_one () =
  let parent = elementwise_fps ~tbs:8 ~span:1024 ~base:0 in
  let child = elementwise_fps ~tbs:8 ~span:1024 ~base:0 in
  match Bipartite.relate parent child with
  | Bipartite.Graph g ->
    Alcotest.(check string) "pattern" "1-to-1" (Pattern.name (Pattern.classify (Bipartite.Graph g)))
  | Bipartite.Independent | Bipartite.Fully_connected -> Alcotest.fail "expected graph"

let test_relate_independent () =
  let parent = elementwise_fps ~tbs:8 ~span:1024 ~base:0 in
  let child = elementwise_fps ~tbs:8 ~span:1024 ~base:1_000_000 in
  Alcotest.(check bool) "independent" true (Bipartite.relate parent child = Bipartite.Independent)

let test_relate_full () =
  (* Every child reads the parent's whole output. *)
  let parent = elementwise_fps ~tbs:8 ~span:1024 ~base:0 in
  let whole = I.range 0 8191 in
  let child = Footprint.Per_tb (Array.init 8 (fun _ -> fp_of_intervals [ whole ] [])) in
  Alcotest.(check bool) "fully connected" true (Bipartite.relate parent child = Bipartite.Fully_connected)

let test_relate_degree_cap () =
  (* 128 parents each writing one element; each child reads 127 of them:
     exceeds the 64-parent counter -> fully connected. *)
  let parent =
    Footprint.Per_tb (Array.init 128 (fun b -> fp_of_intervals [] [ I.singleton b ]))
  in
  let child =
    Footprint.Per_tb (Array.init 4 (fun _ -> fp_of_intervals [ I.range 0 126 ] []))
  in
  Alcotest.(check bool) "cap degrades" true
    (Bipartite.relate ~max_degree:64 parent child = Bipartite.Fully_connected);
  (match Bipartite.relate ~max_degree:128 parent child with
  | Bipartite.Fully_connected -> Alcotest.fail "cap 128 should keep the graph"
  | Bipartite.Graph g -> Alcotest.(check int) "in-degree" 127 (Bipartite.max_in_degree g)
  | Bipartite.Independent -> Alcotest.fail "not independent")

let test_relate_conservative () =
  let parent = Footprint.Conservative "indirect" in
  let child = elementwise_fps ~tbs:4 ~span:16 ~base:0 in
  Alcotest.(check bool) "conservative -> full" true
    (Bipartite.relate parent child = Bipartite.Fully_connected)

let test_relate_single_child () =
  (* A single-child pair must stay a graph (n-to-1), not fully-connected. *)
  let parent = elementwise_fps ~tbs:8 ~span:64 ~base:0 in
  let child = Footprint.Per_tb [| fp_of_intervals [ I.range 0 511 ] [] |] in
  match Bipartite.relate parent child with
  | Bipartite.Graph g ->
    Alcotest.(check string) "n-to-1" "n-to-1" (Pattern.name (Pattern.classify (Bipartite.Graph g)))
  | Bipartite.Independent | Bipartite.Fully_connected -> Alcotest.fail "expected n-to-1 graph"

let test_relate_stencil_overlap () =
  let parent = elementwise_fps ~tbs:8 ~span:64 ~base:0 in
  let child =
    Footprint.Per_tb
      (Array.init 8 (fun b ->
           let lo = max 0 ((b * 64) - 4) in
           fp_of_intervals [ I.range lo ((b * 64) + 67) ] []))
  in
  match Bipartite.relate parent child with
  | Bipartite.Graph g ->
    Alcotest.(check string) "overlapped" "overlapped"
      (Pattern.name (Pattern.classify (Bipartite.Graph g)))
  | Bipartite.Independent | Bipartite.Fully_connected -> Alcotest.fail "expected graph"

(* --- encode -------------------------------------------------------- *)

let test_encode_full () =
  let s = Encode.measure_full ~n_parents:64 ~n_children:64 in
  Alcotest.(check int) "plain is MN entries" (64 * 64 * 4) s.Encode.plain_bytes;
  Alcotest.(check int) "encoded is a flag" 4 s.Encode.encoded_bytes

let test_encode_never_worse () =
  let s = Encode.measure (pairs 16 (fun c -> [ c / 4 ])) in
  Alcotest.(check bool) "encoded <= plain" true (s.Encode.encoded_bytes <= s.Encode.plain_bytes)

let test_encode_overhead_classes () =
  Alcotest.(check string) "full class" "O(1)" (Encode.encoded_overhead_class Pattern.Fully_connected);
  Alcotest.(check string) "ngroup class" "O(M+N)" (Encode.encoded_overhead_class Pattern.N_group);
  Alcotest.(check string) "overlap class" "O(N + M.deg_max)"
    (Encode.encoded_overhead_class Pattern.Overlapped)

let test_edge_count () =
  Alcotest.(check int) "full edges" 12 (Bipartite.edge_count Bipartite.Fully_connected ~n_parents:3 ~n_children:4);
  Alcotest.(check int) "indep edges" 0 (Bipartite.edge_count Bipartite.Independent ~n_parents:3 ~n_children:4);
  Alcotest.(check int) "graph edges" 16
    (Bipartite.edge_count (pairs 16 (fun c -> [ c ])) ~n_parents:16 ~n_children:16)

(* --- properties ---------------------------------------------------- *)

(* relate must contain an edge (p, c) exactly when some write of p
   intersects some read of c. *)
let prop_relate_exact =
  QCheck2.Test.make ~name:"relate edges match concrete footprint intersections" ~count:100
    QCheck2.Gen.(pair (int_range 2 10) (int_range 1 6))
    (fun (tbs, spread) ->
      let span = 16 in
      let parent =
        Footprint.Per_tb
          (Array.init tbs (fun b -> fp_of_intervals [] [ I.range (b * span) ((b * span) + span - 1) ]))
      in
      let child =
        Footprint.Per_tb
          (Array.init tbs (fun b ->
               let lo = b * span * spread mod (tbs * span) in
               fp_of_intervals [ I.range lo (lo + span - 1) ] []))
      in
      let expected p c =
        let lo = c * span * spread mod (tbs * span) in
        let rd = I.range lo (lo + span - 1) in
        I.intersects (I.range (p * span) ((p * span) + span - 1)) rd
      in
      match Bipartite.relate parent child with
      | Bipartite.Fully_connected -> false (* small degrees: should never cap *)
      | Bipartite.Independent ->
        (* No pair intersects. *)
        let any = ref false in
        for p = 0 to tbs - 1 do
          for c = 0 to tbs - 1 do
            if expected p c then any := true
          done
        done;
        not !any
      | Bipartite.Graph g ->
        let ok = ref true in
        for p = 0 to tbs - 1 do
          for c = 0 to tbs - 1 do
            let has = List.mem p (List.init (Bipartite.in_degree g c) (Bipartite.parent g c)) in
            if has <> expected p c then ok := false
          done
        done;
        !ok)

let prop_children_mirror_parents =
  QCheck2.Test.make ~name:"children_of is the transpose of parents_of" ~count:100
    QCheck2.Gen.(list_size (int_range 0 40) (pair (int_range 0 9) (int_range 0 9)))
    (fun edges ->
      let g = Bipartite.of_edges ~n_parents:10 ~n_children:10 edges in
      let m = Relation_model.of_bipartite g in
      let ok = ref true in
      Array.iteri
        (fun c ps ->
          Array.iter (fun p -> if not (Array.mem c m.Relation_model.children_of.(p)) then ok := false) ps)
        m.Relation_model.parents_of;
      !ok)

let prop_encode_bounded =
  QCheck2.Test.make ~name:"encoded size never exceeds plain size" ~count:100
    QCheck2.Gen.(list_size (int_range 1 60) (pair (int_range 0 15) (int_range 0 15)))
    (fun edges ->
      let g = Bipartite.Graph (Bipartite.of_edges ~n_parents:16 ~n_children:16 edges) in
      let s = Encode.measure g in
      s.Encode.encoded_bytes <= max s.Encode.plain_bytes 4)

let suite =
  [
    Alcotest.test_case "of_edges: dedup" `Quick test_of_edges_dedup;
    Alcotest.test_case "of_edges: bounds" `Quick test_of_edges_bounds;
    Alcotest.test_case "classify: 1-to-1" `Quick test_classify_one_to_one;
    Alcotest.test_case "classify: 1-to-n" `Quick test_classify_one_to_n;
    Alcotest.test_case "classify: n-to-1" `Quick test_classify_n_to_one;
    Alcotest.test_case "classify: n-group" `Quick test_classify_n_group;
    Alcotest.test_case "classify: overlapped" `Quick test_classify_overlapped;
    Alcotest.test_case "classify: full/independent" `Quick test_classify_full_and_independent;
    Alcotest.test_case "classify: irregular" `Quick test_classify_irregular;
    Alcotest.test_case "table1 numbering" `Quick test_table1_ids;
    Alcotest.test_case "relate: 1-to-1 from footprints" `Quick test_relate_one_to_one;
    Alcotest.test_case "relate: independent buffers" `Quick test_relate_independent;
    Alcotest.test_case "relate: whole-read is full" `Quick test_relate_full;
    Alcotest.test_case "relate: 64-parent counter cap" `Quick test_relate_degree_cap;
    Alcotest.test_case "relate: conservative fallback" `Quick test_relate_conservative;
    Alcotest.test_case "relate: single child stays n-to-1" `Quick test_relate_single_child;
    Alcotest.test_case "relate: stencil overlap" `Quick test_relate_stencil_overlap;
    Alcotest.test_case "encode: fully connected" `Quick test_encode_full;
    Alcotest.test_case "encode: never worse than plain" `Quick test_encode_never_worse;
    Alcotest.test_case "encode: Table I classes" `Quick test_encode_overhead_classes;
    Alcotest.test_case "edge counts" `Quick test_edge_count;
    QCheck_alcotest.to_alcotest prop_relate_exact;
    QCheck_alcotest.to_alcotest prop_children_mirror_parents;
    QCheck_alcotest.to_alcotest prop_encode_bounded;
  ]

(* --- randomized pattern construction/classification consistency ------- *)

let prop_one_to_one_any_size =
  QCheck2.Test.make ~name:"identity graphs always classify 1-to-1" ~count:50
    QCheck2.Gen.(int_range 1 64)
    (fun n ->
      n = 1
      ||
      let g = Bipartite.of_edges ~n_parents:n ~n_children:n (List.init n (fun i -> (i, i))) in
      Pattern.classify (Bipartite.Graph g) = Pattern.One_to_one)

let prop_one_to_n_any_fan =
  QCheck2.Test.make ~name:"single-parent graphs classify 1-to-n (or 1-to-1)" ~count:50
    QCheck2.Gen.(pair (int_range 2 32) (int_range 2 6))
    (fun (parents, fan) ->
      let children = parents * fan in
      let g =
        Bipartite.of_edges ~n_parents:parents ~n_children:children
          (List.init children (fun c -> (c / fan, c)))
      in
      Pattern.classify (Bipartite.Graph g) = Pattern.One_to_n)

let prop_n_group_any_shape =
  QCheck2.Test.make ~name:"disjoint full groups classify n-group" ~count:50
    QCheck2.Gen.(pair (int_range 2 6) (int_range 2 8))
    (fun (group, groups) ->
      let n = group * groups in
      let edges = ref [] in
      for c = 0 to n - 1 do
        for p = c / group * group to ((c / group) + 1) * group - 1 do
          edges := (p, c) :: !edges
        done
      done;
      let g = Bipartite.of_edges ~n_parents:n ~n_children:n !edges in
      Pattern.classify (Bipartite.Graph g) = Pattern.N_group)

let prop_overlapped_windows =
  QCheck2.Test.make ~name:"contiguous sliding windows classify overlapped" ~count:50
    QCheck2.Gen.(pair (int_range 8 40) (int_range 1 3))
    (fun (n, halo) ->
      let edges = ref [] in
      for c = 0 to n - 1 do
        for p = max 0 (c - halo) to min (n - 1) (c + halo) do
          edges := (p, c) :: !edges
        done
      done;
      let g = Bipartite.of_edges ~n_parents:n ~n_children:n !edges in
      Pattern.classify (Bipartite.Graph g) = Pattern.Overlapped)

let pattern_props =
  [
    QCheck_alcotest.to_alcotest prop_one_to_one_any_size;
    QCheck_alcotest.to_alcotest prop_one_to_n_any_fan;
    QCheck_alcotest.to_alcotest prop_n_group_any_shape;
    QCheck_alcotest.to_alcotest prop_overlapped_windows;
  ]

let suite = suite @ pattern_props

(* --- encoding bounds per Table I pattern ------------------------------- *)

(* Randomized relation builders, one per Table I row that [measure] can see
   as an explicit graph.  Each property checks both that the generator hits
   the intended pattern and that its encoding never exceeds the plain
   adjacency list. *)

let encode_ok expected rel =
  let s = Encode.measure rel in
  s.Encode.pattern = expected && s.Encode.encoded_bytes <= s.Encode.plain_bytes

let prop_encode_one_to_one =
  QCheck2.Test.make ~name:"encode bound: 1-to-1" ~count:50
    QCheck2.Gen.(int_range 2 64)
    (fun n ->
      encode_ok Pattern.One_to_one
        (Bipartite.Graph (Bipartite.of_edges ~n_parents:n ~n_children:n (List.init n (fun i -> (i, i))))))

let prop_encode_one_to_n =
  QCheck2.Test.make ~name:"encode bound: 1-to-n" ~count:50
    QCheck2.Gen.(pair (int_range 2 16) (int_range 2 6))
    (fun (parents, fan) ->
      let children = parents * fan in
      encode_ok Pattern.One_to_n
        (Bipartite.Graph
           (Bipartite.of_edges ~n_parents:parents ~n_children:children
              (List.init children (fun c -> (c / fan, c))))))

let prop_encode_n_to_one =
  QCheck2.Test.make ~name:"encode bound: n-to-1" ~count:50
    QCheck2.Gen.(pair (int_range 2 16) (int_range 2 6))
    (fun (children, fan) ->
      let parents = children * fan in
      encode_ok Pattern.N_to_one
        (Bipartite.Graph
           (Bipartite.of_edges ~n_parents:parents ~n_children:children
              (List.init parents (fun p -> (p, p / fan))))))

let prop_encode_n_group =
  QCheck2.Test.make ~name:"encode bound: n-group" ~count:50
    QCheck2.Gen.(pair (int_range 2 6) (int_range 2 8))
    (fun (group, groups) ->
      let n = group * groups in
      let edges = ref [] in
      for c = 0 to n - 1 do
        for p = c / group * group to ((c / group) + 1) * group - 1 do
          edges := (p, c) :: !edges
        done
      done;
      encode_ok Pattern.N_group
        (Bipartite.Graph (Bipartite.of_edges ~n_parents:n ~n_children:n !edges)))

let prop_encode_overlapped =
  QCheck2.Test.make ~name:"encode bound: overlapped" ~count:50
    QCheck2.Gen.(pair (int_range 8 40) (int_range 1 3))
    (fun (n, halo) ->
      let edges = ref [] in
      for c = 0 to n - 1 do
        for p = max 0 (c - halo) to min (n - 1) (c + halo) do
          edges := (p, c) :: !edges
        done
      done;
      encode_ok Pattern.Overlapped
        (Bipartite.Graph (Bipartite.of_edges ~n_parents:n ~n_children:n !edges)))

let prop_encode_irregular =
  (* Arbitrary random edge soups: whatever they classify as, the encoding
     stays within the plain representation (modulo the 4-byte floor for
     empty edge lists). *)
  QCheck2.Test.make ~name:"encode bound: random graphs" ~count:200
    QCheck2.Gen.(list_size (int_range 1 80) (pair (int_range 0 19) (int_range 0 19)))
    (fun edges ->
      let g = Bipartite.Graph (Bipartite.of_edges ~n_parents:20 ~n_children:20 edges) in
      let s = Encode.measure g in
      s.Encode.encoded_bytes <= max s.Encode.plain_bytes Encode.entry_bytes)

(* An explicitly materialized all-pairs graph classifies as n-group (every
   child reads one group: all parents), so [measure] keeps an O(M+N)
   encoding; [measure_full] knows the pair is fully connected and collapses
   it to a flag.  Their plain sizes must agree exactly, and the dedicated
   encoding can only be smaller. *)
let prop_measure_full_consistent =
  QCheck2.Test.make ~name:"measure_full agrees with explicit all-pairs measure" ~count:50
    QCheck2.Gen.(pair (int_range 1 12) (int_range 1 12))
    (fun (m, n) ->
      let edges = List.concat_map (fun p -> List.init n (fun c -> (p, c))) (List.init m Fun.id) in
      let explicit = Encode.measure (Bipartite.Graph (Bipartite.of_edges ~n_parents:m ~n_children:n edges)) in
      let full = Encode.measure_full ~n_parents:m ~n_children:n in
      full.Encode.plain_bytes = m * n * Encode.entry_bytes
      && explicit.Encode.plain_bytes = full.Encode.plain_bytes
      && full.Encode.encoded_bytes <= explicit.Encode.encoded_bytes
      && full.Encode.pattern = Pattern.Fully_connected)

let encode_props =
  [
    QCheck_alcotest.to_alcotest prop_encode_one_to_one;
    QCheck_alcotest.to_alcotest prop_encode_one_to_n;
    QCheck_alcotest.to_alcotest prop_encode_n_to_one;
    QCheck_alcotest.to_alcotest prop_encode_n_group;
    QCheck_alcotest.to_alcotest prop_encode_overlapped;
    QCheck_alcotest.to_alcotest prop_encode_irregular;
    QCheck_alcotest.to_alcotest prop_measure_full_consistent;
  ]

let suite = suite @ encode_props

(* --- codec round trip per Table I pattern ------------------------------ *)

(* Decoding a relation's JSON payload must reproduce it exactly, the
   payload must be the reference codec's (format 3 unchanged), and the
   variable payload must hit the Table I word-count formula for its class
   on the nose. *)

let rel_equal a b =
  match (a, b) with
  | Bipartite.Independent, Bipartite.Independent -> true
  | Bipartite.Fully_connected, Bipartite.Fully_connected -> true
  | Bipartite.Graph x, Bipartite.Graph y -> Bipartite.equal x y
  | _ -> false

module Jsonc = Bm_maestro.Jsonc

let words_ok g =
  let m = Relation_model.of_bipartite g in
  let e = Relation_model.encode m in
  let w = Relation_model.encoded_words e in
  let edges = Relation_model.edges m in
  match e with
  | Relation_model.Enc_one_to_one _ -> w = 0
  | Relation_model.Enc_one_to_n _ -> w = g.Bipartite.n_children
  | Relation_model.Enc_n_to_one _ -> w = g.Bipartite.n_parents
  | Relation_model.Enc_n_group _ -> w = g.Bipartite.n_parents + g.Bipartite.n_children
  | Relation_model.Enc_overlapped _ -> w = 2 * g.Bipartite.n_children
  | Relation_model.Enc_irregular _ -> w = g.Bipartite.n_children + edges

let roundtrips ?(n_parents = 1) ?(n_children = 1) rel =
  let n_parents, n_children =
    match rel with
    | Bipartite.Graph g -> (g.Bipartite.n_parents, g.Bipartite.n_children)
    | Bipartite.Independent | Bipartite.Fully_connected -> (n_parents, n_children)
  in
  let j = Jsonc.json_of_relation ~n_parents ~n_children rel in
  let back = Jsonc.relation_of_json ~n_parents ~n_children j in
  rel_equal back rel && back = rel
  &&
  match rel with
  | Bipartite.Independent | Bipartite.Fully_connected -> true
  | Bipartite.Graph g ->
    let m = Relation_model.of_bipartite g in
    Pattern.classify rel = Relation_model.classify m
    && Json.to_string j = Json.to_string (Relation_model.json_of_encoded (Relation_model.encode m))
    && words_ok g

let prop_roundtrip_one_to_one =
  QCheck2.Test.make ~name:"codec round trip: 1-to-1" ~count:50
    QCheck2.Gen.(int_range 2 64)
    (fun n ->
      roundtrips
        (Bipartite.Graph (Bipartite.of_edges ~n_parents:n ~n_children:n (List.init n (fun i -> (i, i))))))

let prop_roundtrip_one_to_n =
  QCheck2.Test.make ~name:"codec round trip: 1-to-n" ~count:50
    QCheck2.Gen.(pair (int_range 2 16) (int_range 2 6))
    (fun (parents, fan) ->
      let children = parents * fan in
      roundtrips
        (Bipartite.Graph
           (Bipartite.of_edges ~n_parents:parents ~n_children:children
              (List.init children (fun c -> (c / fan, c))))))

let prop_roundtrip_n_to_one =
  QCheck2.Test.make ~name:"codec round trip: n-to-1" ~count:50
    QCheck2.Gen.(pair (int_range 2 16) (int_range 2 6))
    (fun (children, fan) ->
      let parents = children * fan in
      roundtrips
        (Bipartite.Graph
           (Bipartite.of_edges ~n_parents:parents ~n_children:children
              (List.init parents (fun p -> (p, p / fan))))))

let prop_roundtrip_n_group =
  QCheck2.Test.make ~name:"codec round trip: n-group" ~count:50
    QCheck2.Gen.(pair (int_range 2 6) (int_range 2 8))
    (fun (group, groups) ->
      let n = group * groups in
      let edges = ref [] in
      for c = 0 to n - 1 do
        for p = c / group * group to ((c / group) + 1) * group - 1 do
          edges := (p, c) :: !edges
        done
      done;
      roundtrips (Bipartite.Graph (Bipartite.of_edges ~n_parents:n ~n_children:n !edges)))

let prop_roundtrip_overlapped =
  QCheck2.Test.make ~name:"codec round trip: overlapped" ~count:50
    QCheck2.Gen.(pair (int_range 8 40) (int_range 1 3))
    (fun (n, halo) ->
      let edges = ref [] in
      for c = 0 to n - 1 do
        for p = max 0 (c - halo) to min (n - 1) (c + halo) do
          edges := (p, c) :: !edges
        done
      done;
      roundtrips (Bipartite.Graph (Bipartite.of_edges ~n_parents:n ~n_children:n !edges)))

let prop_roundtrip_random =
  (* Arbitrary edge soups: whatever pattern they land on, the codec must
     reproduce them exactly. *)
  QCheck2.Test.make ~name:"codec round trip: random graphs" ~count:200 ~long_factor:10
    QCheck2.Gen.(list_size (int_range 1 80) (pair (int_range 0 19) (int_range 0 19)))
    (fun edges ->
      roundtrips (Bipartite.Graph (Bipartite.of_edges ~n_parents:20 ~n_children:20 edges)))

let prop_roundtrip_flat =
  QCheck2.Test.make ~name:"codec round trip: independent / fully connected" ~count:50
    QCheck2.Gen.(pair (int_range 1 64) (int_range 1 64))
    (fun (m, n) ->
      roundtrips ~n_parents:m ~n_children:n Bipartite.Independent
      && roundtrips ~n_parents:m ~n_children:n Bipartite.Fully_connected)

let roundtrip_props =
  [
    QCheck_alcotest.to_alcotest prop_roundtrip_one_to_one;
    QCheck_alcotest.to_alcotest prop_roundtrip_one_to_n;
    QCheck_alcotest.to_alcotest prop_roundtrip_n_to_one;
    QCheck_alcotest.to_alcotest prop_roundtrip_n_group;
    QCheck_alcotest.to_alcotest prop_roundtrip_overlapped;
    QCheck_alcotest.to_alcotest prop_roundtrip_random;
    QCheck_alcotest.to_alcotest prop_roundtrip_flat;
  ]

let suite = suite @ roundtrip_props

(* --- relate against a brute-force all-pairs relation -------------------- *)

(* Child [c] depends on parent [p] when some read of [c] intersects some
   write of [p]; more than [max_degree] parents for any child, or every
   child depending on every parent (both sides > 1), is fully connected. *)
let brute_relate ~max_degree parent_fps child_fps =
  let n_parents = Array.length parent_fps and n_children = Array.length child_fps in
  let parents_of =
    Array.map
      (fun (child : Footprint.t) ->
        List.filter
          (fun p ->
            List.exists
              (fun w -> List.exists (I.intersects w) child.Footprint.freads)
              parent_fps.(p).Footprint.fwrites)
          (List.init n_parents Fun.id))
      child_fps
  in
  let degrees = Array.map List.length parents_of in
  if Array.exists (fun d -> d > max_degree) degrees then Bipartite.Fully_connected
  else if Array.for_all (( = ) 0) degrees then Bipartite.Independent
  else if n_parents > 1 && n_children > 1 && Array.for_all (( = ) n_parents) degrees then
    Bipartite.Fully_connected
  else
    let edges =
      List.concat (Array.to_list (Array.mapi (fun c ps -> List.map (fun p -> (p, c)) ps) parents_of))
    in
    Bipartite.Graph (Bipartite.of_edges ~n_parents ~n_children edges)

let relate_matches_brute ~max_degree parents children =
  Bipartite.relate ~max_degree (Footprint.Per_tb parents) (Footprint.Per_tb children)
  = brute_relate ~max_degree parents children

(* Parent [p] writes [16p, 16p + 15]. *)
let block_writers n = Array.init n (fun p -> fp_of_intervals [] [ I.range (16 * p) ((16 * p) + 15) ])

let test_relate_brute_boundaries () =
  let parents = block_writers 6 in
  (* Several reads of one child land in the same parent. *)
  let repeated =
    Array.init 4 (fun c ->
        let at lo hi = I.range ((16 * c) + lo) ((16 * c) + hi) in
        fp_of_intervals [ at 0 3; at 8 11; at 12 20 ] [])
  in
  Alcotest.(check bool) "repeated parents = brute force" true
    (relate_matches_brute ~max_degree:3 parents repeated);
  (match Bipartite.relate ~max_degree:3 (Footprint.Per_tb parents) (Footprint.Per_tb repeated) with
  | Bipartite.Graph g ->
    Alcotest.(check (list int)) "parents counted once" [ 1; 2 ]
      (List.init (Bipartite.in_degree g 1) (Bipartite.parent g 1))
  | Bipartite.Independent | Bipartite.Fully_connected -> Alcotest.fail "expected a graph");
  (* Child 0 reads parents 0..k-1, the others read one parent each. *)
  let reading k =
    Array.init 3 (fun c ->
        if c = 0 then fp_of_intervals [ I.range 0 ((16 * k) - 1) ] []
        else fp_of_intervals [ I.singleton (16 * c) ] [])
  in
  Alcotest.(check bool) "degree = max_degree = brute force" true
    (relate_matches_brute ~max_degree:3 parents (reading 3));
  (match Bipartite.relate ~max_degree:3 (Footprint.Per_tb parents) (Footprint.Per_tb (reading 3)) with
  | Bipartite.Graph g ->
    Alcotest.(check int) "degree = max_degree stays a graph" 3 (Bipartite.max_in_degree g)
  | Bipartite.Independent | Bipartite.Fully_connected -> Alcotest.fail "expected a graph");
  Alcotest.(check bool) "degree = max_degree + 1 = brute force" true
    (relate_matches_brute ~max_degree:3 parents (reading 4));
  Alcotest.(check bool) "degree = max_degree + 1 is fully connected" true
    (Bipartite.relate ~max_degree:3 (Footprint.Per_tb parents) (Footprint.Per_tb (reading 4))
    = Bipartite.Fully_connected)

let gen_intervals =
  QCheck2.Gen.(
    list_size (int_range 0 3)
      (map
         (fun (lo, len, stride) -> I.make ~lo ~hi:(lo + len) ~stride)
         (triple (int_range 0 120) (int_range 0 24) (int_range 1 4))))

let prop_relate_brute =
  QCheck2.Test.make ~name:"relate = brute-force all-pairs relation" ~count:300 ~long_factor:10
    QCheck2.Gen.(
      triple (int_range 1 4)
        (array_size (int_range 1 8) gen_intervals)
        (array_size (int_range 1 8) gen_intervals))
    (fun (max_degree, writes, reads) ->
      let parents = Array.map (fun ws -> fp_of_intervals [] ws) writes in
      let children = Array.map (fun rs -> fp_of_intervals rs []) reads in
      relate_matches_brute ~max_degree parents children)

let suite =
  suite
  @ [
      Alcotest.test_case "relate: brute-force boundaries" `Quick test_relate_brute_boundaries;
      QCheck_alcotest.to_alcotest prop_relate_brute;
    ]

(* --- Table I forms against the row model ------------------------------- *)

(* Random edge sets of every pattern, with their dimensions (0 included). *)
let gen_pattern_edges =
  QCheck2.Gen.(
    let dims = pair (int_range 0 12) (int_range 0 12) in
    let pick n = if n = 0 then return None else map Option.some (int_range 0 (n - 1)) in
    let keyed np nc key =
      (* parent [p] and child [c] joined when their keys are equal and set *)
      let* kp = array_repeat np key and* kc = array_repeat nc key in
      return
        (List.concat
           (List.init np (fun p ->
                List.filter_map
                  (fun c -> if kp.(p) >= 0 && kp.(p) = kc.(c) then Some (p, c) else None)
                  (List.init nc Fun.id))))
    in
    let* np, nc = dims in
    let+ edges =
      oneof
        [
          return (List.init (min np nc) (fun i -> (i, i)));
          map
            (List.filter_map Fun.id)
            (flatten_l (List.init nc (fun c -> map (Option.map (fun p -> (p, c))) (pick np))));
          map
            (List.filter_map Fun.id)
            (flatten_l (List.init np (fun p -> map (Option.map (fun c -> (p, c))) (pick nc))));
          keyed np nc (int_range (-1) 3);
          map List.concat
            (flatten_l
               (List.init nc (fun c ->
                    let* first = int_range 0 (max 0 (np - 1)) and* len = int_range 0 4 in
                    return (List.init (max 0 (min len (np - first))) (fun i -> (first + i, c))))));
          (if np = 0 || nc = 0 then return []
           else list_size (int_range 0 40) (pair (int_range 0 (np - 1)) (int_range 0 (nc - 1))));
        ]
    in
    (np, nc, edges))

let print_edges (np, nc, edges) =
  Printf.sprintf "%dx%d %s" np nc
    (String.concat " " (List.map (fun (p, c) -> Printf.sprintf "%d>%d" p c) edges))

let model_test ~name ?(count = 500) prop =
  QCheck2.Test.make ~name ~count ~long_factor:10 ~print:print_edges gen_pattern_edges (fun (np, nc, edges) ->
      prop
        (Bipartite.of_edges ~n_parents:np ~n_children:nc edges)
        (Relation_model.of_edges ~n_parents:np ~n_children:nc edges))

let prop_model_pattern =
  model_test ~name:"forms: of_edges pattern and sizes match the row model" (fun g m ->
      Pattern.classify (Bipartite.Graph g) = Relation_model.classify m
      && Encode.measure (Bipartite.Graph g) = Relation_model.measure m)

let prop_model_accessors =
  model_test ~name:"forms: accessors agree with the row model" (fun g m ->
      Relation_model.of_bipartite g = m
      && Bipartite.edge_count (Bipartite.Graph g) ~n_parents:0 ~n_children:0 = Relation_model.edges m
      && Bipartite.max_in_degree g
         = Array.fold_left (fun d ps -> max d (Array.length ps)) 0 m.Relation_model.parents_of)

(* The codec writes the model's format-3 payload, and reading it back, or
   reading the model's plain adjacency payload of the same edges, gives
   the canonical graph again. *)
let prop_model_codec =
  model_test ~name:"forms: JSON codec round-trips every form, format 3 unchanged" (fun g m ->
      let n_parents = g.Bipartite.n_parents and n_children = g.Bipartite.n_children in
      let j = Jsonc.json_of_relation ~n_parents ~n_children (Bipartite.Graph g) in
      let read j = Jsonc.relation_of_json ~n_parents ~n_children j in
      let irregular =
        Relation_model.Enc_irregular { n_parents; parents_of = m.Relation_model.parents_of }
      in
      Json.to_string j = Json.to_string (Relation_model.json_of_encoded (Relation_model.encode m))
      && read j = Bipartite.Graph g
      && read (Relation_model.json_of_encoded irregular) = Bipartite.Graph g
      && Relation_model.decode (Relation_model.encode m) = m)

(* The payload builders on any payload, canonical or not, give the
   canonical form of the edges it denotes: the forms a capture writes take
   the direct path, the rest go through the rows. *)
let prop_payload_builders =
  QCheck2.Test.make ~name:"forms: payload builders = of_edges on any payload" ~count:400
    QCheck2.Gen.(
      let* np = int_range 1 7 and* nc = int_range 1 7 in
      let* parent_of = array_repeat nc (int_range 0 (np - 1))
      and* child_of = array_repeat np (int_range (-2) (nc - 1))
      and* gp = array_repeat np (int_range (-2) (nc - 1))
      and* gc = array_repeat nc (int_range (-2) (nc - 1)) in
      return (np, nc, parent_of, child_of, gp, gc))
    (fun (np, nc, parent_of, child_of, gp, gc) ->
      let edges f =
        List.concat
          (List.init np (fun p ->
               List.filter_map (fun c -> if f p c then Some (p, c) else None) (List.init nc Fun.id)))
      in
      let canon f = Bipartite.of_edges ~n_parents:np ~n_children:nc (edges f) in
      Bipartite.of_parent_of ~n_parents:np (Array.copy parent_of) = canon (fun p c -> parent_of.(c) = p)
      && Bipartite.of_child_of ~n_children:nc (Array.copy child_of) = canon (fun p c -> child_of.(p) = c)
      && Bipartite.of_groups ~group_of_parent:(Array.copy gp) ~group_of_child:(Array.copy gc)
         = canon (fun p c -> gp.(p) >= 0 && gp.(p) = gc.(c)))

(* The irregular form of any edge set, built by hand: not canonical. *)
let listed ~n_parents ~n_children edges =
  let m = Relation_model.of_edges ~n_parents ~n_children edges in
  let flat rows =
    let off = Array.make (Array.length rows + 1) 0 in
    Array.iteri (fun i r -> off.(i + 1) <- off.(i) + Array.length r) rows;
    (off, Array.concat (Array.to_list rows))
  in
  let par_off, pars = flat m.Relation_model.parents_of and kid_off, kids = flat m.Relation_model.children_of in
  { Bipartite.n_parents; n_children; form = Bipartite.Irregular { par_off; pars; kid_off; kids } }

(* A window row and the listed row of the same edges are equal, in either
   order, and stop being so when one edge moves. *)
let test_equal_across_forms () =
  let edges = [ (0, 0); (1, 0); (1, 1); (2, 1); (3, 2); (4, 3) ] in
  let window = Bipartite.of_edges ~n_parents:6 ~n_children:4 edges in
  (match window.Bipartite.form with
  | Bipartite.Overlapped _ -> ()
  | _ -> Alcotest.fail "expected an overlapped form");
  let same = listed ~n_parents:6 ~n_children:4 edges in
  let moved = listed ~n_parents:6 ~n_children:4 ((5, 3) :: List.tl (List.rev edges)) in
  Alcotest.(check bool) "window = listed" true (Bipartite.equal window same);
  Alcotest.(check bool) "listed = window" true (Bipartite.equal same window);
  Alcotest.(check bool) "one edge moved" false (Bipartite.equal window moved);
  Alcotest.(check bool) "moved, other order" false (Bipartite.equal moved window)

(* Payloads that name nodes outside the relation, in the forms whose ids
   the builders check, read as Bad like every other malformed payload. *)
let test_malformed_forms () =
  let rel kind fields = Json.Obj (("k", Json.Str kind) :: fields) in
  let packed = Jsonc.json_of_packed_ints_rle in
  List.iter
    (fun (what, j) ->
      match Jsonc.relation_of_json ~n_parents:8 ~n_children:8 j with
      | exception Jsonc.Bad _ -> ()
      | exception e -> Alcotest.failf "%s: raised %s instead of Bad" what (Printexc.to_string e)
      | _ -> Alcotest.failf "%s: decoded garbage successfully" what)
    [
      ("grp child group past the children", rel "grp" [ ("gp", packed [| 0; 0 |]); ("gc", packed [| 2; 0 |]) ]);
      ("grp parent group past the children", rel "grp" [ ("gp", packed [| 5 |]); ("gc", packed [| 0 |]) ]);
      ("ovl negative window", rel "ovl" [ ("np", Json.Num 2.0); ("w", packed [| 0; -1 |]) ]);
      ("ovl window before 0", rel "ovl" [ ("np", Json.Num 2.0); ("w", packed [| -1; 2 |]) ]);
      ("irr parent past np", rel "irr" [ ("np", Json.Num 2.0); ("po", packed [| 1; 1; 2 |]) ]);
      ("o2o negative", rel "o2o" [ ("n", Json.Num (-1.0)) ]);
    ]

let suite =
  suite
  @ [
      QCheck_alcotest.to_alcotest prop_model_pattern;
      QCheck_alcotest.to_alcotest prop_model_accessors;
      QCheck_alcotest.to_alcotest prop_model_codec;
      QCheck_alcotest.to_alcotest prop_payload_builders;
      Alcotest.test_case "forms: equal holds a window row against a listed row" `Quick
        test_equal_across_forms;
      Alcotest.test_case "forms: malformed group and window payloads are Bad" `Quick
        test_malformed_forms;
    ]
