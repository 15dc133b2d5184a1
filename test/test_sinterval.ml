(* Unit and property tests for strided intervals — the value-range domain. *)

module I = Bm_analysis.Sinterval

let iv = Alcotest.testable I.pp I.equal

let test_singleton () =
  let s = I.singleton 5 in
  Alcotest.(check bool) "mem" true (I.mem 5 s);
  Alcotest.(check bool) "not mem" false (I.mem 6 s);
  Alcotest.(check int) "count" 1 (I.count s)

let test_make_normalizes () =
  (* hi clamps to the greatest reachable element. *)
  Alcotest.check iv "clamp hi" (I.make ~lo:0 ~hi:8 ~stride:4) (I.make ~lo:0 ~hi:11 ~stride:4);
  Alcotest.check iv "singleton collapse" (I.singleton 3) (I.make ~lo:3 ~hi:3 ~stride:7)

let test_add () =
  let a = I.make ~lo:0 ~hi:12 ~stride:4 in
  let b = I.singleton 100 in
  Alcotest.check iv "shift" (I.make ~lo:100 ~hi:112 ~stride:4) (I.add a b)

let test_mul_const () =
  let a = I.make ~lo:0 ~hi:3 ~stride:1 in
  Alcotest.check iv "scale" (I.make ~lo:0 ~hi:12 ~stride:4) (I.mul_const a 4);
  Alcotest.check iv "negate scale" (I.make ~lo:(-12) ~hi:0 ~stride:4) (I.mul_const a (-4))

let test_intersects_disjoint_ranges () =
  let a = I.range 0 10 and b = I.range 11 20 in
  Alcotest.(check bool) "disjoint" false (I.intersects a b);
  Alcotest.(check bool) "touching" true (I.intersects (I.range 0 11) b)

let test_intersects_strides () =
  (* Evens vs odds never meet. *)
  let evens = I.make ~lo:0 ~hi:100 ~stride:2 in
  let odds = I.make ~lo:1 ~hi:101 ~stride:2 in
  Alcotest.(check bool) "parity" false (I.intersects evens odds);
  (* Multiples of 3 vs multiples of 5 meet at 15. *)
  let m3 = I.make ~lo:3 ~hi:14 ~stride:3 and m5 = I.make ~lo:5 ~hi:20 ~stride:5 in
  Alcotest.(check bool) "no common below 15" false (I.intersects m3 m5);
  let m3' = I.make ~lo:3 ~hi:15 ~stride:3 in
  Alcotest.(check bool) "meet at 15" true (I.intersects m3' m5)

let test_join () =
  let a = I.range 0 10 and b = I.range 20 30 in
  let j = I.join a b in
  Alcotest.(check bool) "covers a" true (I.subset a j);
  Alcotest.(check bool) "covers b" true (I.subset b j)

let test_div_rem () =
  let a = I.make ~lo:0 ~hi:28 ~stride:4 in
  Alcotest.check iv "div" (I.make ~lo:0 ~hi:7 ~stride:1) (I.div_const a 4);
  let r = I.rem_const (I.range 0 100) 8 in
  Alcotest.(check bool) "rem bounded" true (I.subset r (I.range 0 7))

let test_shl_shr () =
  let a = I.range 0 7 in
  Alcotest.check iv "shl" (I.make ~lo:0 ~hi:28 ~stride:4) (I.shl a 2);
  Alcotest.(check bool) "shr inverse covers" true (I.subset a (I.shr (I.shl a 2) 2))

(* Concretize small intervals for exhaustive soundness checks. *)
let elements (t : I.t) =
  let step = max 1 t.I.stride in
  let rec go x acc = if x > t.I.hi then List.rev acc else go (x + step) (x :: acc) in
  go t.I.lo []

let gen_small_interval =
  QCheck2.Gen.(
    let* lo = int_range (-50) 50 in
    let* len = int_range 0 20 in
    let* stride = int_range 1 7 in
    return (I.make ~lo ~hi:(lo + (len * stride)) ~stride))

let prop_add_sound =
  QCheck2.Test.make ~name:"add over-approximates pointwise sums" ~count:300
    QCheck2.Gen.(pair gen_small_interval gen_small_interval)
    (fun (a, b) ->
      let s = I.add a b in
      List.for_all (fun x -> List.for_all (fun y -> I.mem (x + y) s) (elements b)) (elements a))

let prop_sub_sound =
  QCheck2.Test.make ~name:"sub over-approximates pointwise differences" ~count:300
    QCheck2.Gen.(pair gen_small_interval gen_small_interval)
    (fun (a, b) ->
      let s = I.sub a b in
      List.for_all (fun x -> List.for_all (fun y -> I.mem (x - y) s) (elements b)) (elements a))

let prop_mul_sound =
  QCheck2.Test.make ~name:"mul over-approximates pointwise products" ~count:300
    QCheck2.Gen.(pair gen_small_interval gen_small_interval)
    (fun (a, b) ->
      let s = I.mul a b in
      List.for_all (fun x -> List.for_all (fun y -> I.mem (x * y) s) (elements b)) (elements a))

let prop_join_sound =
  QCheck2.Test.make ~name:"join covers both operands" ~count:300
    QCheck2.Gen.(pair gen_small_interval gen_small_interval)
    (fun (a, b) ->
      let j = I.join a b in
      List.for_all (fun x -> I.mem x j) (elements a)
      && List.for_all (fun x -> I.mem x j) (elements b))

let prop_intersects_exact =
  QCheck2.Test.make ~name:"intersects agrees with concrete intersection" ~count:500 ~long_factor:10
    QCheck2.Gen.(pair gen_small_interval gen_small_interval)
    (fun (a, b) ->
      let concrete = List.exists (fun x -> I.mem x b) (elements a) in
      I.intersects a b = concrete)

let prop_div_sound =
  QCheck2.Test.make ~name:"div_const over-approximates" ~count:300
    QCheck2.Gen.(pair gen_small_interval (int_range 1 9))
    (fun (a, c) ->
      let s = I.div_const a c in
      let fdiv x = if x >= 0 then x / c else -(((-x) + c - 1) / c) in
      List.for_all (fun x -> I.mem (fdiv x) s) (elements a))

let prop_count_matches =
  QCheck2.Test.make ~name:"count equals number of concrete elements" ~count:300 gen_small_interval
    (fun a -> I.count a = List.length (elements a))

let prop_neg_sound =
  QCheck2.Test.make ~name:"neg over-approximates pointwise negation" ~count:300 gen_small_interval
    (fun a ->
      let s = I.neg a in
      List.for_all (fun x -> I.mem (-x) s) (elements a))

let prop_mul_const_sound =
  QCheck2.Test.make ~name:"mul_const over-approximates" ~count:300
    QCheck2.Gen.(pair gen_small_interval (int_range (-9) 9))
    (fun (a, c) ->
      let s = I.mul_const a c in
      List.for_all (fun x -> I.mem (x * c) s) (elements a))

let prop_rem_sound =
  QCheck2.Test.make ~name:"rem_const over-approximates" ~count:300
    QCheck2.Gen.(pair gen_small_interval (int_range 1 9))
    (fun (a, c) ->
      let s = I.rem_const a c in
      List.for_all (fun x -> I.mem (x mod c) s) (elements a))

let prop_shl_shr_sound =
  QCheck2.Test.make ~name:"shl/shr over-approximate" ~count:300
    QCheck2.Gen.(pair gen_small_interval (int_range 0 4))
    (fun (a, k) ->
      let sl = I.shl a k and sr = I.shr a k in
      List.for_all (fun x -> I.mem (x lsl k) sl) (elements a)
      && List.for_all (fun x -> I.mem (x asr k) sr) (elements a))

let prop_min_max_sound =
  QCheck2.Test.make ~name:"min_/max_ over-approximate pointwise min/max" ~count:300
    QCheck2.Gen.(pair gen_small_interval gen_small_interval)
    (fun (a, b) ->
      let lo = I.min_ a b and hi = I.max_ a b in
      List.for_all
        (fun x ->
          List.for_all (fun y -> I.mem (min x y) lo && I.mem (max x y) hi) (elements b))
        (elements a))

let prop_subset_exact =
  QCheck2.Test.make ~name:"subset agrees with concrete containment" ~count:500 ~long_factor:10
    QCheck2.Gen.(pair gen_small_interval gen_small_interval)
    (fun (a, b) ->
      let concrete = List.for_all (fun x -> I.mem x b) (elements a) in
      I.subset a b = concrete)

(* --- exhaustive small-domain checks --------------------------------------

   Every operation the footprint summaries are built from, on every
   interval with bounds in [-16, 16] and stride at most 8, against the
   concrete sets: [make] and [shift] exactly, [mul_const] exactly, and
   [add], [div_const], [rem_const] and [join] soundly, with the bounds
   that [Footprint]'s closed forms read off exactly where they rely on
   them. *)

(* Each such value set once, as [make] normalizes it, with its elements. *)
let small_domain =
  let all = ref [] in
  for lo = -16 to 16 do
    all := I.singleton lo :: !all;
    for stride = 1 to 8 do
      let hi = ref (lo + stride) in
      while !hi <= 16 do
        all := I.make ~lo ~hi:!hi ~stride :: !all;
        hi := !hi + stride
      done
    done
  done;
  Array.of_list (List.rev_map (fun t -> (t, elements t)) !all)

let divisors = [ -9; -8; -7; -6; -5; -4; -3; -2; -1; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]

let concrete xs = List.sort_uniq compare xs

let expect what ok ~args = if not ok then Alcotest.failf "%s wrong on %s" what (args ())

let test_exhaustive_make () =
  for lo = -16 to 16 do
    for hi = lo to 16 do
      for stride = 0 to 8 do
        let t = I.make ~lo ~hi ~stride in
        let want =
          if stride = 0 then [ lo ]
          else List.filter (fun x -> (x - lo) mod stride = 0) (List.init (hi - lo + 1) (( + ) lo))
        in
        expect "make" ~args:(fun () -> Printf.sprintf "lo %d hi %d stride %d" lo hi stride)
          (elements t = want
          && (t.I.stride = 0) = (List.length want = 1)
          && I.make ~lo:t.I.lo ~hi:t.I.hi ~stride:t.I.stride = t)
      done
    done
  done;
  Alcotest.(check int) "distinct value sets" (Array.length small_domain)
    (List.length (List.sort_uniq compare (Array.to_list (Array.map snd small_domain))))

let test_exhaustive_unary () =
  Array.iter
    (fun (t, xs) ->
      let args () = I.to_string t in
      for d = -16 to 16 do
        let s = I.shift t d in
        expect "shift" ~args
          (elements s = List.map (( + ) d) xs && I.make ~lo:s.I.lo ~hi:s.I.hi ~stride:s.I.stride = s)
      done;
      for c = -9 to 9 do
        expect "mul_const" ~args (elements (I.mul_const t c) = concrete (List.map (( * ) c) xs))
      done;
      List.iter
        (fun c ->
          let floor x = if x >= 0 then x / abs c else -(((-x) + abs c - 1) / abs c) in
          let quotient x = if c > 0 then floor x else -floor x in
          let q = I.div_const t c and qs = concrete (List.map quotient xs) in
          expect "div_const" ~args
            (List.for_all (fun x -> I.mem x q) qs
            && q.I.lo = List.hd qs
            && q.I.hi = List.nth qs (List.length qs - 1));
          let r = I.rem_const t c in
          expect "rem_const" ~args (List.for_all (fun x -> I.mem (x mod c) r) xs))
        divisors)
    small_domain

let test_exhaustive_binary () =
  Array.iter
    (fun ((a : I.t), xs) ->
      Array.iter
        (fun ((b : I.t), ys) ->
          let args () = I.to_string a ^ " and " ^ I.to_string b in
          let s = I.add a b and j = I.join a b in
          expect "add" ~args
            (s.I.lo = a.I.lo + b.I.lo
            && s.I.hi = a.I.hi + b.I.hi
            && List.for_all (fun x -> List.for_all (fun y -> I.mem (x + y) s) ys) xs
            && (b.I.stride <> 0 || I.equal s (I.shift a b.I.lo)));
          expect "join" ~args
            (j.I.lo = min a.I.lo b.I.lo
            && j.I.hi = max a.I.hi b.I.hi
            && List.for_all (fun x -> I.mem x j) xs
            && List.for_all (fun y -> I.mem y j) ys))
        small_domain)
    small_domain

let suite =
  [
    Alcotest.test_case "singleton" `Quick test_singleton;
    Alcotest.test_case "normalization" `Quick test_make_normalizes;
    Alcotest.test_case "add" `Quick test_add;
    Alcotest.test_case "mul_const" `Quick test_mul_const;
    Alcotest.test_case "intersects: ranges" `Quick test_intersects_disjoint_ranges;
    Alcotest.test_case "intersects: strides (CRT)" `Quick test_intersects_strides;
    Alcotest.test_case "join" `Quick test_join;
    Alcotest.test_case "div/rem" `Quick test_div_rem;
    Alcotest.test_case "shl/shr" `Quick test_shl_shr;
    QCheck_alcotest.to_alcotest prop_add_sound;
    QCheck_alcotest.to_alcotest prop_sub_sound;
    QCheck_alcotest.to_alcotest prop_mul_sound;
    QCheck_alcotest.to_alcotest prop_join_sound;
    QCheck_alcotest.to_alcotest prop_intersects_exact;
    QCheck_alcotest.to_alcotest prop_div_sound;
    QCheck_alcotest.to_alcotest prop_count_matches;
    QCheck_alcotest.to_alcotest prop_neg_sound;
    QCheck_alcotest.to_alcotest prop_mul_const_sound;
    QCheck_alcotest.to_alcotest prop_rem_sound;
    QCheck_alcotest.to_alcotest prop_shl_shr_sound;
    QCheck_alcotest.to_alcotest prop_min_max_sound;
    QCheck_alcotest.to_alcotest prop_subset_exact;
  ]

(* --- symbolic expression algebra -------------------------------------- *)

module Sym = Bm_analysis.Sym

let test_sym_constant_folding () =
  Alcotest.(check bool) "add folds" true (Sym.add (Sym.Const 2) (Sym.Const 3) = Sym.Const 5);
  Alcotest.(check bool) "mul by zero" true (Sym.mul (Sym.Param "x") (Sym.Const 0) = Sym.Const 0);
  Alcotest.(check bool) "mul by one" true (Sym.mul (Sym.Param "x") (Sym.Const 1) = Sym.Param "x");
  Alcotest.(check bool) "add zero" true (Sym.add (Sym.Const 0) (Sym.Param "x") = Sym.Param "x");
  Alcotest.(check bool) "shl folds to mul" true
    (Sym.shl (Sym.Param "x") (Sym.Const 3) = Sym.Mul (Sym.Param "x", Sym.Const 8));
  Alcotest.(check bool) "div folds" true (Sym.div (Sym.Const 10) (Sym.Const 3) = Sym.Const 3);
  Alcotest.(check bool) "min folds" true (Sym.min_ (Sym.Const 4) (Sym.Const 9) = Sym.Const 4)

let test_sym_static_detection () =
  let e = Sym.add (Sym.Mul (Sym.Special (Bm_ptx.Types.Ctaid Bm_ptx.Types.X), Sym.Param "w")) (Sym.Const 4) in
  Alcotest.(check bool) "static" true (Sym.is_static e);
  let bad = Sym.add e (Sym.Unknown "load") in
  Alcotest.(check bool) "unknown poisons" false (Sym.is_static bad);
  Alcotest.(check (option string)) "reason surfaces" (Some "load") (Sym.first_unknown bad)

let test_sym_params () =
  let e = Sym.add (Sym.Param "A") (Sym.Mul (Sym.Param "n", Sym.Param "A")) in
  Alcotest.(check (list string)) "dedup order" [ "A"; "n" ] (Sym.params e)

let test_sym_pp () =
  let e = Sym.Add (Sym.Param "A", Sym.Mul (Sym.Const 4, Sym.Special (Bm_ptx.Types.Tid Bm_ptx.Types.X))) in
  Alcotest.(check string) "printable" "(A + (4 * %tid.x))" (Sym.to_string e)

let sym_suite =
  [
    Alcotest.test_case "sym: constant folding" `Quick test_sym_constant_folding;
    Alcotest.test_case "sym: static detection" `Quick test_sym_static_detection;
    Alcotest.test_case "sym: parameter collection" `Quick test_sym_params;
    Alcotest.test_case "sym: printing" `Quick test_sym_pp;
  ]

let suite = suite @ sym_suite

let suite =
  suite
  @ [
      Alcotest.test_case "exhaustive: make" `Quick test_exhaustive_make;
      Alcotest.test_case "exhaustive: shift, mul_const, div_const, rem_const" `Quick
        test_exhaustive_unary;
      Alcotest.test_case "exhaustive: add, join" `Quick test_exhaustive_binary;
    ]

(* [intersects] and [subset] on every pair of the small domain, against
   the concrete sets; [meets] on every raw (lo, hi, stride) with
   |bounds| <= 16 and stride <= 8 against [intersects] of the interval
   [make] builds from it. *)
let test_exhaustive_relations () =
  let member xs =
    let s = Array.make 33 false in
    List.iter (fun x -> s.(x + 16) <- true) xs;
    s
  in
  let domain = Array.map (fun (t, xs) -> (t, xs, member xs)) small_domain in
  Array.iter
    (fun ((a : I.t), xs, _) ->
      Array.iter
        (fun ((b : I.t), _, ys) ->
          let args () = I.to_string a ^ " and " ^ I.to_string b in
          expect "intersects" ~args (I.intersects a b = List.exists (fun x -> ys.(x + 16)) xs);
          expect "subset" ~args (I.subset a b = List.for_all (fun x -> ys.(x + 16)) xs))
        domain)
    domain;
  for lo = -16 to 16 do
    for hi = lo to 16 do
      for stride = 0 to 8 do
        let a = I.make ~lo ~hi ~stride in
        Array.iter
          (fun ((b : I.t), _, _) ->
            expect "meets"
              ~args:(fun () -> Printf.sprintf "(%d, %d, %d) and %s" lo hi stride (I.to_string b))
              (I.meets ~lo ~hi ~stride b = I.intersects a b))
          domain
      done
    done
  done

let suite =
  suite
  @ [ Alcotest.test_case "exhaustive: intersects, subset, meets" `Quick test_exhaustive_relations ]
