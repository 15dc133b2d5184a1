(* Unit and property tests for the simulation-engine substrate. *)

module Eheap = Bm_engine.Eheap
module Lru = Bm_engine.Lru
module Rng = Bm_engine.Rng

let test_heap_empty () =
  let h = Heap.create () in
  Alcotest.(check bool) "fresh heap empty" true (Heap.is_empty h);
  Alcotest.(check (option (pair (float 0.0) int))) "pop empty" None (Heap.pop h)

let test_heap_order () =
  let h = Heap.create () in
  List.iter (fun (k, v) -> Heap.push h k v) [ (3.0, "c"); (1.0, "a"); (2.0, "b") ];
  let popped = List.init 3 (fun _ -> match Heap.pop h with Some (_, v) -> v | None -> "?") in
  Alcotest.(check (list string)) "min first" [ "a"; "b"; "c" ] popped

let test_heap_fifo_ties () =
  let h = Heap.create () in
  List.iter (fun v -> Heap.push h 1.0 v) [ 1; 2; 3; 4 ];
  let popped = List.init 4 (fun _ -> match Heap.pop h with Some (_, v) -> v | None -> -1) in
  Alcotest.(check (list int)) "insertion order on ties" [ 1; 2; 3; 4 ] popped

let test_heap_peek () =
  let h = Heap.create () in
  Heap.push h 5.0 ();
  Heap.push h 2.0 ();
  Alcotest.(check (option (float 0.0))) "peek min" (Some 2.0) (Heap.peek_key h);
  Alcotest.(check int) "size" 2 (Heap.size h)

(* pop must not strand popped entries in the backing array: a vacated slot
   keeping its record alive pins the payload (simulation events hold
   closures over large state) for the heap's whole lifetime.  stale_slots
   counts slots in [size, capacity) still holding a real entry. *)
let test_heap_no_stale_entries () =
  let h = Heap.create () in
  for i = 1 to 100 do
    Heap.push h (float_of_int (i * 7 mod 31)) i
  done;
  (* Partial drain: the vacated tail must already be cleared. *)
  for _ = 1 to 60 do
    ignore (Heap.pop h)
  done;
  Alcotest.(check int) "no stale slots after partial drain" 0 (Heap.stale_slots h);
  while not (Heap.is_empty h) do
    ignore (Heap.pop h)
  done;
  Alcotest.(check int) "no stale slots when empty" 0 (Heap.stale_slots h);
  (* Reuse after a drain, including the grow path, stays clean. *)
  for i = 1 to 300 do
    Heap.push h (Rng.jitter i 0) i
  done;
  for _ = 1 to 123 do
    ignore (Heap.pop h)
  done;
  Alcotest.(check int) "no stale slots after regrow + drain" 0 (Heap.stale_slots h)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  Alcotest.(check bool) "different seeds differ" true (Rng.next_int64 a <> Rng.next_int64 b)

let test_jitter_stable () =
  Alcotest.(check (float 0.0)) "jitter is a pure function" (Rng.jitter 7 13) (Rng.jitter 7 13);
  let j = Rng.jitter 3 5 in
  Alcotest.(check bool) "jitter in [0,1)" true (j >= 0.0 && j < 1.0)

let prop_heap_sorted =
  QCheck2.Test.make ~name:"heap pops in nondecreasing key order" ~count:200
    QCheck2.Gen.(list (pair (float_bound_exclusive 1000.0) small_int))
    (fun entries ->
      let h = Heap.create () in
      List.iter (fun (k, v) -> Heap.push h k v) entries;
      let rec drain last =
        match Heap.pop h with
        | None -> true
        | Some (k, _) -> k >= last && drain k
      in
      drain neg_infinity)

let prop_heap_conserves =
  QCheck2.Test.make ~name:"heap returns exactly what was pushed" ~count:200
    QCheck2.Gen.(list (pair (float_bound_exclusive 100.0) small_int))
    (fun entries ->
      let h = Heap.create () in
      List.iter (fun (k, v) -> Heap.push h k v) entries;
      let rec drain acc = match Heap.pop h with None -> acc | Some (_, v) -> drain (v :: acc) in
      let out = drain [] in
      List.sort compare out = List.sort compare (List.map snd entries))

let test_eheap_basics () =
  let h = Eheap.create () and cell = [| 0.0 |] in
  Alcotest.(check bool) "fresh empty" true (Eheap.is_empty h);
  Eheap.push h 3.0 30;
  Eheap.push h 1.0 10;
  Eheap.push h 2.0 20;
  Alcotest.(check int) "size" 3 (Eheap.size h);
  Alcotest.(check int) "pop ev" 10 (Eheap.pop_into h cell);
  Alcotest.(check (float 0.0)) "min key" 1.0 cell.(0);
  Alcotest.(check int) "size after pop" 2 (Eheap.size h);
  Alcotest.(check int) "pop ev again" 20 (Eheap.pop_into h cell);
  Alcotest.(check (float 0.0)) "second key" 2.0 cell.(0);
  Alcotest.(check int) "last" 30 (Eheap.pop_into h cell);
  Alcotest.(check (float 0.0)) "last key" 3.0 cell.(0);
  Alcotest.(check bool) "drained" true (Eheap.is_empty h);
  Alcotest.(check int) "size drained" 0 (Eheap.size h)

(* The cell variants carry keys through a float array, so a push/pop
   cycle allocates nothing even across the module boundary. *)
let test_eheap_cells () =
  let h = Eheap.create () and cell = [| 0.0 |] in
  cell.(0) <- 2.0;
  Eheap.push_at h cell 20;
  Eheap.push h 1.0 10;
  Alcotest.(check int) "pop_into ev" 10 (Eheap.pop_into h cell);
  Alcotest.(check (float 0.0)) "pop_into key" 1.0 cell.(0);
  Alcotest.(check int) "pop_into last" 20 (Eheap.pop_into h cell);
  Alcotest.(check (float 0.0)) "pushed key" 2.0 cell.(0);
  Alcotest.check_raises "pop_into on empty" (Invalid_argument "Eheap.pop_into: empty") (fun () ->
      ignore (Eheap.pop_into h cell));
  for i = 0 to 1023 do
    cell.(0) <- float_of_int (i * 7 mod 1024);
    Eheap.push_at h cell i
  done;
  let before = Gc.minor_words () in
  for _ = 1 to 100_000 do
    let ev = Eheap.pop_into h cell in
    cell.(0) <- cell.(0) +. 1024.0;
    Eheap.push_at h cell ev
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) (Printf.sprintf "100k cycles allocate nothing (%.0f words)" words) true
    (words < 64.0)

let test_eheap_fifo_ties () =
  let h = Eheap.create () and cell = [| 0.0 |] in
  List.iter (fun v -> Eheap.push h 1.0 v) [ 1; 2; 3; 4 ];
  let popped = List.init 4 (fun _ -> Eheap.pop_into h cell) in
  Alcotest.(check (list int)) "insertion order on ties" [ 1; 2; 3; 4 ] popped

(* The generic Heap is the model: the specialized event heap must pop the
   exact same (key, payload) stream, ties included, because the simulator's
   cycle-exact behavior depends on the pop order.  Half the lists draw keys
   from at most 8 distinct values, so the sequence tie-break decides most
   comparisons; lists reach 2,000 entries, past the 256-slot initial
   capacity, so [grow] runs on a non-empty heap.  [size] must agree after
   every operation.  The interleaved property pushes even payloads
   through [push_at], odd ones through [push]. *)
let gen_eheap_entries bound =
  QCheck2.Gen.(
    let* tied = bool in
    let key =
      if tied then map (fun i -> float_of_int i *. bound /. 8.0) (int_range 0 7)
      else float_bound_exclusive bound
    in
    list_size (int_range 0 2000) (pair key small_nat))

let same_size h e = Heap.size h = Eheap.size e

let prop_eheap_matches_heap =
  QCheck2.Test.make ~name:"eheap pops exactly like the generic heap" ~count:300 ~long_factor:10
    (gen_eheap_entries 100.0)
    (fun entries ->
      let h = Heap.create () and e = Eheap.create () and cell = [| 0.0 |] in
      List.for_all
        (fun (k, v) ->
          Heap.push h k v;
          Eheap.push e k v;
          same_size h e)
        entries
      &&
      let rec drain () =
        match Heap.pop h with
        | None -> Eheap.is_empty e
        | Some (k, v) ->
          (not (Eheap.is_empty e))
          && Eheap.pop_into e cell = v && cell.(0) = k && same_size h e && drain ()
      in
      drain ())

let prop_eheap_interleaved =
  QCheck2.Test.make ~name:"eheap matches heap under interleaved push/pop" ~count:200 ~long_factor:10
    (gen_eheap_entries 50.0)
    (fun ops ->
      let h = Heap.create () and e = Eheap.create () and cell = [| 0.0 |] in
      List.for_all
        (fun (k, v) ->
          (if v mod 3 = 0 && not (Heap.is_empty h) then (
             match Heap.pop h with
             | Some (hk, hv) -> Eheap.pop_into e cell = hv && cell.(0) = hk
             | None -> false)
           else begin
             Heap.push h k v;
             if v mod 2 = 0 then begin
               cell.(0) <- k;
               Eheap.push_at e cell v
             end
             else Eheap.push e k v;
             true
           end)
          && same_size h e)
        ops
      &&
      let rec drain () =
        match Heap.pop h with
        | None -> Eheap.is_empty e
        | Some (k, v) -> Eheap.pop_into e cell = v && cell.(0) = k && same_size h e && drain ()
      in
      drain ())

(* Every heap of 0 to 40 entries against the model, over key patterns
   aimed at the pop's child choice: all keys equal and 0.0/-0.0 ties (the
   [seq] tie-break at every level), two alternating values, ascending and
   descending keys, and descending pairs, where each later equal key rises
   past its twin's parent so that equal siblings hold the older entry on
   the right.  Across the sizes the sinking hole meets a lone left child
   on the last level.  Each pattern runs as a bulk fill then drain, with a
   pop after every second push, and as the engine's cycle (fill, then pop
   and push back at a later key).  Pops compare the key's bits, so 0.0
   and -0.0 are told apart, and [size] is logged after every operation. *)
let small_patterns =
  [
    ("equal", fun _ -> 1.0);
    ("alternating", fun i -> float_of_int (i land 1));
    ("ascending", float_of_int);
    ("descending", fun i -> float_of_int (100 - i));
    ("signed zeros", fun i -> if i mod 3 = 0 then 0.0 else -0.0);
    ("descending pairs", fun i -> if i = 0 then 0.0 else float_of_int (50 - (i / 2)));
  ]

type small_heap = { push : float -> int -> unit; pop : unit -> float * int; size : unit -> int }

let model_heap () =
  let h = Heap.create () in
  {
    push = Heap.push h;
    pop = (fun () -> match Heap.pop h with Some kv -> kv | None -> invalid_arg "empty model");
    size = (fun () -> Heap.size h);
  }

let event_heap () =
  let e = Eheap.create () and cell = [| 0.0 |] in
  {
    push = (fun k v -> cell.(0) <- k; Eheap.push_at e cell v);
    pop = (fun () -> let v = Eheap.pop_into e cell in (cell.(0), v));
    size = (fun () -> Eheap.size e);
  }

(* One run's log: a push is (0, -1, size after), a pop (key bits,
   payload, size after); payloads are >= 0. *)
let small_run key n schedule (h : small_heap) =
  let log = ref [] in
  let push i k =
    h.push k i;
    log := (0L, -1, h.size ()) :: !log
  in
  let pop () =
    let k, v = h.pop () in
    log := (Int64.bits_of_float k, v, h.size ()) :: !log;
    k
  in
  (match schedule with
  | `Bulk -> for i = 0 to n - 1 do push i (key i) done
  | `Interleaved ->
    for i = 0 to n - 1 do
      push i (key i);
      if i land 1 = 1 then ignore (pop ())
    done
  | `Cycle ->
    for i = 0 to n - 1 do push i (key i) done;
    for j = 0 to n - 1 do
      let k = pop () in
      push (n + j) (k +. Float.abs (key (n + j)))
    done);
  while h.size () > 0 do ignore (pop ()) done;
  List.rev !log

let test_eheap_small_exhaustive () =
  let op = Alcotest.(list (triple int64 int int)) in
  List.iter
    (fun (name, key) ->
      for n = 0 to 40 do
        List.iter
          (fun (sname, schedule) ->
            Alcotest.check op
              (Printf.sprintf "%s, %d entries, %s" name n sname)
              (small_run key n schedule (model_heap ()))
              (small_run key n schedule (event_heap ())))
          [ ("bulk", `Bulk); ("interleaved", `Interleaved); ("cycle", `Cycle) ]
      done)
    small_patterns

let test_lru_basics () =
  let l = Lru.create ~capacity:2 in
  Alcotest.(check int) "capacity" 2 (Lru.capacity l);
  Lru.add l "a" 1;
  Lru.add l "b" 2;
  Alcotest.(check (option int)) "find a" (Some 1) (Lru.find l "a");
  (* "a" was just refreshed, so the third insert evicts "b". *)
  Lru.add l "c" 3;
  Alcotest.(check (option int)) "b evicted" None (Lru.find l "b");
  Alcotest.(check (option int)) "a kept (refreshed)" (Some 1) (Lru.find l "a");
  Alcotest.(check int) "one eviction" 1 (Lru.evictions l);
  Alcotest.(check int) "length at capacity" 2 (Lru.length l)

let test_lru_replace_and_mem () =
  let l = Lru.create ~capacity:2 in
  Lru.add l 1 "x";
  Lru.add l 1 "y";
  Alcotest.(check (option string)) "replaced in place" (Some "y") (Lru.find l 1);
  Alcotest.(check int) "no eviction on replace" 0 (Lru.evictions l);
  Lru.add l 2 "b";
  (* mem must not refresh recency: key 1 stays coldest and gets evicted. *)
  Alcotest.(check bool) "mem sees 1" true (Lru.mem l 1);
  Lru.add l 3 "c";
  Alcotest.(check bool) "1 evicted despite mem" false (Lru.mem l 1);
  Alcotest.(check bool) "2 kept" true (Lru.mem l 2);
  Alcotest.check_raises "capacity < 1 rejected" (Invalid_argument "Lru.create: capacity must be >= 1")
    (fun () -> ignore (Lru.create ~capacity:0))

let prop_float01_range =
  QCheck2.Test.make ~name:"float_01 stays in [0,1)" ~count:500 QCheck2.Gen.small_int
    (fun seed ->
      let r = Rng.create seed in
      let x = Rng.float_01 r in
      x >= 0.0 && x < 1.0)

let suite =
  [
    Alcotest.test_case "heap: empty" `Quick test_heap_empty;
    Alcotest.test_case "heap: ordering" `Quick test_heap_order;
    Alcotest.test_case "heap: fifo on ties" `Quick test_heap_fifo_ties;
    Alcotest.test_case "heap: peek and size" `Quick test_heap_peek;
    Alcotest.test_case "heap: pop clears vacated slots" `Quick test_heap_no_stale_entries;
    Alcotest.test_case "rng: determinism" `Quick test_rng_deterministic;
    Alcotest.test_case "rng: seed sensitivity" `Quick test_rng_seed_sensitivity;
    Alcotest.test_case "rng: jitter stable" `Quick test_jitter_stable;
    Alcotest.test_case "eheap: basics" `Quick test_eheap_basics;
    Alcotest.test_case "eheap: fifo on ties" `Quick test_eheap_fifo_ties;
    Alcotest.test_case "eheap: cell variants allocate nothing" `Quick test_eheap_cells;
    Alcotest.test_case "eheap: every small heap against the model" `Quick test_eheap_small_exhaustive;
    Alcotest.test_case "lru: eviction order" `Quick test_lru_basics;
    Alcotest.test_case "lru: replace and mem" `Quick test_lru_replace_and_mem;
    QCheck_alcotest.to_alcotest prop_heap_sorted;
    QCheck_alcotest.to_alcotest prop_heap_conserves;
    QCheck_alcotest.to_alcotest prop_eheap_matches_heap;
    QCheck_alcotest.to_alcotest prop_eheap_interleaved;
    QCheck_alcotest.to_alcotest prop_float01_range;
  ]
