module Command = Bm_gpu.Command

type rw = {
  reads : int list;
  writes : int list;
}

let inter a b = List.exists (fun x -> List.mem x b) a

let conflicts a b =
  inter a.writes b.reads || inter a.reads b.writes || inter a.writes b.writes

(* One left-to-right scan with per-buffer last-writer / readers-since-write
   state instead of the quadratic all-pairs [conflicts] sweep (GAUSSIAN
   alone is ~1.5k commands, >1M pair checks).  The edge set is smaller than
   the all-pairs one — a WAW chain w1→w2→w3 omits w1→w3 — but has the same
   transitive closure, and scheduling readiness ("every predecessor
   emitted") only depends on the closure, so [reorder] output is
   unchanged.

   Buffer ids from [Bm_gpu.Alloc] count up from 0, so the state lives in
   arrays indexed by id; ids that are negative or spread far beyond the
   command count (hand-built apps, decoded graphs) are first renumbered
   densely through a hash table. *)
let dependencies rws =
  let n = Array.length rws in
  let lo = ref 0 and hi = ref (-1) in
  let see b =
    lo := min !lo b;
    hi := max !hi b
  in
  Array.iter
    (fun rw ->
      List.iter see rw.reads;
      List.iter see rw.writes)
    rws;
  let rws, size =
    if !lo >= 0 && !hi < (4 * n) + 64 then (rws, !hi + 1)
    else begin
      let ids = Hashtbl.create 64 in
      let index b =
        match Hashtbl.find_opt ids b with
        | Some i -> i
        | None ->
          let i = Hashtbl.length ids in
          Hashtbl.add ids b i;
          i
      in
      let rws =
        Array.map (fun rw -> { reads = List.map index rw.reads; writes = List.map index rw.writes }) rws
      in
      (rws, Hashtbl.length ids)
    end
  in
  let writer = Array.make size (-1) and readers = Array.make size [] in
  (* [mark.(i) = j]: [i] is already among [j]'s predecessors [preds.(j)],
     which are sorted increasing once [j] is scanned, so prepending them
     lists each target's edges by decreasing source, as before. *)
  let mark = Array.make n (-1) and preds = Array.make n [] in
  for j = 0 to n - 1 do
    let add i =
      if i >= 0 && mark.(i) <> j then begin
        mark.(i) <- j;
        preds.(j) <- i :: preds.(j)
      end
    in
    List.iter (fun b -> add writer.(b)) rws.(j).reads;
    List.iter
      (fun b ->
        add writer.(b);
        List.iter add readers.(b))
      rws.(j).writes;
    List.iter
      (fun b ->
        writer.(b) <- j;
        readers.(b) <- [])
      rws.(j).writes;
    List.iter (fun b -> readers.(b) <- j :: readers.(b)) rws.(j).reads;
    preds.(j) <- List.sort Int.compare preds.(j)
  done;
  let edges = ref [] in
  for j = n - 1 downto 0 do
    List.iter (fun i -> edges := (i, j) :: !edges) preds.(j)
  done;
  !edges

(* Command [i] leaves in phase [phase.(i)]: the count of kernels that must
   leave before it.  A kernel's phase is its rank, so kernels leave in
   program order; a memory operation's is the latest phase among its
   predecessors.  Edges run forward and come sorted by target, so one pass
   settles every phase, and a kernel's predecessors all sit in earlier
   phases: once a phase's memory operations are out, the next kernel is
   ready.  Each phase opens with its kernel, then its memory operations in
   index order — what draining every ready memory operation before the
   next kernel emits. *)
let reorder commands =
  let n = Array.length commands in
  let is_kernel i = match fst commands.(i) with Command.Kernel_launch _ -> true | _ -> false in
  let rank = ref 0 in
  let phase = Array.init n (fun i -> if is_kernel i then (incr rank; !rank) else 0) in
  List.iter
    (fun (i, j) ->
      if is_kernel j then assert (phase.(i) < phase.(j))
      else phase.(j) <- max phase.(j) phase.(i))
    (dependencies (Array.map snd commands));
  let key i = (2 * phase.(i)) + if is_kernel i then 0 else 1 in
  List.init n Fun.id
  |> List.filter (fun i -> match fst commands.(i) with Command.Device_synchronize -> false | _ -> true)
  |> List.stable_sort (fun i j -> Int.compare (key i) (key j))
  |> Array.of_list
