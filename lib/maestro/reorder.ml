module Command = Bm_gpu.Command

type rw = {
  reads : int list;
  writes : int list;
}

let inter a b = List.exists (fun x -> List.mem x b) a

let conflicts a b =
  inter a.writes b.reads || inter a.reads b.writes || inter a.writes b.writes

(* One left-to-right scan with per-buffer last-writer / readers-since-write
   indices instead of the quadratic all-pairs [conflicts] sweep (GAUSSIAN
   alone is ~1.5k commands, >1M pair checks).  The edge set is smaller than
   the all-pairs one — a WAW chain w1→w2→w3 omits w1→w3 — but has the same
   transitive closure, and scheduling readiness ("every predecessor
   emitted") only depends on the closure, so [reorder] output is
   unchanged. *)
let dependencies rws =
  let n = Array.length rws in
  let last_writer : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let readers : (int, int list ref) Hashtbl.t = Hashtbl.create 64 in
  let preds = Array.make n [] in
  for j = 0 to n - 1 do
    let add i = preds.(j) <- i :: preds.(j) in
    let writer b = match Hashtbl.find_opt last_writer b with Some i -> add i | None -> () in
    List.iter writer rws.(j).reads;
    List.iter
      (fun b ->
        writer b;
        match Hashtbl.find_opt readers b with Some l -> List.iter add !l | None -> ())
      rws.(j).writes;
    List.iter
      (fun b ->
        Hashtbl.replace last_writer b j;
        Hashtbl.replace readers b (ref []))
      rws.(j).writes;
    List.iter
      (fun b ->
        match Hashtbl.find_opt readers b with
        | Some l -> l := j :: !l
        | None -> Hashtbl.replace readers b (ref [ j ]))
      rws.(j).reads
  done;
  let edges = ref [] in
  for j = n - 1 downto 0 do
    List.iter (fun i -> edges := (i, j) :: !edges) (List.sort_uniq compare preds.(j))
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
