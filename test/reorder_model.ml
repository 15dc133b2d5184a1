(* The hash-table scan [Bm_maestro.Reorder.dependencies] replaced: two
   [Hashtbl]s (last writer, readers since the last write) and a
   [List.sort_uniq] of each command's predecessors.  Kept as the model the
   array-indexed scan is tested against, edge for edge. *)

open Bm_maestro.Reorder

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
