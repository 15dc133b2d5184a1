(* Per-layer accounting over Prof span trees.

   Spans are recorded by the ledger around the public entry point of each
   layer; inside Prep.prepare the existing [?prof] hook adds the pipeline
   stages.  The same Prof runs on two clocks: process CPU seconds for self
   time, and Gc.minor_words for allocation (a second, identical pass). *)

module Prof = Bm_metrics.Prof

(* User plus system time of this process: one getrusage call, where
   Unix.times makes a second one for child processes. *)
let cpu_seconds = Sys.time


(* Prep.prepare's stage spans; they are charged to "prepare.<stage>"
   wherever they nest (Graph.capture prepares too). *)
let prepare_stages = [ "analyze"; "footprint"; "costmodel"; "relate"; "encode"; "reorder" ]

let store_families = [ "footprint"; "profile"; "rw"; "relation" ]

let names =
  [ "build"; "prepare" ]
  @ List.map (fun s -> "prepare." ^ s) prepare_stages
  @ [ "store.open"; "graph.capture"; "graph.decode"; "sim"; "replay"; "corun"; "explain"; "rta" ]
  @ List.concat_map (fun f -> [ "store." ^ f ^ ".read"; "store." ^ f ^ ".write" ]) store_families

let layer_of_path path =
  match List.rev path with
  | [] -> invalid_arg "Layers.layer_of_path: empty path"
  | leaf :: _ -> if List.mem leaf prepare_stages then "prepare." ^ leaf else leaf

type usage = { self : float; calls : int }

(* Self time (total minus children, per Prof.summaries) and entry counts,
   summed per layer over every path that maps to it. *)
let usage prof =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (s : Prof.summary) ->
      let layer = layer_of_path s.Prof.s_path in
      let u = Option.value (Hashtbl.find_opt tbl layer) ~default:{ self = 0.0; calls = 0 } in
      Hashtbl.replace tbl layer { self = u.self +. s.Prof.s_self_s; calls = u.calls + s.Prof.s_count })
    (Prof.summaries prof);
  fun layer -> Option.value (Hashtbl.find_opt tbl layer) ~default:{ self = 0.0; calls = 0 }
