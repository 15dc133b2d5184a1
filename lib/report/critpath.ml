(* Empirical critical path through an executed schedule.

   Walks the event stream backward from the span that ends at the
   makespan, at each step asking "what released this span's start?": a
   dependency satisfaction, a freed TB slot, the kernel's launch
   completing, a stream window opening, a copy finishing — or nothing
   device-side, in which case the gap back to the previous span end is
   host time (mallocs, issue) and joins the path as an explicit [Nhost]
   node.  The result is a contiguous chain of spans covering exactly
   [0, makespan]: the makespan *is* the critical path of a completed
   schedule, and the interesting output is its composition — which
   kernels, which edge kinds, how much host time.

   Cause matching works on the same quantized ticks as Attrib, so "the
   copy finished at the instant the kernel enqueued" is an integer
   equality, not a float tolerance.  Same-tick cycles (zero-length spans
   in Ideal mode, cascaded completions) are broken by a visited set plus
   a strictly-earlier fallback anchor, so the walk always terminates. *)

module Stats = Bm_gpu.Stats
module Parse = Attrib.Parse

type node_kind =
  | Ntb of { seq : int; tb : int }
  | Ncopy of { cmd : int; d2h : bool }
  | Nlaunch of { seq : int }
  | Nhost

type edge =
  | Start        (* chain origin at tick 0 *)
  | Dep          (* released by a dependency satisfaction *)
  | Slot         (* released by a freed TB slot *)
  | Launch_wait  (* released by the kernel's own launch completing *)
  | Window       (* released by a stream window opening *)
  | Copy_wait    (* released by a copy finishing *)
  | Host_gap     (* preceded by host-side serial time *)
  | Program      (* host program order (issue after previous span) *)

let edges = [ Start; Dep; Slot; Launch_wait; Window; Copy_wait; Host_gap; Program ]

let edge_name = function
  | Start -> "start"
  | Dep -> "dep"
  | Slot -> "slot"
  | Launch_wait -> "launch"
  | Window -> "window"
  | Copy_wait -> "copy"
  | Host_gap -> "host"
  | Program -> "program"

let kind_label = function
  | Ntb _ -> "tb"
  | Ncopy _ -> "copy"
  | Nlaunch _ -> "launch"
  | Nhost -> "host"

type node = { cn_kind : node_kind; cn_start : int; cn_end : int; cn_edge : edge }

type t = { cp_makespan_ticks : int; cp_nodes : node array }

let length_ticks t = Array.fold_left (fun acc n -> acc + (n.cn_end - n.cn_start)) 0 t.cp_nodes
let length_us t = Attrib.us_of_ticks (length_ticks t)
let makespan_us t = Attrib.us_of_ticks t.cp_makespan_ticks

(* --- extraction -------------------------------------------------------- *)

let of_parsed machine (p : Parse.t) =
  let open Parse in
  let codes = p.p_codes and ticks = p.p_ticks and n = p.p_events in
  (* Exact-instant cause matching: the entries of one tick are the
     contiguous run [first_at tick, first_at (tick + 1)) of the sorted
     tick column. *)
  let first_at tick =
    let lo = ref 0 and hi = ref (Array.length codes) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if ticks.(mid) < tick then lo := mid + 1 else hi := mid
    done;
    !lo
  in
  (* The last event at [tick] that [f] maps to a result. *)
  let last_at tick f =
    let first = first_at tick in
    let rec back i = if i < first then None else match f i with Some _ as r -> r | None -> back (i - 1) in
    back (first_at (tick + 1) - 1)
  in
  (* Event [i] is a TB finish ([finish_tb]), or an entry ([record]). *)
  let finish_tb i = if codes.(i) land 3 = 2 then (codes.(i) lsr 2) land ((1 lsl 30) - 1) else -1 in
  let record i = if codes.(i) land 3 = 3 then Some (Trace.entry p.p_trace codes.(i)).Trace.ev else None in
  let n_cmds = Array.fold_left (fun m c -> Int.max m (c.c_cmd + 1)) 0 p.p_copies in
  let copy_by_cmd = Array.make n_cmds None in
  Array.iter (fun c -> copy_by_cmd.(c.c_cmd) <- Some c) p.p_copies;
  let copy_node cmd =
    match if cmd >= 0 && cmd < n_cmds then copy_by_cmd.(cmd) else None with
    | Some c -> Some (Ncopy { cmd; d2h = c.c_d2h }, c.c_start, c.c_finish)
    | None -> None
  in
  (* Span-end anchors, ascending: the gap fallback finds the latest
     device-side span end at or before a tick. *)
  let anchors =
    Array.of_seq
      (Seq.filter
         (fun i ->
           finish_tb i >= 0
           || match record i with Some (Stats.Copy_finish _ | Stats.Kernel_launched _) -> true | _ -> false)
         (Seq.init (Array.length codes) Fun.id))
  in
  let node_of_anchor idx =
    let tb = finish_tb idx in
    if tb >= 0 then begin
      let seq = codes.(idx) lsr 32 in
      let k = p.p_seqs.(seq) in
      let start = if k.k_dispatch.(tb) >= 0 then k.k_dispatch.(tb) else k.k_finish.(tb) in
      Some (Ntb { seq; tb }, start, k.k_finish.(tb))
    end
    else
      match record idx with
      | Some (Stats.Copy_finish { cmd; d2h; _ }) ->
        Option.map (fun (_, s, e) -> (Ncopy { cmd; d2h }, s, e)) (copy_node cmd)
      | Some (Stats.Kernel_launched { seq; _ }) ->
        (match kernel_of p seq with
        | Some k when k.k_enqueue >= 0 -> Some (Nlaunch { seq }, k.k_enqueue, k.k_launched)
        | _ -> None)
      | _ -> None
  in
  (* Latest anchor with tick <= limit (or < limit when [strict]). *)
  let latest_anchor ?(strict = false) limit =
    let ok tick = if strict then tick < limit else tick <= limit in
    let lo = ref 0 and hi = ref (Array.length anchors) in
    (* binary search for the first anchor NOT ok; the answer precedes it *)
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if ok ticks.(anchors.(mid)) then lo := mid + 1 else hi := mid
    done;
    if !lo = 0 then None else node_of_anchor anchors.(!lo - 1)
  in
  let launch_node seq =
    match kernel_of p seq with
    | Some k when k.k_enqueue >= 0 && k.k_launched >= 0 ->
      Some (Nlaunch { seq }, k.k_enqueue, k.k_launched)
    | _ -> None
  in
  let tb_node seq tb =
    let k = p.p_seqs.(seq) in
    if k.k_dispatch.(tb) >= 0 && k.k_finish.(tb) >= 0 then
      Some (Ntb { seq; tb }, k.k_dispatch.(tb), k.k_finish.(tb))
    else None
  in
  (* Last Tb_finish at [tick] matching [pred], as a node. *)
  let find_tb_finish ?(pred = fun _ _ -> true) tick =
    last_at tick (fun i ->
        let tb = finish_tb i and seq = codes.(i) lsr 32 in
        if tb >= 0 && pred seq tb then tb_node seq tb else None)
  in
  let find_copy_finish ?(exclude = -1) tick =
    last_at tick (fun i ->
        match record i with Some (Stats.Copy_finish { cmd; _ }) when cmd <> exclude -> copy_node cmd | _ -> None)
  in
  let find_completion ?(stream = -1) tick =
    last_at tick (fun i ->
        match record i with
        | Some (Stats.Kernel_completed { seq; stream = st }) when stream < 0 || st = stream -> Some seq
        | _ -> None)
  in
  (* What a kernel's completion at [tick] traces back to: its own drain
     (the last finishing TB, or the launch for zero-TB kernels), or — when
     it drained earlier and completed in a cascade — its stream
     predecessor's completion at the same tick. *)
  let rec completion_node seq tick depth =
    if depth > n + 4 then None
    else
      match kernel_of p seq with
      | None -> None
      | Some k ->
        if k.k_drained >= 0 && k.k_drained = tick then
          if k.k_tbs > 0 then
            match find_tb_finish ~pred:(fun s _ -> s = seq) tick with
            | Some nd -> Some nd
            | None -> launch_node seq
          else launch_node seq
        else if k.k_prev >= 0 then completion_node k.k_prev tick (depth + 1)
        else None
  in
  let cause_of kind start =
    match kind with
    | Ntb { seq; tb } ->
      let k = p.p_seqs.(seq) in
      let dep =
        if start >= 0 && dep_tick p machine k tb = start then
          match find_tb_finish ~pred:(fun s _ -> k.k_prev < 0 || s = k.k_prev) start with
          | Some nd -> Some (Dep, nd)
          | None ->
            (match if k.k_prev >= 0 then launch_node k.k_prev else None with
            | Some nd -> Some (Dep, nd)
            | None -> None)
        else None
      in
      (match dep with
      | Some _ -> dep
      | None ->
        if k.k_launched = start then
          match launch_node seq with Some nd -> Some (Launch_wait, nd) | None -> None
        else
          match find_tb_finish start with
          | Some nd -> Some (Slot, nd)
          | None -> None)
    | Nlaunch { seq } ->
      let stream = match kernel_of p seq with Some k -> k.k_stream | None -> -1 in
      (match find_completion ~stream start with
      | Some done_seq when done_seq <> seq ->
        (match completion_node done_seq start 0 with
        | Some nd -> Some (Window, nd)
        | None -> None)
      | Some _ | None ->
        (match find_copy_finish start with
        | Some nd -> Some (Copy_wait, nd)
        | None -> None))
    | Ncopy { cmd; _ } ->
      (match find_copy_finish ~exclude:cmd start with
      | Some nd -> Some (Copy_wait, nd)
      | None ->
        (match find_completion start with
        | Some done_seq ->
          (match completion_node done_seq start 0 with
          | Some nd -> Some (Dep, nd)
          | None -> None)
        | None -> None))
    | Nhost -> None
  in
  (* Backward walk.  [pending] is the current unedged node; [acc] holds
     the later (already edged) nodes in chronological order. *)
  let visited : (node_kind * int * int, unit) Hashtbl.t = Hashtbl.create 64 in
  let budget = ref ((4 * n) + 16) in
  let rec walk acc (kind, s, e) =
    decr budget;
    if s <= 0 || !budget <= 0 then { cn_kind = kind; cn_start = max s 0; cn_end = e; cn_edge = Start } :: acc
    else begin
      Hashtbl.replace visited (kind, s, e) ();
      let fresh = function
        | Some (_, (k, a, b)) when Hashtbl.mem visited (k, a, b) -> None
        | x -> x
      in
      match fresh (cause_of kind s) with
      | Some (edge, (pk, ps, pe)) when pe = s && ps <= pe ->
        walk ({ cn_kind = kind; cn_start = s; cn_end = e; cn_edge = edge } :: acc) (pk, ps, pe)
      | _ ->
        (* Host gap back to the latest (unvisited, possibly strictly
           earlier) span end. *)
        let anchor =
          match fresh (Option.map (fun nd -> (Program, nd)) (latest_anchor s)) with
          | Some (_, nd) -> Some nd
          | None ->
            (match latest_anchor ~strict:true s with
            | Some (k, a, b) when not (Hashtbl.mem visited (k, a, b)) -> Some (k, a, b)
            | _ -> None)
        in
        (match anchor with
        | Some (ak, as_, ae) when ae = s ->
          (* zero-length gap: plain program order, no host node *)
          walk ({ cn_kind = kind; cn_start = s; cn_end = e; cn_edge = Program } :: acc) (ak, as_, ae)
        | Some (ak, as_, ae) when ae < s ->
          let acc = { cn_kind = kind; cn_start = s; cn_end = e; cn_edge = Host_gap } :: acc in
          let acc = { cn_kind = Nhost; cn_start = ae; cn_end = s; cn_edge = Program } :: acc in
          walk acc (ak, as_, ae)
        | _ ->
          { cn_kind = Nhost; cn_start = 0; cn_end = s; cn_edge = Start }
          :: { cn_kind = kind; cn_start = s; cn_end = e; cn_edge = Host_gap }
          :: acc)
    end
  in
  let makespan = p.p_makespan in
  let terminal =
    (* the last span-end anchor; completions/drains at the same tick chain
       through it *)
    if Array.length anchors = 0 then None else node_of_anchor anchors.(Array.length anchors - 1)
  in
  let nodes =
    match terminal with
    | None ->
      if makespan > 0 then [ { cn_kind = Nhost; cn_start = 0; cn_end = makespan; cn_edge = Start } ]
      else []
    | Some ((_, _, te) as t0) ->
      let tail =
        if te < makespan then
          [ { cn_kind = Nhost; cn_start = te; cn_end = makespan; cn_edge = Host_gap } ]
        else []
      in
      walk tail t0
  in
  { cp_makespan_ticks = makespan; cp_nodes = Array.of_list nodes }

let of_trace machine trace = of_parsed machine (Parse.of_trace trace)

(* --- breakdowns -------------------------------------------------------- *)

let by_kernel t =
  let acc : (int, int ref) Hashtbl.t = Hashtbl.create 16 in
  Array.iter
    (fun nd ->
      let seq =
        match nd.cn_kind with Ntb { seq; _ } -> seq | Nlaunch { seq } -> seq | Ncopy _ | Nhost -> -1
      in
      if seq >= 0 then begin
        let r =
          match Hashtbl.find_opt acc seq with
          | Some r -> r
          | None ->
            let r = ref 0 in
            Hashtbl.add acc seq r;
            r
        in
        r := !r + (nd.cn_end - nd.cn_start)
      end)
    t.cp_nodes;
  Hashtbl.fold (fun seq r l -> (seq, !r) :: l) acc []
  |> List.sort (fun (sa, a) (sb, b) ->
         let c = compare b a in
         if c <> 0 then c else compare sa sb)
  |> Array.of_list

let kind_ticks t =
  let labels = [ "tb"; "launch"; "copy"; "host" ] in
  List.map
    (fun lbl ->
      ( lbl,
        Array.fold_left
          (fun acc nd -> if kind_label nd.cn_kind = lbl then acc + (nd.cn_end - nd.cn_start) else acc)
          0 t.cp_nodes ))
    labels

let edge_breakdown t =
  List.filter_map
    (fun e ->
      let count = ref 0 and ticks = ref 0 in
      Array.iter
        (fun nd ->
          if nd.cn_edge = e then begin
            incr count;
            ticks := !ticks + (nd.cn_end - nd.cn_start)
          end)
        t.cp_nodes;
      if !count = 0 then None else Some (edge_name e, !count, !ticks))
    edges

let node_label nd =
  match nd.cn_kind with
  | Ntb { seq; tb } -> Printf.sprintf "k%d:tb%d" seq tb
  | Ncopy { cmd; d2h } -> Printf.sprintf "%s #%d" (if d2h then "D2H" else "H2D") cmd
  | Nlaunch { seq } -> Printf.sprintf "launch k%d" seq
  | Nhost -> "host"

let table ?(title = "critical path") t =
  let tab = Report.table ~title ~columns:[ "kind"; "ticks"; "us"; "share" ] in
  let total = max t.cp_makespan_ticks 1 in
  List.iter
    (fun (lbl, ticks) ->
      Report.row tab
        [ lbl; string_of_int ticks; Printf.sprintf "%.2f" (Attrib.us_of_ticks ticks);
          Printf.sprintf "%.1f%%" (100.0 *. float_of_int ticks /. float_of_int total) ])
    (kind_ticks t);
  Report.row tab
    [ "total"; string_of_int (length_ticks t); Printf.sprintf "%.2f" (length_us t); "100.0%" ];
  tab

let edges_table ?(title = "critical path: edges") t =
  let tab = Report.table ~title ~columns:[ "edge"; "count"; "us on path" ] in
  List.iter
    (fun (name, count, ticks) ->
      Report.row tab [ name; string_of_int count; Printf.sprintf "%.2f" (Attrib.us_of_ticks ticks) ])
    (edge_breakdown t);
  tab

let top_table ?(title = "critical path: top kernels") ?(top = 5) t =
  let tab = Report.table ~title ~columns:[ "kernel"; "us on path"; "share" ] in
  let total = max t.cp_makespan_ticks 1 in
  Array.iteri
    (fun i (seq, ticks) ->
      if i < top then
        Report.row tab
          [ Printf.sprintf "k%d" seq; Printf.sprintf "%.2f" (Attrib.us_of_ticks ticks);
            Printf.sprintf "%.1f%%" (100.0 *. float_of_int ticks /. float_of_int total) ])
    (by_kernel t);
  tab
