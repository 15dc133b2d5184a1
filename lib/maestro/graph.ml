module Command = Bm_gpu.Command
module Config = Bm_gpu.Config
module Costmodel = Bm_gpu.Costmodel
module Bipartite = Bm_depgraph.Bipartite
module Encode = Bm_depgraph.Encode
module Fingerprint = Bm_analysis.Fingerprint
module Json = Bm_metrics.Json
module Metrics = Bm_metrics.Metrics

type gcmd =
  | Gmalloc
  | Gh2d of { bytes : int }
  | Gd2h of { bytes : int; wait : int }
  | Glaunch of { seq : int }
  | Gsync

type node = {
  n_seq : int;
  n_kname : string;
  n_prev : int;
  n_stream : int;
  n_tbs : int;
  n_tb_us : float array;
  n_mem_requests : float;
  n_relation : Bipartite.relation;
  n_sizes : Encode.sizes;
  n_copy_deps : int array;
}

type schedule = {
  s_commands : gcmd array;
  s_nodes : node array;
}

type t = {
  g_app : string;
  g_cfg_digest : string;
  g_fingerprint : string;
  g_plain : schedule;
  g_reordered : schedule;
}

type error =
  | Stale of { expected : string; got : string }
  | Corrupt of string

let pp_error ppf = function
  | Stale { expected; got } ->
    Format.fprintf ppf "stale graph: captured from fingerprint %s, app/config is %s" got expected
  | Corrupt msg -> Format.fprintf ppf "corrupt graph: %s" msg

(* --- fingerprinting ----------------------------------------------------- *)

(* Every config field, full float precision: the trace-metadata
   [Config.to_assoc] rounds and omits the cost-model fields, either of
   which would let two configs that prepare differently share a digest. *)
let cfg_canonical (c : Config.t) =
  Printf.sprintf "sms=%d;tbs=%d;clk=%h;kl=%h;api=%h;cdp=%h;ma=%h;ml=%h;mg=%h;cpi=%h;mx=%h;jf=%h;deg=%d;dlb=%d;dcpe=%d;pcb=%d;seed=%d"
    c.Config.num_sms c.Config.max_tbs_per_sm c.Config.clock_ghz c.Config.kernel_launch_us
    c.Config.launch_api_us c.Config.cdp_launch_us c.Config.malloc_us c.Config.memcpy_latency_us
    c.Config.memcpy_gb_per_s c.Config.cpi c.Config.mem_extra_cycles c.Config.jitter_frac
    c.Config.max_parent_degree c.Config.dlb_entries c.Config.dlb_children_per_entry
    c.Config.pcb_entries c.Config.seed

let cfg_digest cfg = Digest.to_hex (Digest.string (cfg_canonical cfg))

let buffer_canonical (b : Command.buffer) =
  Printf.sprintf "%d:%d:%d" b.Command.buf_id b.Command.base b.Command.bytes

let dim3_canonical (d : Bm_ptx.Types.dim3) =
  Printf.sprintf "%d,%d,%d" d.Bm_ptx.Types.dx d.Bm_ptx.Types.dy d.Bm_ptx.Types.dz

(* Kernel bodies enter through their structural fingerprint plus the
   declared name (the name itself never changes scheduling, but a captured
   graph reports it, so a rename must invalidate the capture too). *)
let app_canonical buf (app : Command.app) =
  Buffer.add_string buf app.Command.app_name;
  Buffer.add_char buf '\n';
  List.iter
    (fun cmd ->
      (match cmd with
      | Command.Malloc b -> Buffer.add_string buf ("M" ^ buffer_canonical b)
      | Command.Memcpy_h2d b -> Buffer.add_string buf ("H" ^ buffer_canonical b)
      | Command.Memcpy_d2h b -> Buffer.add_string buf ("D" ^ buffer_canonical b)
      | Command.Device_synchronize -> Buffer.add_string buf "S"
      | Command.Kernel_launch spec ->
        Buffer.add_string buf
          (Printf.sprintf "K[%s|s%d|g%s|b%s|" spec.Command.kernel.Bm_ptx.Types.kname
             spec.Command.stream (dim3_canonical spec.Command.grid)
             (dim3_canonical spec.Command.block));
        List.iter
          (fun (name, arg) ->
            Buffer.add_string buf
              (match arg with
              | Command.Buf b -> Printf.sprintf "%s=B%s;" name (buffer_canonical b)
              | Command.Int i -> Printf.sprintf "%s=I%d;" name i))
          spec.Command.args;
        Buffer.add_string buf (Fingerprint.to_string (Fingerprint.of_kernel spec.Command.kernel));
        Buffer.add_char buf ']');
      Buffer.add_char buf '\n')
    app.Command.commands

let fingerprint cfg app =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (cfg_canonical cfg);
  Buffer.add_char buf '\n';
  app_canonical buf app;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* --- capture ------------------------------------------------------------ *)

(* Cost arrays are shared with the preparation, not copied: no one writes
   to one after the cost model builds it, and [Sim.run] lowers on every
   call. *)
let schedule_of_prep (prep : Prep.t) =
  let nodes =
    Array.map
      (fun (li : Prep.launch_info) ->
        {
          n_seq = li.Prep.li_seq;
          n_kname = li.Prep.li_spec.Command.kernel.Bm_ptx.Types.kname;
          n_prev = (match li.Prep.li_prev with Some p -> p | None -> -1);
          n_stream = li.Prep.li_spec.Command.stream;
          n_tbs = li.Prep.li_tbs;
          n_tb_us = li.Prep.li_cost.Costmodel.tb_us;
          n_mem_requests = Costmodel.total_mem_requests li.Prep.li_cost;
          n_relation = li.Prep.li_relation;
          n_sizes = li.Prep.li_sizes;
          n_copy_deps = Array.of_list (List.sort_uniq compare li.Prep.li_copy_deps);
        })
      prep.Prep.p_launches
  in
  let commands =
    Array.mapi
      (fun ci cmd ->
        match cmd with
        | Command.Malloc _ -> Gmalloc
        | Command.Memcpy_h2d b -> Gh2d { bytes = b.Command.bytes }
        | Command.Memcpy_d2h b ->
          Gd2h
            {
              bytes = b.Command.bytes;
              wait = (match prep.Prep.p_d2h_wait.(ci) with Some k -> k | None -> -1);
            }
        | Command.Kernel_launch _ -> Glaunch { seq = prep.Prep.p_kernel_of_cmd.(ci) }
        | Command.Device_synchronize -> Gsync)
      prep.Prep.p_commands
  in
  { s_commands = commands; s_nodes = nodes }

let capture ?cache ?prof cfg app =
  let plain = Prep.prepare ~reorder:false ?prof ?cache cfg app in
  let reordered = Prep.prepare ~reorder:true ?prof ?cache cfg app in
  {
    g_app = app.Command.app_name;
    g_cfg_digest = cfg_digest cfg;
    g_fingerprint = fingerprint cfg app;
    g_plain = schedule_of_prep plain;
    g_reordered = schedule_of_prep reordered;
  }

(* The cfg digest is checked too: [Replay.run] refuses a graph whose
   digest disagrees, so an edited [cfg] field must be stale here. *)
let validate cfg app t =
  let expected = fingerprint cfg app and digest = cfg_digest cfg in
  if not (String.equal expected t.g_fingerprint) then
    Error (Stale { expected; got = t.g_fingerprint })
  else if not (String.equal digest t.g_cfg_digest) then
    Error (Stale { expected = digest; got = t.g_cfg_digest })
  else Ok ()

(* --- equality ----------------------------------------------------------- *)

(* Bit-pattern float comparison: [equal] must be reflexive even on graphs
   that somehow carry NaNs, and must not conflate 0.0 with -0.0. *)
let float_eq a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let farray_eq a b =
  Array.length a = Array.length b
  &&
  let ok = ref true in
  Array.iteri (fun i x -> if not (float_eq x b.(i)) then ok := false) a;
  !ok

let relation_eq a b =
  match (a, b) with
  | Bipartite.Independent, Bipartite.Independent -> true
  | Bipartite.Fully_connected, Bipartite.Fully_connected -> true
  | Bipartite.Graph ga, Bipartite.Graph gb -> Bipartite.equal ga gb
  | (Bipartite.Independent | Bipartite.Fully_connected | Bipartite.Graph _), _ -> false

let node_eq a b =
  a.n_seq = b.n_seq && String.equal a.n_kname b.n_kname && a.n_prev = b.n_prev
  && a.n_stream = b.n_stream && a.n_tbs = b.n_tbs && farray_eq a.n_tb_us b.n_tb_us
  && float_eq a.n_mem_requests b.n_mem_requests
  && relation_eq a.n_relation b.n_relation
  && a.n_sizes = b.n_sizes
  && a.n_copy_deps = b.n_copy_deps

let schedule_eq a b =
  a.s_commands = b.s_commands
  && Array.length a.s_nodes = Array.length b.s_nodes
  &&
  let ok = ref true in
  Array.iteri (fun i n -> if not (node_eq n b.s_nodes.(i)) then ok := false) a.s_nodes;
  !ok

let equal a b =
  String.equal a.g_app b.g_app
  && String.equal a.g_cfg_digest b.g_cfg_digest
  && String.equal a.g_fingerprint b.g_fingerprint
  && schedule_eq a.g_plain b.g_plain
  && schedule_eq a.g_reordered b.g_reordered

(* --- JSON codec --------------------------------------------------------- *)

(* Per-TB costs, copy deps and relations use the packed forms the disk
   store uses: see Jsonc. *)
open Jsonc

let n_parents (nodes : node array) n = if n.n_prev >= 0 then nodes.(n.n_prev).n_tbs else 0

let json_of_node nodes n =
  let n_parents = n_parents nodes n in
  Json.Obj
    [
      ("seq", Json.Num (float_of_int n.n_seq));
      ("kname", Json.Str n.n_kname);
      ("prev", Json.Num (float_of_int n.n_prev));
      ("stream", Json.Num (float_of_int n.n_stream));
      ("tbs", Json.Num (float_of_int n.n_tbs));
      ("us", json_of_packed_floats_rle n.n_tb_us);
      ("mem", json_of_float n.n_mem_requests);
      ("deps", json_of_packed_ints_rle n.n_copy_deps);
      ("rel", json_of_relation ~n_parents ~n_children:n.n_tbs n.n_relation);
    ]

(* Sizes are not persisted: [schedule_of_json] measures them once the
   schedule has passed [check_schedule]. *)
let unmeasured = Encode.measure Bipartite.Independent

let node_of_json j =
  let what = "node" in
  {
    n_seq = int_field ~what "seq" j;
    n_kname = str_field ~what "kname" j;
    n_prev = int_field ~what "prev" j;
    n_stream = int_field ~what "stream" j;
    n_tbs = int_field ~what "tbs" j;
    n_tb_us = packed_floats_rle_of_json ~what:"node.us" (field ~what "us" j);
    n_mem_requests = float_of_json ~what:"node.mem" (field ~what "mem" j);
    n_copy_deps = packed_ints_rle_of_json ~what:"node.deps" (field ~what "deps" j);
    n_relation = relation_of_json (field ~what "rel" j);
    n_sizes = unmeasured;
  }

let json_of_cmd = function
  | Gmalloc -> Json.Obj [ ("t", Json.Str "ml") ]
  | Gh2d { bytes } -> Json.Obj [ ("t", Json.Str "h2d"); ("b", Json.Num (float_of_int bytes)) ]
  | Gd2h { bytes; wait } ->
    Json.Obj
      [
        ("t", Json.Str "d2h");
        ("b", Json.Num (float_of_int bytes));
        ("w", Json.Num (float_of_int wait));
      ]
  | Glaunch { seq } -> Json.Obj [ ("t", Json.Str "kl"); ("s", Json.Num (float_of_int seq)) ]
  | Gsync -> Json.Obj [ ("t", Json.Str "sy") ]

let cmd_of_json j =
  let what = "command" in
  match str_field ~what "t" j with
  | "ml" -> Gmalloc
  | "h2d" -> Gh2d { bytes = int_field ~what "b" j }
  | "d2h" -> Gd2h { bytes = int_field ~what "b" j; wait = int_field ~what "w" j }
  | "kl" -> Glaunch { seq = int_field ~what "s" j }
  | "sy" -> Gsync
  | t -> bad "%s: unknown kind %S" what t

let json_of_schedule s =
  Json.Obj
    [
      ("commands", Json.Arr (Array.to_list (Array.map json_of_cmd s.s_commands)));
      ("nodes", Json.Arr (Array.to_list (Array.map (json_of_node s.s_nodes) s.s_nodes)));
    ]

(* Structural sanity beyond field-level decoding: every cross-reference a
   replay dereferences must be in range, and the command stream must be
   one the engine can run to completion — launches in node order, D2H
   gates already launched, stream predecessors as capture computes them,
   copy deps on earlier H2Ds — so a hand-edited file fails here rather
   than as an array bound, a host stall or a hang inside the engine. *)
let check_schedule ~what s =
  let nn = Array.length s.s_nodes in
  let launch_cmd = Array.make nn 0 in
  let launches = ref 0 in
  Array.iteri
    (fun ci cmd ->
      match cmd with
      | Glaunch { seq } ->
        if seq <> !launches || seq >= nn then
          bad "%s: command %d launches node %d, expected node %d" what ci seq !launches;
        launch_cmd.(seq) <- ci;
        incr launches
      | Gd2h { wait; _ } ->
        if wait < -1 || wait >= !launches then
          bad "%s: command %d waits on node %d before its launch" what ci wait
      | Gmalloc | Gh2d _ | Gsync -> ())
    s.s_commands;
  if !launches <> nn then bad "%s: %d launch commands for %d nodes" what !launches nn;
  let last_on_stream = Hashtbl.create 4 in
  Array.iteri
    (fun i n ->
      if n.n_seq <> i then bad "%s: node %d has seq %d" what i n.n_seq;
      let prev = Option.value (Hashtbl.find_opt last_on_stream n.n_stream) ~default:(-1) in
      if n.n_prev <> prev then
        bad "%s: node %d has prev %d, but stream %d's latest earlier node is %d" what i n.n_prev
          n.n_stream prev;
      Hashtbl.replace last_on_stream n.n_stream i;
      if Array.length n.n_tb_us <> n.n_tbs then
        bad "%s: node %d has %d cost entries for %d TBs" what i (Array.length n.n_tb_us) n.n_tbs;
      Array.iter
        (fun ci ->
          let earlier_h2d =
            ci >= 0 && ci < launch_cmd.(i)
            && match s.s_commands.(ci) with Gh2d _ -> true | Gmalloc | Gd2h _ | Glaunch _ | Gsync -> false
          in
          if not earlier_h2d then
            bad "%s: node %d copy dep %d is not an H2D issued before its launch" what i ci)
        n.n_copy_deps;
      (* A TB graph must span this node's TBs and its predecessor's. *)
      match n.n_relation with
      | Bipartite.Independent | Bipartite.Fully_connected -> ()
      | Bipartite.Graph g ->
        if n.n_prev < 0 then bad "%s: node %d has a TB graph but no predecessor" what i;
        let np = s.s_nodes.(n.n_prev).n_tbs in
        let side name count rows bound expected =
          if count <> expected || Array.length rows <> expected then
            bad "%s: node %d relation sized %d/%d %s for %d TBs" what i count
              (Array.length rows) name expected;
          Array.iter
            (Array.iter (fun id ->
                 if id < 0 || id >= bound then
                   bad "%s: node %d relation id %d out of range" what i id))
            rows
        in
        side "children" g.Bipartite.n_children g.Bipartite.parents_of np n.n_tbs;
        side "parents" g.Bipartite.n_parents g.Bipartite.children_of n.n_tbs np)
    s.s_nodes;
  s

(* Measuring indexes [n_prev] and walks the relation, so it runs only on a
   checked schedule; [measure_pair] is what preparation measures with. *)
let schedule_of_json ~what j =
  let s =
    check_schedule ~what
      {
        s_commands =
          Array.of_list (List.map cmd_of_json (list_of_json ~what (field ~what "commands" j)));
        s_nodes = Array.of_list (List.map node_of_json (list_of_json ~what (field ~what "nodes" j)));
      }
  in
  let measured n =
    {
      n with
      n_sizes =
        Encode.measure_pair ~n_parents:(n_parents s.s_nodes n) ~n_children:n.n_tbs n.n_relation;
    }
  in
  { s with s_nodes = Array.map measured s.s_nodes }

let schema = "bm-graph"
let schema_version = 2

let to_json t =
  Json.Obj
    [
      ("schema", Json.Str schema);
      ("version", Json.Num (float_of_int schema_version));
      ("app", Json.Str t.g_app);
      ("cfg", Json.Str t.g_cfg_digest);
      ("fingerprint", Json.Str t.g_fingerprint);
      ("plain", json_of_schedule t.g_plain);
      ("reordered", json_of_schedule t.g_reordered);
    ]

let of_json j =
  match
    let what = "graph" in
    (match Json.member "schema" j with
    | Some (Json.Str s) when s = schema -> ()
    | Some _ | None -> bad "not a %s file" schema);
    (match Json.member "version" j with
    | Some v when Json.to_int v = Some schema_version -> ()
    | Some v ->
      bad "unsupported version %s (expected %d)"
        (match Json.to_int v with Some i -> string_of_int i | None -> "?")
        schema_version
    | None -> bad "missing version");
    {
      g_app = str_field ~what "app" j;
      g_cfg_digest = str_field ~what "cfg" j;
      g_fingerprint = str_field ~what "fingerprint" j;
      g_plain = schedule_of_json ~what:"plain" (field ~what "plain" j);
      g_reordered = schedule_of_json ~what:"reordered" (field ~what "reordered" j);
    }
  with
  | t -> Ok t
  | exception Bad msg -> Error (Corrupt msg)

let save file t =
  match
    let oc = open_out file in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> output_string oc (Json.to_string (to_json t)))
  with
  | () -> Ok ()
  | exception Sys_error msg -> Error msg

let load file =
  match
    let ic = open_in_bin file in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error msg -> Error (Corrupt msg)
  | exception End_of_file -> Error (Corrupt "unexpected end of file")
  | data -> (
    match Json.of_string data with
    | Error msg -> Error (Corrupt ("invalid JSON: " ^ msg))
    | Ok j -> of_json j)

(* --- introspection ------------------------------------------------------ *)

type summary = {
  sum_nodes : int;
  sum_edges : int;
  sum_commands : int;
  sum_encoded_bytes : int;
}

let summarize s =
  let edges = ref 0 and bytes = ref 0 in
  Array.iter
    (fun n ->
      edges :=
        !edges
        + Bipartite.edge_count n.n_relation ~n_parents:(n_parents s.s_nodes n) ~n_children:n.n_tbs;
      bytes := !bytes + n.n_sizes.Encode.encoded_bytes)
    s.s_nodes;
  {
    sum_nodes = Array.length s.s_nodes;
    sum_edges = !edges;
    sum_commands = Array.length s.s_commands;
    sum_encoded_bytes = !bytes;
  }

let export t metrics =
  let sum = summarize t.g_reordered in
  let add name v = Metrics.add (Metrics.counter metrics name) (float_of_int v) in
  add "graph.capture.nodes" sum.sum_nodes;
  add "graph.capture.edges" sum.sum_edges;
  add "graph.capture.commands" sum.sum_commands;
  add "graph.capture.encoded_bytes" sum.sum_encoded_bytes
