module Command = Bm_gpu.Command
module Config = Bm_gpu.Config
module Costmodel = Bm_gpu.Costmodel
module Bipartite = Bm_depgraph.Bipartite
module Encode = Bm_depgraph.Encode
module Fingerprint = Bm_analysis.Fingerprint
module Json = Bm_metrics.Json

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
  n_profile : Costmodel.profile;
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
  g_params : Costmodel.params;
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
          n_profile = li.Prep.li_profile;
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
    g_params = Costmodel.params cfg;
    g_plain = schedule_of_prep plain;
    g_reordered = schedule_of_prep reordered;
  }

let params_canonical (p : Costmodel.params) =
  Printf.sprintf "seed=%d;jf=%h;cpi=%h;mx=%h;clk=%h" p.Costmodel.seed p.Costmodel.jitter_frac
    p.Costmodel.cpi p.Costmodel.mem_extra_cycles p.Costmodel.clock_ghz

(* The cfg digest and the cost params are checked too: [Replay.run]
   refuses a graph whose digest or params disagree, so an edited [cfg] or
   [params] field must be stale here. *)
let validate cfg app t =
  let expected = fingerprint cfg app and digest = cfg_digest cfg in
  let params = Costmodel.params cfg in
  if not (String.equal expected t.g_fingerprint) then
    Error (Stale { expected; got = t.g_fingerprint })
  else if not (String.equal digest t.g_cfg_digest) then
    Error (Stale { expected = digest; got = t.g_cfg_digest })
  else if not (Costmodel.same_params params t.g_params) then
    Error (Stale { expected = params_canonical params; got = params_canonical t.g_params })
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
  && a.n_stream = b.n_stream && a.n_tbs = b.n_tbs
  && Costmodel.same_profile a.n_profile b.n_profile
  && farray_eq a.n_tb_us b.n_tb_us
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
  && Costmodel.same_params a.g_params b.g_params
  && schedule_eq a.g_plain b.g_plain
  && schedule_eq a.g_reordered b.g_reordered

(* --- JSON codec --------------------------------------------------------- *)

(* Format 3 persists what the schedules are built from, once each: a table
   of distinct cost profiles and a table of distinct encoded relations,
   which nodes reference by index, plus the cost params in the header.
   Per-TB costs are not persisted: decode expands each (profile, seq) pair
   once, as preparation does.  Profiles, relations and copy deps use the
   packed forms the disk store uses: see Jsonc. *)
open Jsonc

let n_parents (nodes : node array) n = if n.n_prev >= 0 then nodes.(n.n_prev).n_tbs else 0

(* One table of distinct values.  The launch-time cache shares profiles
   and relations between nodes and between the two classes, so a physical
   match is tried first; a miss falls back to the encoded text, so a
   cache-free capture, whose classes compute equal values separately,
   writes the same table. *)
type 'a table = {
  seen : (int, ('a * int) list) Hashtbl.t;  (* Hashtbl.hash -> values met *)
  texts : (string, int) Hashtbl.t;
  mutable rows : Json.t list;  (* newest first *)
  mutable count : int;
}

let table () = { seen = Hashtbl.create 64; texts = Hashtbl.create 64; rows = []; count = 0 }

let intern tbl ~same ~encode v =
  let h = Hashtbl.hash v in
  let met = Option.value (Hashtbl.find_opt tbl.seen h) ~default:[] in
  match List.find_opt (fun (v', _) -> same v v') met with
  | Some (_, i) -> i
  | None ->
    let j = encode v in
    let text = Json.to_string j in
    let i =
      match Hashtbl.find_opt tbl.texts text with
      | Some i -> i
      | None ->
        let i = tbl.count in
        Hashtbl.add tbl.texts text i;
        tbl.rows <- j :: tbl.rows;
        tbl.count <- i + 1;
        i
    in
    Hashtbl.replace tbl.seen h ((v, i) :: met);
    i

let rows tbl = Json.Arr (List.rev tbl.rows)

(* A relation's encoding depends on the pair's dimensions, which
   [Independent] and [Fully_connected] do not carry. *)
let same_pair (np, nc, r) (np', nc', r') = np = np' && nc = nc' && r == r'

let json_of_node ~profiles ~relations nodes n =
  let prof = intern profiles ~same:( == ) ~encode:json_of_profile n.n_profile in
  let rel =
    intern relations ~same:same_pair
      ~encode:(fun (n_parents, n_children, r) -> json_of_relation ~n_parents ~n_children r)
      (n_parents nodes n, n.n_tbs, n.n_relation)
  in
  Json.Obj
    [
      ("seq", Json.Num (float_of_int n.n_seq));
      ("kname", Json.Str n.n_kname);
      ("prev", Json.Num (float_of_int n.n_prev));
      ("stream", Json.Num (float_of_int n.n_stream));
      ("tbs", Json.Num (float_of_int n.n_tbs));
      ("prof", Json.Num (float_of_int prof));
      ("rel", Json.Num (float_of_int rel));
      ("deps", json_of_packed_ints_rle n.n_copy_deps);
    ]

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

let json_of_schedule ~profiles ~relations s =
  Json.Obj
    [
      ("commands", Json.Arr (Array.to_list (Array.map json_of_cmd s.s_commands)));
      ( "nodes",
        Json.Arr
          (Array.to_list (Array.map (json_of_node ~profiles ~relations s.s_nodes) s.s_nodes)) );
    ]

(* The seed persists as decimal text: a JSON number prints with %.12g. *)
let json_of_params (p : Costmodel.params) =
  Json.Obj
    [
      ("seed", Json.Str (string_of_int p.Costmodel.seed));
      ("jf", json_of_float p.Costmodel.jitter_frac);
      ("cpi", json_of_float p.Costmodel.cpi);
      ("mx", json_of_float p.Costmodel.mem_extra_cycles);
      ("clk", json_of_float p.Costmodel.clock_ghz);
    ]

let params_of_json j =
  let what = "params" in
  let float name = float_of_json ~what:(what ^ "." ^ name) (field ~what name j) in
  {
    Costmodel.seed =
      (match int_of_string_opt (str_field ~what "seed" j) with
      | Some seed -> seed
      | None -> bad "%s.seed: expected a decimal integer" what);
    jitter_frac = float "jf";
    cpi = float "cpi";
    mem_extra_cycles = float "mx";
    clock_ghz = float "clk";
  }

(* A decoded relation-table entry: the relation, the dimensions its
   encoding states, and its Table I sizes, measured once for every node
   that shares it. *)
type rel_entry = {
  r_parents : int;
  r_children : int;
  r_relation : Bipartite.relation;
  r_sizes : Encode.sizes;
}

let rel_entry_of_json ~max_tbs j =
  let n_parents, n_children, rel =
    sized_relation_of_json ~max_parents:max_tbs ~max_children:max_tbs j
  in
  {
    r_parents = n_parents;
    r_children = n_children;
    r_relation = rel;
    r_sizes = Encode.measure_pair ~n_parents ~n_children rel;
  }

let index_field ~what name table j =
  let i = int_field ~what name j in
  if i < 0 || i >= Array.length table then
    bad "%s.%s: index %d outside a table of %d" what name i (Array.length table);
  table.(i)

(* Node fields are decoded here; the cost column is filled in by
   [cost_expander] once both schedules have passed [check_schedule]. *)
let node_of_json ~profiles ~relations ~n_commands j =
  let what = "node" in
  let r = index_field ~what "rel" relations j in
  ( {
      n_seq = int_field ~what "seq" j;
      n_kname = str_field ~what "kname" j;
      n_prev = int_field ~what "prev" j;
      n_stream = int_field ~what "stream" j;
      n_tbs = int_field ~what "tbs" j;
      n_profile = index_field ~what "prof" profiles j;
      n_tb_us = [||];
      n_mem_requests = 0.0;
      n_copy_deps =
        packed_ints_rle_of_json ~what:"node.deps" ~limit:n_commands (field ~what "deps" j);
      n_relation = r.r_relation;
      n_sizes = r.r_sizes;
    },
    r )

(* Structural sanity beyond field-level decoding: every cross-reference a
   replay dereferences must be in range, and the command stream must be
   one the engine can run to completion — launches in node order, D2H
   gates already launched, stream predecessors as capture computes them,
   copy deps on earlier H2Ds — so a hand-edited file fails here rather
   than as an array bound, a host stall or a hang inside the engine.  A
   node's profile must cover its TBs, and the relation it references must
   have been encoded for exactly this node and its predecessor. *)
let check_schedule ~what s (rels : rel_entry array) =
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
      if Costmodel.profile_tbs n.n_profile <> n.n_tbs then
        bad "%s: node %d has a profile of %d TBs for %d TBs" what i
          (Costmodel.profile_tbs n.n_profile) n.n_tbs;
      Array.iter
        (fun ci ->
          let earlier_h2d =
            ci >= 0 && ci < launch_cmd.(i)
            && match s.s_commands.(ci) with Gh2d _ -> true | Gmalloc | Gd2h _ | Glaunch _ | Gsync -> false
          in
          if not earlier_h2d then
            bad "%s: node %d copy dep %d is not an H2D issued before its launch" what i ci)
        n.n_copy_deps;
      let r = rels.(i) in
      let np = n_parents s.s_nodes n in
      if r.r_parents <> np || r.r_children <> n.n_tbs then
        bad "%s: node %d relation sized %d parents/%d children for %d/%d TBs" what i r.r_parents
          r.r_children np n.n_tbs;
      match n.n_relation with
      | Bipartite.Graph _ when n.n_prev < 0 ->
        bad "%s: node %d has a TB graph but no predecessor" what i
      | Bipartite.Independent | Bipartite.Fully_connected | Bipartite.Graph _ -> ())
    s.s_nodes;
  s

let schedule_of_json ~profiles ~relations ~what j =
  let commands =
    Array.of_list (List.map cmd_of_json (list_of_json ~what (field ~what "commands" j)))
  in
  let n_commands = Array.length commands in
  let nodes =
    Array.of_list
      (List.map
         (node_of_json ~profiles ~relations ~n_commands)
         (list_of_json ~what (field ~what "nodes" j)))
  in
  check_schedule ~what { s_commands = commands; s_nodes = Array.map fst nodes } (Array.map snd nodes)

(* The largest TB count a node of either schedule states.  No profile or
   relation in the tables can be longer, so it bounds their payloads
   before they are decoded.  The counts are read in place, allocating
   nothing per node; a malformed one is left for [node_of_json] to
   report. *)
let max_node_tbs j =
  let node_max acc = function
    | Json.Obj fields ->
      List.fold_left
        (fun acc (k, v) ->
          match v with
          | Json.Num x when String.equal k "tbs" && Float.is_integer x ->
            let t = int_of_float x in
            if t > acc then t else acc
          | _ -> acc)
        acc fields
    | _ -> acc
  in
  List.fold_left
    (fun acc name ->
      let s = field ~what:"graph" name j in
      List.fold_left node_max acc (list_of_json ~what:name (field ~what:name "nodes" s)))
    0 [ "plain"; "reordered" ]

(* Each (profile, seq) column is expanded once and shared by the nodes of
   both schedules that launch it, as a cache-backed preparation shares
   it; as there, nothing writes these arrays.  Profiles decoded from the
   table are physically shared, so [==] finds a column. *)
let cost_expander params =
  let columns = Hashtbl.create 64 in  (* seq -> (profile, column) *)
  let fill n =
    let tb_us, mem =
      match List.assq_opt n.n_profile (Hashtbl.find_all columns n.n_seq) with
      | Some col -> col
      | None ->
        let c = Costmodel.of_profile params ~kernel_seq:n.n_seq n.n_profile in
        let col = (c.Costmodel.tb_us, Costmodel.total_mem_requests c) in
        Hashtbl.add columns n.n_seq (n.n_profile, col);
        col
    in
    { n with n_tb_us = tb_us; n_mem_requests = mem }
  in
  fun s -> { s with s_nodes = Array.map fill s.s_nodes }

let schema = "bm-graph"
let schema_version = 3

let to_json t =
  let profiles = table () and relations = table () in
  let plain = json_of_schedule ~profiles ~relations t.g_plain in
  let reordered = json_of_schedule ~profiles ~relations t.g_reordered in
  Json.Obj
    [
      ("schema", Json.Str schema);
      ("version", Json.Num (float_of_int schema_version));
      ("app", Json.Str t.g_app);
      ("cfg", Json.Str t.g_cfg_digest);
      ("fingerprint", Json.Str t.g_fingerprint);
      ("params", json_of_params t.g_params);
      ("profiles", rows profiles);
      ("relations", rows relations);
      ("plain", plain);
      ("reordered", reordered);
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
    let params = params_of_json (field ~what "params" j) in
    let table name decode =
      Array.of_list (List.map decode (list_of_json ~what (field ~what name j)))
    in
    let max_tbs = max_node_tbs j in
    let profiles = table "profiles" (profile_of_json ~max_tbs) in
    let relations = table "relations" (rel_entry_of_json ~max_tbs) in
    let schedule name = schedule_of_json ~profiles ~relations ~what:name (field ~what name j) in
    let plain = schedule "plain" in
    let reordered = schedule "reordered" in
    let expand = cost_expander params in
    {
      g_app = str_field ~what "app" j;
      g_cfg_digest = str_field ~what "cfg" j;
      g_fingerprint = str_field ~what "fingerprint" j;
      g_params = params;
      g_plain = expand plain;
      g_reordered = expand reordered;
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
