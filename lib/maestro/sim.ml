module Config = Bm_gpu.Config
module Stats = Bm_gpu.Stats
module Bipartite = Bm_depgraph.Bipartite
module Eheap = Bm_engine.Eheap
module Metrics = Bm_metrics.Metrics

(* Node execution state.  The static half comes from the {!Graph.node}; two
   link fields implement the owning app's active-node list ([-1] = nil,
   [-2] = not linked).  Nodes of every app live in one flat array: app
   [a]'s kernel [i] is flat index [k0 + i]. *)
type nstate = {
  node : Graph.node;
  app : int;
  ntbs : int;                (* = node.n_tbs, hoisted for the hot loops *)
  tb_us : float array;       (* = node.n_tb_us *)
  mutable launched : bool;
  mutable started_tbs : int;
  mutable done_tbs : int;
  mutable drained : bool;
  mutable drained_at : float;
  mutable completed : bool;
  queued : Bytes.t;  (* '\001' once a TB has entered [ready] *)
  pc : int array;  (* pending parent counts (Graph relation only) *)
  (* Ready-TB ring: each TB is enqueued at most once ([queued] is never
     cleared), so a plain array with monotonic head/tail indices replaces
     the cell-allocating [Queue.t] with identical FIFO order. *)
  ready : int array;
  mutable rhead : int;
  mutable rtail : int;
  dep_ready_time : float array;
  start_time : float array;
  finish_time : float array;
  mutable a_prev : int;
  mutable a_next : int;
}

(* Events are packed into immediate ints, so {!Bm_engine.Eheap} holds no
   boxed entries: it moves three unboxed array slots per heap level,
   shifting entries into a hole rather than swapping them, and its pop
   picks the smaller child as a computed index rather than a branch (a
   pop+push at the engine's ~900 live events, 28 SMs x 32 TB slots, costs
   under half of a swapping sift's; EXPERIMENTS, "A swap-free event heap"
   and "A branch-light heap pop"):
   bits 0-1 tag — 0 Launch_done(k), 1 Tb_done(k, tb), 2 Copy_done(c),
   3 Cmd_done(c).  Tags 0/2/3 keep their payload in bits 2+; Tb_done packs
   the TB id in bits 2-31 and the kernel in bits 32+.  Kernels and commands
   are flat indices over every app, so an event names its app without an
   app field.  {!Bm_engine.Eheap} breaks ties by insertion sequence, never
   by event value, so the packing cannot change pop order; it only has to
   fit: every field stays below [packed_limit], checked once per run by
   [check_packed]. *)
let ev_launch k = k lsl 2
let ev_tb k tb = 1 lor (tb lsl 2) lor (k lsl 32)
let ev_copy c = 2 lor (c lsl 2)
let ev_cmd c = 3 lor (c lsl 2)
let packed_limit = 1 lsl 30

type app = {
  a_sched : Graph.schedule;
  a_trace : Stats.sink option;
  a_deadlines : float array option;
}

(* Rejects apps whose summed launch or command counts, or any kernel's TB
   count, do not fit the packed events, and traced apps that could emit
   2^31 events (the int32 ordinals of {!Stats.Tb_columns}: at most three
   per TB, six per launch, two per command) — before any per-TB state is
   allocated. *)
let check_packed ~caller (apps : app array) =
  let count f = Array.fold_left (fun acc ap -> acc + Array.length (f ap.a_sched)) 0 apps in
  let nk = count (fun s -> s.Graph.s_nodes) and nc = count (fun s -> s.Graph.s_commands) in
  if nk >= packed_limit || nc >= packed_limit then
    invalid_arg
      (Printf.sprintf "%s: %d launches / %d commands exceed the packed-event bound of 2^30" caller
         nk nc);
  Array.iteri
    (fun a ap ->
      Array.iter
        (fun (n : Graph.node) ->
          if n.Graph.n_tbs >= packed_limit then
            invalid_arg
              (Printf.sprintf
                 "%s: app %d kernel %d has %d thread blocks, beyond the packed-event bound of 2^30"
                 caller a n.Graph.n_seq n.Graph.n_tbs))
        ap.a_sched.Graph.s_nodes;
      let nodes = ap.a_sched.Graph.s_nodes in
      let events () =
        Array.fold_left (fun acc (n : Graph.node) -> acc + (3 * n.Graph.n_tbs) + 6) 0 nodes
        + (2 * Array.length ap.a_sched.Graph.s_commands)
      in
      if Option.is_some ap.a_trace && events () >= 1 lsl 31 then
        invalid_arg (Printf.sprintf "%s: traced app %d could emit 2^31 events or more" caller a))
    apps

(* Running-TB integration.  All-float records are unboxed by the compiler,
   so updating these fields in the hot loop allocates nothing — unlike
   [float ref], which boxes on every store.  Each app owns one, advanced
   only at its own events and dispatches, so its figures follow the solo
   op sequence bit-for-bit; the machine owns one advanced at every event. *)
type clock = {
  mutable last_t : float;   (* integration frontier *)
  mutable area : float;     (* integral of running TBs over time *)
  mutable busy : float;     (* time with >= 1 running TB *)
  mutable end_time : float;
}

type instant = { mutable now : float }

(* Event-queue keys travel through a one-slot cell: a float argument to
   Eheap would be boxed at every call, since nothing is inlined across
   modules under -opaque. *)
let[@inline] push heap cell key ev =
  cell.(0) <- key;
  Eheap.push_at heap cell ev

let[@inline] advance c running at =
  let t = at.now in
  if t > c.last_t then begin
    c.area <- c.area +. (float_of_int running *. (t -. c.last_t));
    if running > 0 then c.busy <- c.busy +. (t -. c.last_t);
    c.last_t <- t
  end

(* The launch engine, copy engine and TB-slot pool an app draws on: one
   record aliased by every app on a shared machine (contention is real),
   one private record per partition slice. *)
type resource = {
  mutable launch_free : float;
  mutable copy_free : float;
  mutable free_slots : int;
}

let memcpy_us (cfg : Config.t) bytes =
  cfg.Config.memcpy_latency_us +. (float_of_int bytes /. (cfg.Config.memcpy_gb_per_s *. 1000.0))

let copy_event ~start ~blocking cmd ci =
  let bytes, d2h =
    match cmd with
    | Graph.Gh2d { bytes } -> (bytes, false)
    | Graph.Gd2h { bytes; _ } -> (bytes, true)
    | Graph.Gmalloc | Graph.Glaunch _ | Graph.Gsync -> (0, false)
  in
  if start then Stats.Copy_start { cmd = ci; bytes; d2h; blocking }
  else Stats.Copy_finish { cmd = ci; bytes; d2h; blocking }

(* Hardware-table pressure for one launched kernel pair: DLB entries hold
   [dlb_children_per_entry] children each, the PCB holds one counter per
   child TB; anything beyond the table sizes spills to global memory.
   Computed against the app's own machine (its slice when partitioned), so
   a partitioned app's trace is byte-identical to its solo trace on
   [Config.with_sms]. *)
let table_spills (cfg : Config.t) seq relation ~n_children =
  match relation with
  | Bipartite.Independent | Bipartite.Fully_connected -> []
  | Bipartite.Graph _ ->
    let needed_dlb = Hardware.dlb_entries_needed cfg relation in
    let needed_pcb = Hardware.pcb_counters_needed relation ~n_children in
    let spills = ref [] in
    if needed_pcb > cfg.Config.pcb_entries then
      spills :=
        Stats.Pcb_spill { seq; needed = needed_pcb; capacity = cfg.Config.pcb_entries } :: !spills;
    if needed_dlb > cfg.Config.dlb_entries then
      spills :=
        Stats.Dlb_spill { seq; needed = needed_dlb; capacity = cfg.Config.dlb_entries } :: !spills;
    !spills

(* Per-run metric handles, resolved once outside the hot loops.  Mirrors
   the [?trace] sink: when [?metrics] is [None] every instrumentation site
   is a single match on an immediate [None] — no allocation, no sampling. *)
type mstate = {
  m_dlb : Metrics.gauge;          (* DLB entries occupied over sim time *)
  m_pcb : Metrics.gauge;          (* PCB counters occupied over sim time *)
  m_dlb_spill : Metrics.counter;  (* spill traffic, bytes *)
  m_pcb_spill : Metrics.counter;
  m_masked : Metrics.counter;     (* launch-overhead us hidden by device work *)
  m_exposed : Metrics.counter;    (* launch-overhead us on the critical path *)
  m_window : Metrics.gauge;       (* resident (enqueued, not completed) kernels *)
  m_window_occ : Metrics.histogram;  (* residency sampled at each enqueue *)
  m_copy_count : Metrics.counter;
  m_copy_h2d : Metrics.counter;   (* bytes *)
  m_copy_d2h : Metrics.counter;   (* bytes *)
  m_copy_busy : Metrics.counter;  (* copy-engine busy us *)
  m_tb_dispatched : Metrics.counter;
  m_tb_exec : Metrics.histogram;  (* per-TB execution us *)
  m_enq_time : float array;       (* per kernel: sim time at enqueue *)
  m_enq_busy : float array;       (* per kernel: device busy-us at enqueue *)
  m_dlb_demand : int array;       (* per kernel: DLB entries held while active *)
  m_pcb_demand : int array;
  mutable m_dlb_used : int;
  mutable m_pcb_used : int;
  mutable m_resident : int;
}

let make_mstate reg nk =
  (* Sequential bindings: record fields evaluate in unspecified order, and
     registration order is what snapshots and exports display. *)
  let m_dlb = Metrics.gauge reg "dlb.occupancy" in
  let m_pcb = Metrics.gauge reg "pcb.occupancy" in
  let m_dlb_spill = Metrics.counter reg "dlb.spill_bytes" in
  let m_pcb_spill = Metrics.counter reg "pcb.spill_bytes" in
  let m_masked = Metrics.counter reg "launch.masked_us" in
  let m_exposed = Metrics.counter reg "launch.exposed_us" in
  let m_window = Metrics.gauge reg "window.resident" in
  let m_window_occ = Metrics.histogram reg "window.occupancy" in
  let m_copy_count = Metrics.counter reg "copy.count" in
  let m_copy_h2d = Metrics.counter reg "copy.bytes_h2d" in
  let m_copy_d2h = Metrics.counter reg "copy.bytes_d2h" in
  let m_copy_busy = Metrics.counter reg "copy.busy_us" in
  let m_tb_dispatched = Metrics.counter reg "tb.dispatched" in
  let m_tb_exec = Metrics.histogram reg "tb.exec_us" in
  {
    m_dlb;
    m_pcb;
    m_dlb_spill;
    m_pcb_spill;
    m_masked;
    m_exposed;
    m_window;
    m_window_occ;
    m_copy_count;
    m_copy_h2d;
    m_copy_d2h;
    m_copy_busy;
    m_tb_dispatched;
    m_tb_exec;
    m_enq_time = Array.make (max nk 1) 0.0;
    m_enq_busy = Array.make (max nk 1) 0.0;
    m_dlb_demand = Array.make (max nk 1) 0;
    m_pcb_demand = Array.make (max nk 1) 0;
    m_dlb_used = 0;
    m_pcb_used = 0;
    m_resident = 0;
  }

(* Co-run contention handles: machine-wide gauges/counters plus per-app
   attribution, both backed by {!Hardware.Occupancy} so the accounting
   cannot silently go negative. *)
type cstate = {
  c_dlb : Metrics.gauge;
  c_pcb : Metrics.gauge;
  c_dlb_spill : Metrics.counter;
  c_pcb_spill : Metrics.counter;
  c_dlb_evicted : Metrics.counter;
  c_pcb_evicted : Metrics.counter;
  c_tb : Metrics.counter;
  c_makespan : Metrics.gauge;
  ca_dlb : Metrics.gauge array;
  ca_pcb : Metrics.gauge array;
  ca_dlb_spill : Metrics.counter array;
  ca_pcb_spill : Metrics.counter array;
  ca_tb : Metrics.counter array;
  ca_total : Metrics.gauge array;
  occ_dlb : Hardware.Occupancy.t;
  occ_pcb : Hardware.Occupancy.t;
  c_dlb_demand : int array;  (* per kernel: entries held while active *)
  c_pcb_demand : int array;
}

let make_cstate reg ~napps ~nk ~occ_dlb ~occ_pcb =
  (* Sequential bindings: registration order is display order. *)
  let c_dlb = Metrics.gauge reg "multi.dlb.occupancy" in
  let c_pcb = Metrics.gauge reg "multi.pcb.occupancy" in
  let c_dlb_spill = Metrics.counter reg "multi.dlb.spill_bytes" in
  let c_pcb_spill = Metrics.counter reg "multi.pcb.spill_bytes" in
  let c_dlb_evicted = Metrics.counter reg "multi.dlb.evicted_entries" in
  let c_pcb_evicted = Metrics.counter reg "multi.pcb.evicted_entries" in
  let c_tb = Metrics.counter reg "multi.tb.dispatched" in
  let c_makespan = Metrics.gauge reg "multi.makespan_us" in
  let per kind mk = Array.init napps (fun i -> mk reg (Printf.sprintf "multi.app.%d.%s" i kind)) in
  let ca_dlb = per "dlb.occupancy" Metrics.gauge in
  let ca_pcb = per "pcb.occupancy" Metrics.gauge in
  let ca_dlb_spill = per "dlb.spill_bytes" Metrics.counter in
  let ca_pcb_spill = per "pcb.spill_bytes" Metrics.counter in
  let ca_tb = per "tb.dispatched" Metrics.counter in
  let ca_total = per "total_us" Metrics.gauge in
  {
    c_dlb;
    c_pcb;
    c_dlb_spill;
    c_pcb_spill;
    c_dlb_evicted;
    c_pcb_evicted;
    c_tb;
    c_makespan;
    ca_dlb;
    ca_pcb;
    ca_dlb_spill;
    ca_pcb_spill;
    ca_tb;
    ca_total;
    occ_dlb;
    occ_pcb;
    c_dlb_demand = Array.make (max nk 1) 0;
    c_pcb_demand = Array.make (max nk 1) 0;
  }

type outcome = {
  o_stats : Stats.t array;
  o_makespan_us : float;
  o_busy_us : float;
  o_avg_concurrency : float;
  o_events : int;
}

(* Per-app engine state.  [k0]/[c0] place the app's kernels and commands
   in the flat index space events use. *)
type astate = {
  aid : int;
  acfg : Config.t;  (* the machine the app sees: the device or its slice *)
  res : resource;
  clk : clock;
  nodes : Graph.node array;
  commands : Graph.gcmd array;
  k0 : int;
  nk : int;
  c0 : int;
  nc : int;
  emit : Stats.sink;
  tracing : bool;
  mutable emitted : int;  (* events emitted so far, TB events included *)
  ord : Bytes.t;
      (* traced apps only: emission ordinals of each TB's Dep_satisfied,
         Tb_dispatch and Tb_finish, kernel [k]'s TB [tb] as the int32 at
         [4 * (ord_at.(k) + 3 * tb + 0/1/2)], -1 until emitted (see
         {!Stats.Tb_columns}); one column for the app, allocated once *)
  mutable running : int;
  mutable next_cmd : int;
  mutable serial_blocked : bool;  (* in serial mode the host stalls on the in-flight command *)
  mutable serial_wait : int;      (* flat kernel the serial host waits on, -1 none *)
  mutable active_head : int;
  mutable active_tail : int;
}

(* Sends a traced app's kernel, copy or spill event, counting it.  At top
   level, so the closures that call it need not capture it. *)
let emit (ap : astate) t ev =
  ap.emitted <- ap.emitted + 1;
  ap.emit t ev

let run_schedules ~caller ?(host_blocking_copies = false) ?metrics ?corun_metrics ?slices
    ?admission (cfg : Config.t) mode (apps : app array) =
  let napps = Array.length apps in
  if napps < 1 then invalid_arg (caller ^ ": no apps");
  let per_app what = function
    | Some xs when Array.length xs <> napps -> invalid_arg (caller ^ ": one " ^ what ^ " per app")
    | Some _ | None -> ()
  in
  per_app "slice" slices;
  per_app "admission rank list" admission;
  Option.iter
    (Array.iteri (fun a r ->
         if Array.length r <> Array.length apps.(a).a_sched.Graph.s_nodes then
           invalid_arg (caller ^ ": admission ranks must have one entry per launch")))
    admission;
  check_packed ~caller apps;
  let window = Mode.window mode in
  let fine = Mode.fine_grain mode in
  let serial = Mode.serial_commands mode in
  let launch_us = Mode.launch_overhead cfg mode in
  let policy = Mode.policy mode in

  (* Flat index space: app [a]'s kernels start at [k0.(a)], its commands
     at [c0.(a)]. *)
  let offsets f =
    let total = ref 0 in
    let starts =
      Array.map
        (fun ap ->
          let s = !total in
          total := s + Array.length (f ap.a_sched);
          s)
        apps
    in
    (starts, !total)
  in
  let k0, nk = offsets (fun s -> s.Graph.s_nodes) in
  let c0, nc = offsets (fun s -> s.Graph.s_commands) in
  let node_app = Array.make nk 0 and cmd_app = Array.make (max nc 1) 0 in
  Array.iteri
    (fun a ap ->
      Array.fill node_app k0.(a) (Array.length ap.a_sched.Graph.s_nodes) a;
      Array.fill cmd_app c0.(a) (Array.length ap.a_sched.Graph.s_commands) a)
    apps;
  let nodes = Array.concat (Array.to_list (Array.map (fun ap -> ap.a_sched.Graph.s_nodes) apps)) in

  let ks =
    Array.mapi
      (fun k (node : Graph.node) ->
        let n = node.Graph.n_tbs in
        let pc =
          match node.Graph.n_relation with
          | Bipartite.Graph g -> Bipartite.in_degrees g
          | Bipartite.Independent | Bipartite.Fully_connected -> [||]
        in
        {
          node;
          app = node_app.(k);
          ntbs = n;
          tb_us = node.Graph.n_tb_us;
          launched = false;
          started_tbs = 0;
          done_tbs = 0;
          drained = n = 0;
          drained_at = 0.0;
          completed = false;
          queued = Bytes.make n '\000';
          pc;
          ready = Array.make (max n 1) 0;
          rhead = 0;
          rtail = 0;
          dep_ready_time = Array.make n 0.0;
          start_time = Array.make n 0.0;
          finish_time = Array.make n 0.0;
          a_prev = -2;
          a_next = -2;
        })
      nodes
  in

  (* Stream topology: dependencies, in-order completion and the pre-launch
     window all apply per stream of one app (paper SIII-C). *)
  let prev_of =
    Array.init nk (fun k ->
        let p = ks.(k).node.Graph.n_prev in
        if p < 0 then -1 else k0.(ks.(k).app) + p)
  in
  let next_of = Array.make nk (-1) in
  Array.iteri (fun k p -> if p >= 0 then next_of.(p) <- k) prev_of;
  let stream_of = Array.map (fun st -> st.node.Graph.n_stream) ks in
  (* Dense stream indexing over (app, stream): per-stream residency counts
     and dispatch-time blocked flags live in arrays, not hashtables. *)
  let sidx = Array.make nk 0 in
  let nstreams =
    let seen : (int * int, int) Hashtbl.t = Hashtbl.create 4 in
    Array.iteri
      (fun k s ->
        let key = (ks.(k).app, s) in
        match Hashtbl.find_opt seen key with
        | Some i -> sidx.(k) <- i
        | None ->
          let i = Hashtbl.length seen in
          Hashtbl.add seen key i;
          sidx.(k) <- i)
      stream_of;
    Hashtbl.length seen
  in
  let resident = Array.make (max nstreams 1) 0 in
  let heap = Eheap.create () and cell = [| 0.0 |] in
  let now = { now = 0.0 } in
  let machine = { last_t = 0.0; area = 0.0; busy = 0.0; end_time = 0.0 } in
  let g_running = ref 0 in

  let shared_res =
    { launch_free = 0.0; copy_free = 0.0; free_slots = Config.total_tb_slots cfg }
  in
  let st =
    Array.mapi
      (fun a ap ->
        let acfg, res =
          match slices with
          | None -> (cfg, shared_res)
          | Some s ->
            (s.(a), { launch_free = 0.0; copy_free = 0.0; free_slots = Config.total_tb_slots s.(a) })
        in
        let sched = ap.a_sched in
        {
          aid = a;
          acfg;
          res;
          clk = { last_t = 0.0; area = 0.0; busy = 0.0; end_time = 0.0 };
          nodes = sched.Graph.s_nodes;
          commands = sched.Graph.s_commands;
          k0 = k0.(a);
          nk = Array.length sched.Graph.s_nodes;
          c0 = c0.(a);
          nc = Array.length sched.Graph.s_commands;
          emit = (match ap.a_trace with Some f -> f | None -> fun _ _ -> ());
          tracing = Option.is_some ap.a_trace;
          emitted = 0;
          ord =
            (if Option.is_none ap.a_trace then Bytes.empty
             else
               Bytes.make
                 (12 * Array.fold_left (fun acc (n : Graph.node) -> acc + n.Graph.n_tbs) 0 sched.Graph.s_nodes)
                 '\255');
          running = 0;
          next_cmd = 0;
          serial_blocked = false;
          serial_wait = -1;
          active_head = -1;
          active_tail = -1;
        })
      apps
  in
  (* Tracing: kernel, copy and spill events go to the sink as they
     happen ([emit]); a TB event only takes the next ordinal in its
     kernel's slice of the app's [ord] column, and the sink gets each
     kernel's columns once, up front. *)
  let ord_at = Array.make (if Array.exists (fun ap -> ap.tracing) st then nk else 0) 0 in
  let[@inline] stamp (ap : astate) k i =
    Bytes.set_int32_le ap.ord (4 * (ord_at.(k) + i)) (Int32.of_int ap.emitted);
    ap.emitted <- ap.emitted + 1
  in
  Array.iter
    (fun ap ->
      if ap.tracing then
        for i = 0 to ap.nk - 1 do
          let k = ap.k0 + i in
          let n = ks.(k) in
          if i > 0 then ord_at.(k) <- ord_at.(k - 1) + (3 * ks.(k - 1).ntbs);
          ap.emit 0.0
            (Stats.Tb_columns
               { seq = i; dep_ready = n.dep_ready_time; start = n.start_time;
                 finish = n.finish_time; order = ap.ord; order_at = ord_at.(k) })
        done)
    st;

  (* Metric handles, looked up once.  [None] keeps every site allocation-free. *)
  let ms = match metrics with None -> None | Some reg -> Some (make_mstate reg nk) in
  let cs =
    match corun_metrics with
    | None -> None
    | Some reg ->
      let occ cap =
        match slices with
        | None -> Hardware.Occupancy.create_shared ~capacity:(cap cfg) ~napps
        | Some s -> Hardware.Occupancy.create_partitioned ~caps:(Array.map cap s)
      in
      let occ_dlb = occ (fun c -> c.Config.dlb_entries) in
      let occ_pcb = occ (fun c -> c.Config.pcb_entries) in
      Some (make_cstate reg ~napps ~nk ~occ_dlb ~occ_pcb)
  in
  let m_copy ~d2h ~bytes ~dur =
    match ms with
    | None -> ()
    | Some m ->
      Metrics.incr m.m_copy_count;
      Metrics.add (if d2h then m.m_copy_d2h else m.m_copy_h2d) (float_of_int bytes);
      Metrics.add m.m_copy_busy dur
  in
  let m_copy_cmd ~dur cmd =
    match cmd with
    | Graph.Gh2d { bytes } -> m_copy ~d2h:false ~bytes ~dur
    | Graph.Gd2h { bytes; _ } -> m_copy ~d2h:true ~bytes ~dur
    | Graph.Gmalloc | Graph.Glaunch _ | Graph.Gsync -> ()
  in
  (* Called at kernel enqueue: stamps the launch-overhead baseline and
     samples the pre-launch window residency. *)
  let m_enqueue k ~now ~busy =
    match ms with
    | None -> ()
    | Some m ->
      m.m_enq_time.(k) <- now;
      m.m_enq_busy.(k) <- busy;
      m.m_resident <- m.m_resident + 1;
      Metrics.set m.m_window ~at:now (float_of_int m.m_resident);
      Metrics.observe m.m_window_occ (float_of_int m.m_resident)
  in
  let live occ =
    let s = ref 0 in
    for i = 0 to napps - 1 do
      s := !s + Hardware.Occupancy.app_used occ i
    done;
    !s
  in
  let c_occupancy c (ap : astate) ~t =
    Metrics.set c.c_dlb ~at:t (float_of_int (live c.occ_dlb));
    Metrics.set c.c_pcb ~at:t (float_of_int (live c.occ_pcb));
    Metrics.set c.ca_dlb.(ap.aid) ~at:t (float_of_int (Hardware.Occupancy.app_used c.occ_dlb ap.aid));
    Metrics.set c.ca_pcb.(ap.aid) ~at:t (float_of_int (Hardware.Occupancy.app_used c.occ_pcb ap.aid))
  in
  (* Called at Launch_done: splits the enqueue->launched span into overhead
     masked by concurrent device work vs. exposed on the critical path, and
     charges the kernel's DLB/PCB demand (fine-grain modes only). *)
  let m_launched (ap : astate) k ~t relation ~n_children =
    (match ms with
    | None -> ()
    | Some m ->
      let span = t -. m.m_enq_time.(k) in
      let masked = Float.min span (Float.max 0.0 (ap.clk.busy -. m.m_enq_busy.(k))) in
      Metrics.add m.m_masked masked;
      Metrics.add m.m_exposed (span -. masked));
    if fine && (Option.is_some ms || Option.is_some cs) then begin
      let nd = Hardware.dlb_entries_needed ap.acfg relation in
      let np = Hardware.pcb_counters_needed relation ~n_children in
      let sd = float_of_int (Hardware.dlb_spill_bytes ap.acfg ~needed:nd) in
      let sp = float_of_int (Hardware.pcb_spill_bytes ap.acfg ~needed:np) in
      (match ms with
      | None -> ()
      | Some m ->
        m.m_dlb_demand.(k) <- nd;
        m.m_pcb_demand.(k) <- np;
        m.m_dlb_used <- m.m_dlb_used + nd;
        m.m_pcb_used <- m.m_pcb_used + np;
        Metrics.set m.m_dlb ~at:t (float_of_int m.m_dlb_used);
        Metrics.set m.m_pcb ~at:t (float_of_int m.m_pcb_used);
        Metrics.add m.m_dlb_spill sd;
        Metrics.add m.m_pcb_spill sp);
      match cs with
      | None -> ()
      | Some c ->
        c.c_dlb_demand.(k) <- nd;
        c.c_pcb_demand.(k) <- np;
        let ed = Hardware.Occupancy.acquire c.occ_dlb ~app:ap.aid nd in
        let ep = Hardware.Occupancy.acquire c.occ_pcb ~app:ap.aid np in
        Metrics.add c.c_dlb_evicted (float_of_int ed);
        Metrics.add c.c_pcb_evicted (float_of_int ep);
        c_occupancy c ap ~t;
        Metrics.add c.c_dlb_spill sd;
        Metrics.add c.ca_dlb_spill.(ap.aid) sd;
        Metrics.add c.c_pcb_spill sp;
        Metrics.add c.ca_pcb_spill.(ap.aid) sp
    end
  in
  (* Called when a kernel drains: its parent-side table entries retire. *)
  let m_drained (ap : astate) k ~t =
    (match ms with
    | Some m when m.m_dlb_demand.(k) <> 0 || m.m_pcb_demand.(k) <> 0 ->
      m.m_dlb_used <- m.m_dlb_used - m.m_dlb_demand.(k);
      m.m_pcb_used <- m.m_pcb_used - m.m_pcb_demand.(k);
      m.m_dlb_demand.(k) <- 0;
      m.m_pcb_demand.(k) <- 0;
      Metrics.set m.m_dlb ~at:t (float_of_int m.m_dlb_used);
      Metrics.set m.m_pcb ~at:t (float_of_int m.m_pcb_used)
    | Some _ | None -> ());
    match cs with
    | Some c when c.c_dlb_demand.(k) <> 0 || c.c_pcb_demand.(k) <> 0 ->
      Hardware.Occupancy.release c.occ_dlb ~app:ap.aid c.c_dlb_demand.(k);
      Hardware.Occupancy.release c.occ_pcb ~app:ap.aid c.c_pcb_demand.(k);
      c.c_dlb_demand.(k) <- 0;
      c.c_pcb_demand.(k) <- 0;
      c_occupancy c ap ~t
    | Some _ | None -> ()
  in
  let m_completed ~t =
    match ms with
    | None -> ()
    | Some m ->
      m.m_resident <- m.m_resident - 1;
      Metrics.set m.m_window ~at:t (float_of_int m.m_resident)
  in
  (* Dispatch rank: the position of each kernel in the order dispatch visits
     its app's resident kernels.  Launch order for oldest/newest-first; for
     EDF the static order by effective deadline key (priority inheritance
     applied) — keys never change during a run, so visiting resident
     kernels in this fixed order is exact EDF.  Ranks compare only within
     one app: apps are dispatched in index order. *)
  let rank = Array.init nk Fun.id in
  (match policy with
  | Mode.Edf ->
    Array.iteri
      (fun a ap ->
        Array.iteri
          (fun i k -> rank.(k0.(a) + k) <- i)
          (Deadline.order_of_schedule ?deadlines:ap.a_deadlines ap.a_sched))
      apps
  | Mode.Oldest_first | Mode.Newest_first -> ());

  (* Active-node lists: per app, exactly its launched-but-not-drained
     kernels, in ascending rank.  Under launch-order ranks it is O(1) to
     keep sorted: an app's launch events fire in sequence order (enqueues
     are program-ordered, launch keys are non-decreasing, and the heap
     breaks ties by insertion order), so the walk below stops at the tail
     at once.  EDF ranks may place a newly launched kernel anywhere; the
     walk finds its slot. *)
  let link (ap : astate) k =
    let n = ks.(k) in
    let after = ref ap.active_tail in
    while !after >= 0 && rank.(!after) > rank.(k) do
      after := ks.(!after).a_prev
    done;
    let nxt = if !after < 0 then ap.active_head else ks.(!after).a_next in
    n.a_prev <- !after;
    n.a_next <- nxt;
    if !after < 0 then ap.active_head <- k else ks.(!after).a_next <- k;
    if nxt < 0 then ap.active_tail <- k else ks.(nxt).a_prev <- k
  in
  let unlink (ap : astate) k =
    let n = ks.(k) in
    if n.a_prev >= -1 then begin
      if n.a_prev < 0 then ap.active_head <- n.a_next else ks.(n.a_prev).a_next <- n.a_next;
      if n.a_next < 0 then ap.active_tail <- n.a_prev else ks.(n.a_next).a_prev <- n.a_prev;
      n.a_prev <- -2;
      n.a_next <- -2
    end
  in

  (* Copy-dependency countdown: [pending_copies.(k)] pending H2D copies of
     kernel [k]; [copy_dependents.(c)] the kernels waiting on command [c].
     Decremented by copy-completion events; the launch gate is a single
     integer test. *)
  let pending_copies = Array.map (fun n -> Array.length n.node.Graph.n_copy_deps) ks in
  let copy_dependents = Array.make (max nc 1) [] in
  Array.iteri
    (fun k n ->
      let base = c0.(n.app) in
      Array.iter
        (fun ci -> copy_dependents.(base + ci) <- k :: copy_dependents.(base + ci))
        n.node.Graph.n_copy_deps)
    ks;
  let copy_completed c =
    List.iter (fun k -> pending_copies.(k) <- pending_copies.(k) - 1) copy_dependents.(c)
  in

  (* Admission gate: a kernel may enqueue only at its global rank. *)
  let gated = Option.is_some admission in
  let adm = Array.make nk 0 in
  Option.iter (Array.iteri (fun a r -> Array.blit r 0 adm k0.(a) (Array.length r))) admission;
  let next_admission = ref 0 in
  let admission_ok k = (not gated) || adm.(k) = !next_admission in

  (* D2H copies parked until their producing kernel completes. *)
  let pending_d2h : (int * float) list array = Array.make (max nk 1) [] in
  let bump (ap : astate) = if now.now > ap.clk.end_time then ap.clk.end_time <- now.now in

  let queue_tb k tb =
    let n = ks.(k) in
    if Bytes.get n.queued tb = '\000' then begin
      Bytes.set n.queued tb '\001';
      n.ready.(n.rtail) <- tb;
      n.rtail <- n.rtail + 1
    end
  in
  let queue_all k =
    for tb = 0 to ks.(k).ntbs - 1 do
      queue_tb k tb
    done
  in

  (* Initial readiness of kernel [k]'s TBs under the mode's policy.  Called
     at launch completion and again when the parent drains. *)
  let refresh_ready k =
    let n = ks.(k) in
    if n.launched && not n.drained then begin
      let parent_drained =
        prev_of.(k) < 0 || ks.(prev_of.(k)).drained || ks.(prev_of.(k)).completed
      in
      match n.node.Graph.n_relation with
      | Bipartite.Independent -> queue_all k
      | Bipartite.Fully_connected -> if parent_drained then queue_all k
      | Bipartite.Graph _ ->
        if fine then begin
          for tb = 0 to n.ntbs - 1 do
            if n.pc.(tb) = 0 then queue_tb k tb
          done
        end
        else if parent_drained then queue_all k
    end
  in

  (* Scheduling: fill free slots from ready rings, walking each app's
     active list in rank order, apps in index order.  Readiness and the
     active sets cannot change while dispatching (only future events are
     pushed), so greedily draining each kernel's ready ring in priority
     order issues exactly the TB sequence a per-TB search would.  Producer
     priority (strict, paper §III-D) means a kernel is eligible only when
     every older active kernel in its stream has all TBs started; draining
     in ascending order with a per-stream blocked flag enforces precisely
     that, because dispatching from [k] never changes any older kernel's
     eligibility.  The app's clock is advanced before each dispatch: on a
     shared machine another app's finished TB can free the slot, and the
     app's integration frontier must reach the dispatch instant before its
     running count changes (a no-op at the app's own events). *)
  let blocked_gen = Array.make (max nstreams 1) 0 in
  let dispatch_gen = ref 0 in
  let drain_kernel (ap : astate) k =
    let n = ks.(k) in
    let res = ap.res in
    while res.free_slots > 0 && n.rhead < n.rtail do
      advance ap.clk ap.running now;
      let tb = n.ready.(n.rhead) in
      n.rhead <- n.rhead + 1;
      n.start_time.(tb) <- now.now;
      n.started_tbs <- n.started_tbs + 1;
      res.free_slots <- res.free_slots - 1;
      ap.running <- ap.running + 1;
      incr g_running;
      if ap.tracing then stamp ap k ((3 * tb) + 1);
      (match ms with Some m -> Metrics.incr m.m_tb_dispatched | None -> ());
      (match cs with
      | Some c ->
        Metrics.incr c.c_tb;
        Metrics.incr c.ca_tb.(ap.aid)
      | None -> ());
      push heap cell (now.now +. n.tb_us.(tb)) (ev_tb k tb)
    done
  in
  let dispatch (ap : astate) =
    if ap.res.free_slots > 0 then begin
      match policy with
      | Mode.Newest_first ->
        (* Consumer priority: any ready TB of any active kernel may run;
           newest kernels first. *)
        let k = ref ap.active_tail in
        while ap.res.free_slots > 0 && !k >= 0 do
          let prv = ks.(!k).a_prev in
          drain_kernel ap !k;
          k := prv
        done
      | Mode.Edf ->
        (* Earliest effective deadline first: any ready TB of any active
           kernel may run, most urgent kernel first. *)
        let k = ref ap.active_head in
        while ap.res.free_slots > 0 && !k >= 0 do
          let nxt = ks.(!k).a_next in
          drain_kernel ap !k;
          k := nxt
        done
      | Mode.Oldest_first -> begin
        incr dispatch_gen;
        let gen = !dispatch_gen in
        let k = ref ap.active_head in
        while ap.res.free_slots > 0 && !k >= 0 do
          let n = ks.(!k) in
          let nxt = n.a_next in
          let s = sidx.(!k) in
          if blocked_gen.(s) <> gen then begin
            drain_kernel ap !k;
            (* Younger kernels in this stream stay ineligible until every
               TB here has been scheduled. *)
            if n.started_tbs < n.ntbs then blocked_gen.(s) <- gen
          end;
          k := nxt
        done
      end
    end
  in

  (* In-order kernel completion, per stream: kernel k completes only once
     it has drained and its stream predecessor has completed. *)
  let rec try_complete (ap : astate) k =
    if k >= 0 && (not ks.(k).completed) && ks.(k).drained
       && (prev_of.(k) < 0 || ks.(prev_of.(k)).completed)
    then begin
      ks.(k).completed <- true;
      resident.(sidx.(k)) <- resident.(sidx.(k)) - 1;
      if ap.tracing then
        emit ap now.now (Stats.Kernel_completed { seq = k - ap.k0; stream = stream_of.(k) });
      m_completed ~t:now.now;
      (* Release the copies gated on this kernel. *)
      List.iter
        (fun (ci, dur) ->
          let res = ap.res in
          let start = max now.now res.copy_free in
          res.copy_free <- start +. dur;
          if ap.tracing then emit ap start (copy_event ~start:true ~blocking:false ap.commands.(ci) ci);
          m_copy_cmd ~dur ap.commands.(ci);
          push heap cell (start +. dur) (ev_copy (ap.c0 + ci)))
        (List.rev pending_d2h.(k));
      pending_d2h.(k) <- [];
      bump ap;
      try_complete ap next_of.(k)
    end
  in

  (* Host command issue.  The helpers leave the loop flags to [issue], so
     its two refs stay unboxed locals. *)
  let enqueue (ap : astate) k =
    resident.(sidx.(k)) <- resident.(sidx.(k)) + 1;
    if ap.tracing then
      emit ap now.now
        (Stats.Kernel_enqueue { seq = k - ap.k0; stream = stream_of.(k); tbs = ks.(k).ntbs });
    m_enqueue k ~now:now.now ~busy:ap.clk.busy;
    if gated then incr next_admission
  in
  (* A blocking command: the host stalls until it returns. *)
  let block_on (ap : astate) ci dur =
    push heap cell (now.now +. dur) (ev_cmd (ap.c0 + ci));
    ap.serial_blocked <- true
  in
  let async_copy (ap : astate) ci ~d2h ~bytes dur =
    let res = ap.res in
    let start = max now.now res.copy_free in
    res.copy_free <- start +. dur;
    if ap.tracing then emit ap start (copy_event ~start:true ~blocking:false ap.commands.(ci) ci);
    m_copy ~d2h ~bytes ~dur;
    push heap cell (start +. dur) (ev_copy (ap.c0 + ci));
    ap.next_cmd <- ci + 1
  in
  (* Issues one app's commands until it blocks; returns whether it made
     progress. *)
  let issue (ap : astate) =
    let progressed = ref false in
    let blocked = ref false in
    while (not !blocked) && ap.next_cmd < ap.nc do
      let ci = ap.next_cmd in
      if ap.serial_blocked then blocked := true
      else begin
        match ap.commands.(ci) with
        | Graph.Gsync ->
          (* Serial streams are already synchronized at this point;
             BlockMaestro drops syncs during reordering. *)
          ap.next_cmd <- ci + 1;
          progressed := true
        | Graph.Gmalloc ->
          (* cudaMalloc blocks the host in every mode (paper §III-C). *)
          block_on ap ci ap.acfg.Config.malloc_us;
          blocked := true;
          progressed := true
        | Graph.Gh2d { bytes } ->
          let dur = memcpy_us ap.acfg bytes in
          if serial || host_blocking_copies then begin
            (* Synchronous cudaMemcpy: the host stalls until it returns
               (the default CUDA behaviour BlockMaestro's non-blocking
               treatment removes, paper SIII-C). *)
            if ap.tracing then
              emit ap now.now (copy_event ~start:true ~blocking:true ap.commands.(ci) ci);
            m_copy ~d2h:false ~bytes ~dur;
            block_on ap ci dur;
            blocked := true
          end
          else async_copy ap ci ~d2h:false ~bytes dur;
          progressed := true
        | Graph.Gd2h { bytes; wait = gate } ->
          let dur = memcpy_us ap.acfg bytes in
          let gate_done = gate < 0 || (gate < ap.nk && ks.(ap.k0 + gate).completed) in
          if serial then begin
            if gate_done then begin
              if ap.tracing then
                emit ap now.now (copy_event ~start:true ~blocking:true ap.commands.(ci) ci);
              m_copy ~d2h:true ~bytes ~dur;
              block_on ap ci dur;
              progressed := true
            end;
            blocked := true
          end
          else begin
            if gate_done then async_copy ap ci ~d2h:true ~bytes dur
            else begin
              (* The RAW hazard with the host is enforced by hardware: the
                 copy is parked on the producing kernel's completion and
                 the host continues issuing (paper §III-C, "handling
                 blocking APIs"). *)
              let g = ap.k0 + gate in
              pending_d2h.(g) <- (ci, dur) :: pending_d2h.(g);
              ap.next_cmd <- ci + 1
            end;
            progressed := true
          end
        | Graph.Glaunch { seq } ->
          let k = ap.k0 + seq in
          let ok = pending_copies.(k) = 0 && admission_ok k in
          if serial then begin
            (* Baseline stream: the kernel is the only device work. *)
            if ok then begin
              enqueue ap k;
              let res = ap.res in
              let start = max now.now res.launch_free in
              res.launch_free <- start +. launch_us;
              push heap cell (start +. launch_us) (ev_launch k);
              ap.serial_blocked <- true;
              ap.serial_wait <- k;
              progressed := true
            end;
            blocked := true
          end
          else if resident.(sidx.(k)) < window && ok then begin
            (* Launch processing pipelines across pre-launched kernels: the
               per-stream residency window, not a serial engine, is the
               limit. *)
            enqueue ap k;
            push heap cell (now.now +. launch_us) (ev_launch k);
            ap.next_cmd <- ci + 1;
            progressed := true
          end
          else blocked := true
      end
    done;
    !progressed
  in

  (* Host issue, then dispatch.  Under the admission gate one app's
     enqueue advances the frontier and can unblock an app scanned earlier,
     so issue runs to a fixpoint; re-running [issue] on an unchanged app is
     a no-op.  Ungated apps never unblock each other, so one pass does. *)
  let progress () =
    if gated then begin
      let again = ref true in
      while !again do
        again := false;
        for a = 0 to napps - 1 do
          if issue st.(a) then again := true
        done
      done
    end
    else
      for a = 0 to napps - 1 do
        ignore (issue st.(a) : bool)
      done;
    for a = 0 to napps - 1 do
      dispatch st.(a)
    done
  in

  (* Child TB [c] of kernel [kc] lost a parent that finished now. *)
  let satisfy kc c =
    let child = ks.(kc) and t = now.now in
    let ap = st.(child.app) in
    child.pc.(c) <- child.pc.(c) - 1;
    if t > child.dep_ready_time.(c) then child.dep_ready_time.(c) <- t;
    if ap.tracing && child.pc.(c) = 0 then stamp ap kc (3 * c);
    if fine && child.pc.(c) = 0 && child.launched then queue_tb kc c
  in

  (* Dependency bookkeeping on a finished parent TB. *)
  let on_tb_done (ap : astate) k tb =
    let n = ks.(k) in
    let t = now.now in
    n.finish_time.(tb) <- t;
    n.done_tbs <- n.done_tbs + 1;
    ap.res.free_slots <- ap.res.free_slots + 1;
    ap.running <- ap.running - 1;
    decr g_running;
    bump ap;
    if ap.tracing then stamp ap k ((3 * tb) + 2);
    (match ms with Some m -> Metrics.observe m.m_tb_exec (t -. n.start_time.(tb)) | None -> ());
    (* Fine-grain child updates (tracked in every mode for Fig. 11). *)
    let kc = next_of.(k) in
    if kc >= 0 then begin
      let child = ks.(kc) in
      match child.node.Graph.n_relation with
      | Bipartite.Graph g -> Bipartite.iter_children g tb satisfy kc
      | Bipartite.Independent | Bipartite.Fully_connected -> ()
    end;
    if n.done_tbs = n.ntbs then begin
      n.drained <- true;
      n.drained_at <- t;
      unlink ap k;
      if ap.tracing then emit ap t (Stats.Kernel_drained { seq = k - ap.k0; stream = stream_of.(k) });
      m_drained ap k ~t;
      (* A fully-connected child's dependencies are all satisfied now. *)
      if kc >= 0 then begin
        let child = ks.(kc) in
        match child.node.Graph.n_relation with
        | Bipartite.Fully_connected ->
          let drt = child.dep_ready_time in
          for c = 0 to Array.length drt - 1 do
            if drt.(c) < t then drt.(c) <- t
          done;
          if ap.tracing then
            for c = 0 to child.ntbs - 1 do
              stamp ap kc (3 * c)
            done
        | Bipartite.Independent | Bipartite.Graph _ -> ()
      end;
      (* The consumer kernel may now be gated only on our drain. *)
      if kc >= 0 then refresh_ready kc;
      try_complete ap k;
      (* Serial stream: the kernel command retires at completion. *)
      if serial && ap.serial_wait = k && n.completed then begin
        ap.serial_blocked <- false;
        ap.serial_wait <- -1;
        ap.next_cmd <- ap.next_cmd + 1
      end
    end
  in

  let on_launched (ap : astate) k =
    let n = ks.(k) in
    let t = now.now in
    n.launched <- true;
    if ap.tracing then begin
      let seq = k - ap.k0 in
      emit ap t (Stats.Kernel_launched { seq; stream = stream_of.(k) });
      (* The DLB/PCB are only consulted under fine-grain resolution. *)
      if fine then
        List.iter (emit ap t) (table_spills ap.acfg seq n.node.Graph.n_relation ~n_children:n.ntbs)
    end;
    m_launched ap k ~t n.node.Graph.n_relation ~n_children:n.ntbs;
    if n.ntbs = 0 then begin
      n.drained <- true;
      n.drained_at <- t;
      if ap.tracing then emit ap t (Stats.Kernel_drained { seq = k - ap.k0; stream = stream_of.(k) });
      m_drained ap k ~t;
      try_complete ap k
    end
    else begin
      link ap k;
      refresh_ready k
    end;
    bump ap
  in

  (* Main loop. *)
  progress ();
  let steps = ref 0 in
  while not (Eheap.is_empty heap) do
    let e = Eheap.pop_into heap cell in
    let t = cell.(0) in
    incr steps;
    if !steps > 100_000_000 then failwith (caller ^ ": event budget exceeded");
    let payload = e lsr 2 in
    let tag = e land 3 in
    let ap = st.(if tag = 1 then ks.(e lsr 32).app else if tag = 0 then ks.(payload).app else cmd_app.(payload)) in
    now.now <- t;
    advance ap.clk ap.running now;
    advance machine !g_running now;
    (match tag with
    | 1 -> on_tb_done ap (e lsr 32) (payload land 0x3FFF_FFFF)
    | 0 -> on_launched ap payload
    | 2 ->
      let ci = payload - ap.c0 in
      copy_completed payload;
      if ap.tracing then emit ap t (copy_event ~start:false ~blocking:false ap.commands.(ci) ci);
      bump ap
    | _ ->
      let ci = payload - ap.c0 in
      ap.serial_blocked <- false;
      (match ap.commands.(ci) with
      | Graph.Gh2d _ | Graph.Gd2h _ ->
        copy_completed payload;
        if ap.tracing then emit ap t (copy_event ~start:false ~blocking:true ap.commands.(ci) ci)
      | Graph.Gmalloc | Graph.Glaunch _ | Graph.Gsync -> ());
      bump ap;
      ap.next_cmd <- ap.next_cmd + 1);
    progress ()
  done;
  Array.iter
    (fun ap ->
      if ap.next_cmd < ap.nc then
        failwith
          (Printf.sprintf "%s: app %d host stalled at command %d/%d (mode %s)" caller ap.aid
             ap.next_cmd ap.nc (Mode.name mode)))
    st;
  Array.iteri
    (fun k n ->
      if not n.completed then
        failwith
          (Printf.sprintf "%s: app %d kernel %d never completed" caller n.app (k - k0.(n.app))))
    ks;

  (* Per-app statistics.  The per-node timing arrays become the Stats
     columns as they are: the engine is done writing them, and nothing
     below touches them again. *)
  let stats_of (ap : astate) =
    let column f = Array.init ap.nk (fun i -> f ks.(ap.k0 + i)) in
    let base_mem =
      Array.fold_left (fun acc (node : Graph.node) -> acc +. node.Graph.n_mem_requests) 0.0 ap.nodes
    in
    let dep_mem =
      if not (Mode.reorders mode) then 0.0
      else
        Array.fold_left
          (fun acc (node : Graph.node) ->
            let prev = node.Graph.n_prev in
            if prev < 0 then acc
            else begin
              let n_parents = ap.nodes.(prev).Graph.n_tbs in
              if fine then
                acc
                +. Hardware.dep_mem_requests ap.acfg ~sizes:node.Graph.n_sizes ~n_parents
                     ~n_children:node.Graph.n_tbs node.Graph.n_relation
              else acc +. 2.0 (* kernel-granular gating: a flag write + read *)
            end)
          0.0 ap.nodes
    in
    let total = ap.clk.end_time in
    {
      Stats.total_us = total;
      busy_us = ap.clk.busy;
      tb_dep_ready = column (fun n -> n.dep_ready_time);
      tb_start = column (fun n -> n.start_time);
      tb_finish = column (fun n -> n.finish_time);
      avg_concurrency = (if total > 0.0 then ap.clk.area /. total else 0.0);
      base_mem_requests = base_mem;
      dep_mem_requests = dep_mem;
    }
  in
  let o_stats = Array.map stats_of st in
  let makespan = Array.fold_left (fun m ap -> Float.max m ap.clk.end_time) 0.0 st in
  (match cs with
  | None -> ()
  | Some c ->
    Metrics.set c.c_makespan ~at:makespan makespan;
    Array.iteri (fun a ap -> Metrics.set c.ca_total.(a) ~at:makespan ap.clk.end_time) st);
  {
    o_stats;
    o_makespan_us = makespan;
    o_busy_us = machine.busy;
    o_avg_concurrency = (if makespan > 0.0 then machine.area /. makespan else 0.0);
    o_events = !steps;
  }

let run ?host_blocking_copies ?metrics ?trace ?deadlines cfg mode prep =
  let app = { a_sched = Graph.schedule_of_prep prep; a_trace = trace; a_deadlines = deadlines } in
  (run_schedules ~caller:"Sim.run" ?host_blocking_copies ?metrics cfg mode [| app |]).o_stats.(0)
