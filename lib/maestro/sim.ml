module Config = Bm_gpu.Config
module Stats = Bm_gpu.Stats
module Bipartite = Bm_depgraph.Bipartite
module Eheap = Bm_engine.Eheap
module Metrics = Bm_metrics.Metrics

type tb_state = Waiting | Queued | Running | Finished

(* Node execution state.  The static half comes from the {!Graph.node}; two
   link fields implement the active-node list ([-1] = nil, [-2] = not
   linked). *)
type nstate = {
  node : Graph.node;
  ntbs : int;                (* = node.n_tbs, hoisted for the hot loops *)
  tb_us : float array;       (* = node.n_tb_us *)
  mutable launched : bool;
  mutable started_tbs : int;
  mutable done_tbs : int;
  mutable drained : bool;
  mutable drained_at : float;
  mutable completed : bool;
  tb_state : tb_state array;
  pc : int array;  (* pending parent counts (Graph relation only) *)
  (* Ready-TB ring: each TB is enqueued at most once (Waiting -> Queued is a
     one-way transition), so a plain array with monotonic head/tail indices
     replaces the cell-allocating [Queue.t] with identical FIFO order. *)
  ready : int array;
  mutable rhead : int;
  mutable rtail : int;
  dep_ready_time : float array;
  start_time : float array;
  finish_time : float array;
  mutable a_prev : int;
  mutable a_next : int;
}

(* Events are packed into immediate ints so heap traffic allocates nothing
   (the generic boxed-entry {!Bm_engine.Heap} cost ~18 words per event):
   bits 0-1 tag — 0 Launch_done(seq), 1 Tb_done(k, tb), 2 Copy_done(ci),
   3 Cmd_done(ci).  Tags 0/2/3 keep their payload in bits 2+; Tb_done packs
   the TB id in bits 2-31 and the kernel seq in bits 32+.  The packing is
   part of the heap's tie-break behaviour, so it is fixed: every field must
   stay below [packed_limit], checked once per run by [check_packed]. *)
let ev_launch seq = seq lsl 2
let ev_tb k tb = 1 lor (tb lsl 2) lor (k lsl 32)
let ev_copy ci = 2 lor (ci lsl 2)
let ev_cmd ci = 3 lor (ci lsl 2)
let packed_limit = 1 lsl 30

(* Rejects a schedule whose launch, command or TB counts do not fit the
   packed events — before any per-TB state is allocated. *)
let check_packed ~caller (sched : Graph.schedule) =
  let nk = Array.length sched.Graph.s_nodes and nc = Array.length sched.Graph.s_commands in
  if nk >= packed_limit || nc >= packed_limit then
    invalid_arg
      (Printf.sprintf "%s: %d launches / %d commands exceed the packed-event bound of 2^30" caller
         nk nc);
  Array.iter
    (fun (n : Graph.node) ->
      if n.Graph.n_tbs >= packed_limit then
        invalid_arg
          (Printf.sprintf "%s: kernel %d has %d thread blocks, beyond the packed-event bound of 2^30"
             caller n.Graph.n_seq n.Graph.n_tbs))
    sched.Graph.s_nodes

(* Simulated-clock state.  All-float records are unboxed by the compiler,
   so updating these fields in the hot loop allocates nothing — unlike
   [float ref], which boxes on every store. *)
type fstate = {
  mutable now : float;
  mutable last_t : float;   (* concurrency integration frontier *)
  mutable area : float;     (* integral of running TBs over time *)
  mutable busy : float;     (* time with >= 1 running TB *)
  mutable end_time : float;
  mutable launch_free : float;  (* serial launch engine *)
  mutable copy_free : float;    (* copy engine *)
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
   child TB; anything beyond the table sizes spills to global memory. *)
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

let run_schedule ~caller ?(host_blocking_copies = false) ?metrics ?trace ?deadlines
    (cfg : Config.t) mode (sched : Graph.schedule) =
  check_packed ~caller sched;
  (* Observability hook: a no-op closure when disabled, so the hot path
     pays one indirect call per event and nothing else. *)
  let tracing = trace <> None in
  let emit = match trace with Some f -> f | None -> fun _ _ -> () in
  let nodes = sched.Graph.s_nodes in
  let nk = Array.length nodes in
  let commands = sched.Graph.s_commands in
  let nc = Array.length commands in
  let window = Mode.window mode in
  let fine = Mode.fine_grain mode in
  let serial = Mode.serial_commands mode in
  let launch_us = Mode.launch_overhead cfg mode in
  let total_slots = Config.total_tb_slots cfg in

  let ks =
    Array.map
      (fun (node : Graph.node) ->
        let n = node.Graph.n_tbs in
        let pc =
          match node.Graph.n_relation with
          | Bipartite.Graph g -> Array.map Array.length g.Bipartite.parents_of
          | Bipartite.Independent | Bipartite.Fully_connected -> [||]
        in
        {
          node;
          ntbs = n;
          tb_us = node.Graph.n_tb_us;
          launched = false;
          started_tbs = 0;
          done_tbs = 0;
          drained = n = 0;
          drained_at = 0.0;
          completed = false;
          tb_state = Array.make n Waiting;
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
     window all apply per stream (paper SIII-C). *)
  let prev_of = Array.map (fun (n : Graph.node) -> n.Graph.n_prev) nodes in
  let next_of = Array.make nk (-1) in
  Array.iteri (fun k p -> if p >= 0 then next_of.(p) <- k) prev_of;
  let stream_of = Array.map (fun (n : Graph.node) -> n.Graph.n_stream) nodes in
  (* Dense stream indexing: per-stream residency counts and dispatch-time
     blocked flags live in arrays instead of hashtables of refs. *)
  let sidx = Array.make nk 0 in
  let nstreams =
    let seen : (int, int) Hashtbl.t = Hashtbl.create 4 in
    Array.iteri
      (fun k s ->
        match Hashtbl.find_opt seen s with
        | Some i -> sidx.(k) <- i
        | None ->
          let i = Hashtbl.length seen in
          Hashtbl.add seen s i;
          sidx.(k) <- i)
      stream_of;
    Hashtbl.length seen
  in
  let resident = Array.make (max nstreams 1) 0 in
  let heap = Eheap.create () in
  let f =
    { now = 0.0; last_t = 0.0; area = 0.0; busy = 0.0; end_time = 0.0;
      launch_free = 0.0; copy_free = 0.0 }
  in

  (* Concurrency integration. *)
  let running = ref 0 in
  let advance t =
    if t > f.last_t then begin
      f.area <- f.area +. (float_of_int !running *. (t -. f.last_t));
      if !running > 0 then f.busy <- f.busy +. (t -. f.last_t);
      f.last_t <- t
    end
  in

  (* Metric handles, looked up once.  [None] keeps every site allocation-free. *)
  let ms = match metrics with None -> None | Some reg -> Some (make_mstate reg nk) in
  let m_copy ~d2h ~bytes ~dur =
    match ms with
    | None -> ()
    | Some m ->
      Metrics.incr m.m_copy_count;
      Metrics.add (if d2h then m.m_copy_d2h else m.m_copy_h2d) (float_of_int bytes);
      Metrics.add m.m_copy_busy dur
  in
  let m_copy_cmd ~dur ci cmd =
    match cmd with
    | Graph.Gh2d { bytes } -> m_copy ~d2h:false ~bytes ~dur
    | Graph.Gd2h { bytes; _ } -> m_copy ~d2h:true ~bytes ~dur
    | Graph.Gmalloc | Graph.Glaunch _ | Graph.Gsync -> ignore ci
  in
  (* Called at kernel enqueue: stamps the launch-overhead baseline and
     samples the pre-launch window residency. *)
  let m_enqueue seq ~now ~busy =
    match ms with
    | None -> ()
    | Some m ->
      m.m_enq_time.(seq) <- now;
      m.m_enq_busy.(seq) <- busy;
      m.m_resident <- m.m_resident + 1;
      Metrics.set m.m_window ~at:now (float_of_int m.m_resident);
      Metrics.observe m.m_window_occ (float_of_int m.m_resident)
  in
  (* Called at Launch_done: splits the enqueue->launched span into overhead
     masked by concurrent device work vs. exposed on the critical path, and
     charges the kernel's DLB/PCB demand (fine-grain modes only). *)
  let m_launched seq ~t ~busy ~fine relation ~n_children =
    match ms with
    | None -> ()
    | Some m ->
      let span = t -. m.m_enq_time.(seq) in
      let masked = Float.min span (Float.max 0.0 (busy -. m.m_enq_busy.(seq))) in
      Metrics.add m.m_masked masked;
      Metrics.add m.m_exposed (span -. masked);
      if fine then begin
        let nd = Hardware.dlb_entries_needed cfg relation in
        let np = Hardware.pcb_counters_needed relation ~n_children in
        m.m_dlb_demand.(seq) <- nd;
        m.m_pcb_demand.(seq) <- np;
        m.m_dlb_used <- m.m_dlb_used + nd;
        m.m_pcb_used <- m.m_pcb_used + np;
        Metrics.set m.m_dlb ~at:t (float_of_int m.m_dlb_used);
        Metrics.set m.m_pcb ~at:t (float_of_int m.m_pcb_used);
        Metrics.add m.m_dlb_spill (float_of_int (Hardware.dlb_spill_bytes cfg ~needed:nd));
        Metrics.add m.m_pcb_spill (float_of_int (Hardware.pcb_spill_bytes cfg ~needed:np))
      end
  in
  (* Called when a kernel drains: its parent-side table entries retire. *)
  let m_drained k ~t =
    match ms with
    | Some m when m.m_dlb_demand.(k) <> 0 || m.m_pcb_demand.(k) <> 0 ->
      m.m_dlb_used <- m.m_dlb_used - m.m_dlb_demand.(k);
      m.m_pcb_used <- m.m_pcb_used - m.m_pcb_demand.(k);
      m.m_dlb_demand.(k) <- 0;
      m.m_pcb_demand.(k) <- 0;
      Metrics.set m.m_dlb ~at:t (float_of_int m.m_dlb_used);
      Metrics.set m.m_pcb ~at:t (float_of_int m.m_pcb_used)
    | Some _ | None -> ()
  in
  let m_completed ~t =
    match ms with
    | None -> ()
    | Some m ->
      m.m_resident <- m.m_resident - 1;
      Metrics.set m.m_window ~at:t (float_of_int m.m_resident)
  in

  let policy = Mode.policy mode in
  (* Dispatch rank: the position of each kernel in the order dispatch visits
     the resident kernels.  Launch order for oldest/newest-first; for EDF
     the static order by effective deadline key (priority inheritance
     applied) — keys never change during a run, so visiting resident
     kernels in this fixed order is exact EDF. *)
  let rank =
    match policy with
    | Mode.Edf ->
      let order = Deadline.order_of_schedule ?deadlines sched in
      let r = Array.make nk 0 in
      Array.iteri (fun i k -> r.(k) <- i) order;
      r
    | Mode.Oldest_first | Mode.Newest_first -> Array.init nk Fun.id
  in

  (* Active-node list: exactly the launched-but-not-drained kernels, in
     ascending rank.  Under launch-order ranks it is O(1) to keep sorted:
     launch events fire in sequence order (enqueues are program-ordered,
     launch keys are non-decreasing, and the heap breaks ties by insertion
     order), so the walk below stops at the tail at once.  EDF ranks may
     place a newly launched kernel anywhere; the walk finds its slot. *)
  let active_head = ref (-1) in
  let active_tail = ref (-1) in
  let link k =
    let st = ks.(k) in
    let after = ref !active_tail in
    while !after >= 0 && rank.(!after) > rank.(k) do
      after := ks.(!after).a_prev
    done;
    let nxt = if !after < 0 then !active_head else ks.(!after).a_next in
    st.a_prev <- !after;
    st.a_next <- nxt;
    if !after < 0 then active_head := k else ks.(!after).a_next <- k;
    if nxt < 0 then active_tail := k else ks.(nxt).a_prev <- k
  in
  let unlink k =
    let st = ks.(k) in
    if st.a_prev >= -1 then begin
      if st.a_prev < 0 then active_head := st.a_next else ks.(st.a_prev).a_next <- st.a_next;
      if st.a_next < 0 then active_tail := st.a_prev else ks.(st.a_next).a_prev <- st.a_prev;
      st.a_prev <- -2;
      st.a_next <- -2
    end
  in

  (* Copy-dependency countdown: [pending_copies.(k)] pending H2D copies of
     node [k]; [copy_dependents.(ci)] the nodes waiting on command [ci].
     Decremented by copy-completion events; the launch gate is a single
     integer test. *)
  let pending_copies = Array.map (fun (n : Graph.node) -> Array.length n.Graph.n_copy_deps) nodes in
  let copy_dependents = Array.make (max nc 1) [] in
  Array.iteri
    (fun k (n : Graph.node) ->
      Array.iter (fun ci -> copy_dependents.(ci) <- k :: copy_dependents.(ci)) n.Graph.n_copy_deps)
    nodes;
  let copy_completed ci =
    List.iter (fun k -> pending_copies.(k) <- pending_copies.(k) - 1) copy_dependents.(ci)
  in

  let free_slots = ref total_slots in
  let next_cmd = ref 0 in
  (* In serial mode the host stalls on the in-flight command. *)
  let serial_blocked = ref false in
  let serial_wait_kernel = ref (-1) in
  (* D2H copies parked until their producing kernel completes. *)
  let pending_d2h : (int * float) list array = Array.make (max nk 1) [] in
  let bump t = if t > f.end_time then f.end_time <- t in

  let queue_tb k tb =
    let st = ks.(k) in
    match st.tb_state.(tb) with
    | Waiting ->
      st.tb_state.(tb) <- Queued;
      st.ready.(st.rtail) <- tb;
      st.rtail <- st.rtail + 1
    | Queued | Running | Finished -> ()
  in

  (* Initial readiness of kernel [k]'s TBs under the mode's policy.  Called
     at launch completion and again when the parent drains. *)
  let refresh_ready k =
    let st = ks.(k) in
    if st.launched && not st.drained then begin
      let parent_drained =
        prev_of.(k) < 0 || ks.(prev_of.(k)).drained || ks.(prev_of.(k)).completed
      in
      match st.node.Graph.n_relation with
      | Bipartite.Independent ->
        for tb = 0 to st.ntbs - 1 do
          if st.tb_state.(tb) = Waiting then queue_tb k tb
        done
      | Bipartite.Fully_connected ->
        if parent_drained then
          for tb = 0 to st.ntbs - 1 do
            if st.tb_state.(tb) = Waiting then queue_tb k tb
          done
      | Bipartite.Graph _ ->
        if fine then begin
          for tb = 0 to st.ntbs - 1 do
            if st.tb_state.(tb) = Waiting && st.pc.(tb) = 0 then queue_tb k tb
          done
        end
        else if parent_drained then
          for tb = 0 to st.ntbs - 1 do
            if st.tb_state.(tb) = Waiting then queue_tb k tb
          done
    end
  in

  (* Scheduling: fill free slots from ready rings, walking the active list
     in rank order.  Readiness and the active set cannot change while
     dispatching (only future events are pushed), so greedily draining each
     kernel's ready ring in priority order issues exactly the TB sequence a
     per-TB search would.  Producer priority (strict, paper §III-D) means a
     kernel is eligible only when every older active kernel in its stream
     has all TBs started; draining in ascending order with a per-stream
     blocked flag enforces precisely that, because dispatching from [k]
     never changes any older kernel's eligibility. *)
  let blocked_gen = Array.make (max nstreams 1) 0 in
  let dispatch_gen = ref 0 in
  let drain_kernel k =
    let st = ks.(k) in
    while !free_slots > 0 && st.rhead < st.rtail do
      let tb = st.ready.(st.rhead) in
      st.rhead <- st.rhead + 1;
      st.tb_state.(tb) <- Running;
      st.start_time.(tb) <- f.now;
      st.started_tbs <- st.started_tbs + 1;
      decr free_slots;
      incr running;
      if tracing then emit f.now (Stats.Tb_dispatch { seq = k; tb });
      (match ms with Some m -> Metrics.incr m.m_tb_dispatched | None -> ());
      Eheap.push heap (f.now +. st.tb_us.(tb)) (ev_tb k tb)
    done
  in
  let dispatch () =
    if !free_slots > 0 then begin
      match policy with
      | Mode.Newest_first ->
        (* Consumer priority: any ready TB of any active kernel may run;
           newest kernels first. *)
        let k = ref !active_tail in
        while !free_slots > 0 && !k >= 0 do
          let prv = ks.(!k).a_prev in
          drain_kernel !k;
          k := prv
        done
      | Mode.Edf ->
        (* Earliest effective deadline first: any ready TB of any active
           kernel may run, most urgent kernel first. *)
        let k = ref !active_head in
        while !free_slots > 0 && !k >= 0 do
          let nxt = ks.(!k).a_next in
          drain_kernel !k;
          k := nxt
        done
      | Mode.Oldest_first -> begin
        incr dispatch_gen;
        let gen = !dispatch_gen in
        let k = ref !active_head in
        while !free_slots > 0 && !k >= 0 do
          let st = ks.(!k) in
          let nxt = st.a_next in
          let s = sidx.(!k) in
          if blocked_gen.(s) <> gen then begin
            drain_kernel !k;
            (* Younger kernels in this stream stay ineligible until every
               TB here has been scheduled. *)
            if st.started_tbs < st.ntbs then blocked_gen.(s) <- gen
          end;
          k := nxt
        done
      end
    end
  in

  (* In-order kernel completion, per stream: kernel k completes only once
     it has drained and its stream predecessor has completed. *)
  let rec try_complete k =
    if k >= 0 && (not ks.(k).completed) && ks.(k).drained
       && (prev_of.(k) < 0 || ks.(prev_of.(k)).completed)
    then begin
      ks.(k).completed <- true;
      resident.(sidx.(k)) <- resident.(sidx.(k)) - 1;
      if tracing then emit f.now (Stats.Kernel_completed { seq = k; stream = stream_of.(k) });
      m_completed ~t:f.now;
      (* Release the copies gated on this kernel. *)
      List.iter
        (fun (ci, dur) ->
          let start = max f.now f.copy_free in
          f.copy_free <- start +. dur;
          if tracing then
            emit start (copy_event ~start:true ~blocking:false commands.(ci) ci);
          m_copy_cmd ~dur ci commands.(ci);
          Eheap.push heap (start +. dur) (ev_copy ci))
        (List.rev pending_d2h.(k));
      pending_d2h.(k) <- [];
      bump f.now;
      try_complete next_of.(k)
    end
  in

  let kernel_completed k = k < 0 || (k < nk && ks.(k).completed) in

  (* Host command issue. *)
  let try_issue () =
    let blocked = ref false in
    while (not !blocked) && !next_cmd < nc do
      let ci = !next_cmd in
      if !serial_blocked then blocked := true
      else begin
        match commands.(ci) with
        | Graph.Gsync ->
          (* Serial streams are already synchronized at this point;
             BlockMaestro drops syncs during reordering. *)
          incr next_cmd
        | Graph.Gmalloc ->
          (* cudaMalloc blocks the host in every mode (paper §III-C). *)
          Eheap.push heap (f.now +. cfg.Config.malloc_us) (ev_cmd ci);
          serial_blocked := true;
          blocked := true
        | Graph.Gh2d { bytes } ->
          let dur = memcpy_us cfg bytes in
          if serial || host_blocking_copies then begin
            (* Synchronous cudaMemcpy: the host stalls until it returns
               (the default CUDA behaviour BlockMaestro's non-blocking
               treatment removes, paper SIII-C). *)
            if tracing then emit f.now (copy_event ~start:true ~blocking:true commands.(ci) ci);
            m_copy ~d2h:false ~bytes ~dur;
            Eheap.push heap (f.now +. dur) (ev_cmd ci);
            serial_blocked := true;
            blocked := true
          end
          else begin
            let start = max f.now f.copy_free in
            f.copy_free <- start +. dur;
            if tracing then emit start (copy_event ~start:true ~blocking:false commands.(ci) ci);
            m_copy ~d2h:false ~bytes ~dur;
            Eheap.push heap (start +. dur) (ev_copy ci);
            incr next_cmd
          end
        | Graph.Gd2h { bytes; wait = gate } ->
          let dur = memcpy_us cfg bytes in
          if serial then
            if kernel_completed gate then begin
              if tracing then emit f.now (copy_event ~start:true ~blocking:true commands.(ci) ci);
              m_copy ~d2h:true ~bytes ~dur;
              Eheap.push heap (f.now +. dur) (ev_cmd ci);
              serial_blocked := true;
              blocked := true
            end
            else blocked := true
          else if kernel_completed gate then begin
            let start = max f.now f.copy_free in
            f.copy_free <- start +. dur;
            if tracing then emit start (copy_event ~start:true ~blocking:false commands.(ci) ci);
            m_copy ~d2h:true ~bytes ~dur;
            Eheap.push heap (start +. dur) (ev_copy ci);
            incr next_cmd
          end
          else begin
            (* The RAW hazard with the host is enforced by hardware: the
               copy is parked on the producing kernel's completion and the
               host continues issuing (paper §III-C, "handling blocking
               APIs"). *)
            pending_d2h.(gate) <- (ci, dur) :: pending_d2h.(gate);
            incr next_cmd
          end
        | Graph.Glaunch { seq } ->
          let st = ks.(seq) in
          let copies_ok = pending_copies.(seq) = 0 in
          if serial then begin
            (* Baseline stream: the kernel is the only device work. *)
            if copies_ok then begin
              resident.(sidx.(seq)) <- resident.(sidx.(seq)) + 1;
              if tracing then
                emit f.now
                  (Stats.Kernel_enqueue { seq; stream = stream_of.(seq); tbs = st.ntbs });
              m_enqueue seq ~now:f.now ~busy:f.busy;
              let start = max f.now f.launch_free in
              f.launch_free <- start +. launch_us;
              Eheap.push heap (start +. launch_us) (ev_launch seq);
              serial_blocked := true;
              serial_wait_kernel := seq;
              blocked := true
            end
            else blocked := true
          end
          else if resident.(sidx.(seq)) < window && copies_ok then begin
            (* Launch processing pipelines across pre-launched kernels: the
               per-stream residency window, not a serial engine, is the
               limit. *)
            resident.(sidx.(seq)) <- resident.(sidx.(seq)) + 1;
            if tracing then
              emit f.now
                (Stats.Kernel_enqueue { seq; stream = stream_of.(seq); tbs = st.ntbs });
            m_enqueue seq ~now:f.now ~busy:f.busy;
            Eheap.push heap (f.now +. launch_us) (ev_launch seq);
            incr next_cmd
          end
          else blocked := true
      end
    done
  in

  let progress () =
    try_issue ();
    dispatch ()
  in

  (* Dependency bookkeeping on a finished parent TB. *)
  let on_tb_done k tb =
    let st = ks.(k) in
    st.tb_state.(tb) <- Finished;
    st.finish_time.(tb) <- f.now;
    st.done_tbs <- st.done_tbs + 1;
    incr free_slots;
    decr running;
    bump f.now;
    if tracing then emit f.now (Stats.Tb_finish { seq = k; tb });
    (match ms with Some m -> Metrics.observe m.m_tb_exec (f.now -. st.start_time.(tb)) | None -> ());
    (* Fine-grain child updates (tracked in every mode for Fig. 11). *)
    let kc = next_of.(k) in
    if kc >= 0 then begin
      let child = ks.(kc) in
      match child.node.Graph.n_relation with
      | Bipartite.Graph g ->
        let cs = g.Bipartite.children_of.(tb) in
        for i = 0 to Array.length cs - 1 do
          let c = cs.(i) in
          child.pc.(c) <- child.pc.(c) - 1;
          if f.now > child.dep_ready_time.(c) then child.dep_ready_time.(c) <- f.now;
          if tracing && child.pc.(c) = 0 then emit f.now (Stats.Dep_satisfied { seq = kc; tb = c });
          if fine && child.pc.(c) = 0 && child.launched then queue_tb kc c
        done
      | Bipartite.Independent | Bipartite.Fully_connected -> ()
    end;
    if st.done_tbs = st.ntbs then begin
      st.drained <- true;
      st.drained_at <- f.now;
      unlink k;
      if tracing then emit f.now (Stats.Kernel_drained { seq = k; stream = stream_of.(k) });
      m_drained k ~t:f.now;
      (* A fully-connected child's dependencies are all satisfied now. *)
      if kc >= 0 then begin
        let child = ks.(kc) in
        match child.node.Graph.n_relation with
        | Bipartite.Fully_connected ->
          let drt = child.dep_ready_time in
          for c = 0 to Array.length drt - 1 do
            if drt.(c) < f.now then drt.(c) <- f.now
          done;
          if tracing then
            Array.iteri (fun c _ -> emit f.now (Stats.Dep_satisfied { seq = kc; tb = c }))
              child.dep_ready_time
        | Bipartite.Independent | Bipartite.Graph _ -> ()
      end;
      (* The consumer kernel may now be gated only on our drain. *)
      if kc >= 0 then refresh_ready kc;
      try_complete k;
      (* Serial stream: the kernel command retires at completion. *)
      if serial && !serial_wait_kernel = k && ks.(k).completed then begin
        serial_blocked := false;
        serial_wait_kernel := -1;
        incr next_cmd
      end
    end
  in

  (* Main loop. *)
  progress ();
  let steps = ref 0 in
  let rec loop () =
    if not (Eheap.is_empty heap) then begin
      let t = Eheap.pop_key heap in
      let e = Eheap.pop_ev heap in
      incr steps;
      if !steps > 100_000_000 then failwith (caller ^ ": event budget exceeded");
      advance t;
      f.now <- t;
      let payload = e lsr 2 in
      (match e land 3 with
      | 1 -> on_tb_done (e lsr 32) (payload land 0x3FFF_FFFF)
      | 0 ->
        let seq = payload in
        let st = ks.(seq) in
        st.launched <- true;
        if tracing then begin
          emit t (Stats.Kernel_launched { seq; stream = stream_of.(seq) });
          (* The DLB/PCB are only consulted under fine-grain resolution. *)
          if fine then
            List.iter (emit t) (table_spills cfg seq st.node.Graph.n_relation ~n_children:st.ntbs)
        end;
        m_launched seq ~t ~busy:f.busy ~fine st.node.Graph.n_relation ~n_children:st.ntbs;
        if st.ntbs = 0 then begin
          st.drained <- true;
          st.drained_at <- t;
          if tracing then emit t (Stats.Kernel_drained { seq; stream = stream_of.(seq) });
          m_drained seq ~t;
          try_complete seq
        end
        else begin
          link seq;
          refresh_ready seq
        end;
        bump t
      | 2 ->
        let ci = payload in
        copy_completed ci;
        if tracing then emit t (copy_event ~start:false ~blocking:false commands.(ci) ci);
        bump t
      | _ ->
        let ci = payload in
        serial_blocked := false;
        (match commands.(ci) with
        | Graph.Gh2d _ | Graph.Gd2h _ ->
          copy_completed ci;
          if tracing then emit t (copy_event ~start:false ~blocking:true commands.(ci) ci)
        | Graph.Gmalloc | Graph.Glaunch _ | Graph.Gsync -> ());
        bump t;
        incr next_cmd);
      progress ();
      loop ()
    end
  in
  loop ();
  if !next_cmd < nc then
    failwith
      (Printf.sprintf "%s: host stalled at command %d/%d (mode %s)" caller !next_cmd nc
         (Mode.name mode));
  Array.iteri
    (fun k st ->
      if not st.completed then failwith (Printf.sprintf "%s: kernel %d never completed" caller k))
    ks;

  (* Collect statistics.  Records are filled straight into the result array
     (kernel-major, TB-minor). *)
  let total_tbs = Array.fold_left (fun acc st -> acc + st.ntbs) 0 ks in
  let records =
    Array.make total_tbs
      { Stats.r_kernel = 0; r_tb = 0; r_dep_ready = 0.0; r_start = 0.0; r_finish = 0.0 }
  in
  let ri = ref 0 in
  Array.iteri
    (fun k st ->
      for tb = 0 to st.ntbs - 1 do
        records.(!ri) <-
          {
            Stats.r_kernel = k;
            r_tb = tb;
            r_dep_ready = st.dep_ready_time.(tb);
            r_start = st.start_time.(tb);
            r_finish = st.finish_time.(tb);
          };
        incr ri
      done)
    ks;
  let base_mem =
    Array.fold_left (fun acc (st : nstate) -> acc +. st.node.Graph.n_mem_requests) 0.0 ks
  in
  let dep_mem =
    if not (Mode.reorders mode) then 0.0
    else
      Array.fold_left
        (fun acc (st : nstate) ->
          let prev = st.node.Graph.n_prev in
          if prev < 0 then acc
          else begin
            let n_parents = nodes.(prev).Graph.n_tbs in
            if fine then
              acc
              +. Hardware.dep_mem_requests cfg ~n_parents ~n_children:st.ntbs
                   st.node.Graph.n_relation
            else acc +. 2.0 (* kernel-granular gating: a flag write + read *)
          end)
        0.0 ks
  in
  let total = f.end_time in
  ( {
      Stats.total_us = total;
      busy_us = f.busy;
      records;
      avg_concurrency = (if total > 0.0 then f.area /. total else 0.0);
      base_mem_requests = base_mem;
      dep_mem_requests = dep_mem;
    },
    !steps )

let run ?host_blocking_copies ?metrics ?trace ?deadlines cfg mode prep =
  fst
    (run_schedule ~caller:"Sim.run" ?host_blocking_copies ?metrics ?trace ?deadlines cfg mode
       (Graph.schedule_of_prep prep))
