module Command = Bm_gpu.Command
module Config = Bm_gpu.Config
module Stats = Bm_gpu.Stats
module Bipartite = Bm_depgraph.Bipartite
module Encode = Bm_depgraph.Encode
module Mode = Bm_maestro.Mode
module Prep = Bm_maestro.Prep
module Multi = Bm_maestro.Multi
module Hardware = Bm_maestro.Hardware

(* Thread-block lifecycle.  [Ready] means "sitting in the kernel's ready
   list" (the engine's Queued). *)
type tb = Waiting | Ready | Running | Finished

type krec = {
  info : Prep.launch_info;
  mutable enqueued : bool;   (* the host issued the launch command *)
  mutable launched : bool;   (* launch processing finished *)
  tb : tb array;
  mutable ready : int list;  (* FIFO: appended at the tail, popped at the head *)
  dep_ready : float array;
  start_t : float array;
  finish_t : float array;
  mutable drained : bool;
  mutable drained_at : float;
  mutable completed : bool;
}

(* Occurrences are pushed with their app: the pop rule stays minimum
   (time, insertion seq), so two apps' simultaneous events retire in
   insertion order — the same tie-break the engine's event heap gives. *)
type occ =
  | Launch_done of int
  | Tb_done of int * int
  | Copy_done of int
  | Cmd_done of int

let memcpy_us (cfg : Config.t) bytes =
  cfg.Config.memcpy_latency_us +. (float_of_int bytes /. (cfg.Config.memcpy_gb_per_s *. 1000.0))

let run ?(submission = Multi.Fifo) ?(spatial = Multi.Shared) ?(slots_bug = 0)
    ?(host_blocking_copies = false) ?deadlines ?(window_bug = 0) (cfg : Config.t) mode
    (preps : Prep.t array) =
  let napps = Array.length preps in
  if napps < 1 then invalid_arg "Refsched.run: no apps";
  let parts =
    match spatial with
    | Multi.Shared -> None
    | Multi.Partitioned parts ->
      if Array.length parts <> napps then
        invalid_arg "Refsched.run: partition list must have one slice per app";
      Some parts
  in
  let acfg = Array.init napps (fun a ->
      match parts with None -> cfg | Some p -> Config.with_sms cfg p.(a))
  in
  let window = Mode.window mode + window_bug in
  let fine = Mode.fine_grain mode in
  let serial = Mode.serial_commands mode in
  let launch_us = Mode.launch_overhead cfg mode in

  let launches = Array.map (fun (p : Prep.t) -> p.Prep.p_launches) preps in
  let nk = Array.map Array.length launches in
  let commands = Array.map (fun (p : Prep.t) -> p.Prep.p_commands) preps in
  let nc = Array.map Array.length commands in
  (match deadlines with
  | Some d when Array.length d <> napps ->
    invalid_arg "Refsched.run: deadlines must have one array per app"
  | Some d when Array.exists2 (fun da n -> Array.length da <> n) d nk ->
    invalid_arg "Refsched.run: deadlines length <> launches"
  | Some _ | None -> ());
  let ks =
    Array.map
      (Array.map (fun (info : Prep.launch_info) ->
           let n = info.Prep.li_tbs in
           {
             info;
             enqueued = false;
             launched = false;
             tb = Array.make n Waiting;
             ready = [];
             dep_ready = Array.make n 0.0;
             start_t = Array.make n 0.0;
             finish_t = Array.make n 0.0;
             drained = n = 0;
             drained_at = 0.0;
             completed = false;
           }))
      launches
  in
  let prev_of a k = match launches.(a).(k).Prep.li_prev with Some p -> p | None -> -1 in
  let next_of =
    Array.init napps (fun a ->
        let nx = Array.make nk.(a) (-1) in
        Array.iteri
          (fun k (li : Prep.launch_info) ->
            match li.Prep.li_prev with Some p -> nx.(p) <- k | None -> ())
          launches.(a);
        nx)
  in
  let stream_of a k = launches.(a).(k).Prep.li_spec.Command.stream in

  (* Resource pools: one for everything under Shared, one per app under
     Partitioned.  [slots_bug] widens every pool. *)
  let pool_of a = match parts with None -> 0 | Some _ -> a in
  let npools = match parts with None -> 1 | Some _ -> napps in
  let slot_budget p =
    (match parts with
    | None -> Config.total_tb_slots cfg
    | Some _ -> Config.total_tb_slots acfg.(p))
    + slots_bug
  in
  let copy_engine_free = Array.make npools 0.0 in
  let launch_engine_free = Array.make npools 0.0 in

  (* Pending occurrences: a flat list ordered by nothing; popping scans for
     the minimum (time, insertion seq) — the heap contract, naively. *)
  let pending : (float * int * int * occ) list ref = ref [] in
  let next_seq = ref 0 in
  let push a t o =
    pending := (t, !next_seq, a, o) :: !pending;
    incr next_seq
  in
  let pop () =
    match !pending with
    | [] -> None
    | first :: rest ->
      let best =
        List.fold_left
          (fun ((bt, bs, _, _) as b) ((t, s, _, _) as e) ->
            if t < bt || (t = bt && s < bs) then e else b)
          first rest
      in
      let _, bseq, _, _ = best in
      pending := List.filter (fun (_, s, _, _) -> s <> bseq) !pending;
      Some best
  in

  let now = ref 0.0 in
  (* Per-app clocks, advanced only around that app's own activity — the
     same discipline the engine uses to keep per-app floats on the
     solo-run op sequence. *)
  let last_t = Array.make napps 0.0 in
  let area = Array.make napps 0.0 in
  let busy = Array.make napps 0.0 in
  let end_time = Array.make napps 0.0 in
  let bump a t = if t > end_time.(a) then end_time.(a) <- t in

  (* Everything below is recomputed by scanning, never cached. *)
  let count_state a k st =
    Array.fold_left (fun acc s -> if s = st then acc + 1 else acc) 0 ks.(a).(k).tb
  in
  let app_running a =
    let n = ref 0 in
    for k = 0 to nk.(a) - 1 do
      n := !n + count_state a k Running
    done;
    !n
  in
  let pool_running p =
    let n = ref 0 in
    for a = 0 to napps - 1 do
      if pool_of a = p then n := !n + app_running a
    done;
    !n
  in
  let free_slots p = slot_budget p - pool_running p in
  let started a k = count_state a k Running + count_state a k Finished in
  let all_finished a k = Array.for_all (fun s -> s = Finished) ks.(a).(k).tb in
  let resident a stream =
    let n = ref 0 in
    for k = 0 to nk.(a) - 1 do
      if stream_of a k = stream && ks.(a).(k).enqueued && not ks.(a).(k).completed then incr n
    done;
    !n
  in
  let advance a t =
    if t > last_t.(a) then begin
      let r = app_running a in
      area.(a) <- area.(a) +. (float_of_int r *. (t -. last_t.(a)));
      if r > 0 then busy.(a) <- busy.(a) +. (t -. last_t.(a));
      last_t.(a) <- t
    end
  in

  (* Admission ranks, recomputed from scratch on every query.  A kernel
     may enqueue only when its rank equals the count of kernels already
     enqueued machine-wide; partitioned slices (and a single app) skip
     the gate. *)
  let gated = parts = None && napps > 1 in
  let enq_count = ref 0 in
  let rank a k =
    match submission with
    | Multi.Fifo ->
      let r = ref 0 in
      for b = 0 to a - 1 do
        r := !r + nk.(b)
      done;
      !r + k
    | Multi.Round_robin ->
      let r = ref 0 in
      for b = 0 to napps - 1 do
        for j = 0 to nk.(b) - 1 do
          if j < k || (j = k && b < a) then incr r
        done
      done;
      !r
    | Multi.Packed ->
      (* Replay the greedy merge until (a, k) is chosen. *)
      let idx = Array.make napps 0 in
      let r = ref 0 in
      let found = ref (-1) in
      while !found < 0 do
        let best = ref (-1) in
        let best_tbs = ref max_int in
        for b = 0 to napps - 1 do
          if idx.(b) < nk.(b) && launches.(b).(idx.(b)).Prep.li_tbs < !best_tbs then begin
            best := b;
            best_tbs := launches.(b).(idx.(b)).Prep.li_tbs
          end
        done;
        if !best = a && idx.(a) = k then found := !r
        else begin
          idx.(!best) <- idx.(!best) + 1;
          incr r
        end
      done;
      !found
  in
  let admission_ok a k = (not gated) || rank a k = !enq_count in
  let note_enqueued () = if gated then incr enq_count in

  (* Deadline key of app [a]'s kernel [k] under the EDF policy, re-derived
     naively on every use: the base key is the stream-prefix total TB time
     (or the caller's per-kernel override), and priority inheritance takes
     the minimum base key over [k] and its whole stream-successor chain. *)
  let edf_key a k =
    let rec chain k =
      if k < 0 then 0.0
      else
        chain (prev_of a k)
        +. Array.fold_left ( +. ) 0.0 launches.(a).(k).Prep.li_cost.Bm_gpu.Costmodel.tb_us
    in
    let base k = match deadlines with Some d -> d.(a).(k) | None -> chain k in
    let rec min_suffix k acc =
      if k < 0 then acc else min_suffix next_of.(a).(k) (Float.min acc (base k))
    in
    min_suffix k infinity
  in

  let parent_drained a k =
    let p = prev_of a k in
    p < 0 || ks.(a).(p).drained || ks.(a).(p).completed
  in
  let all_parents_finished a k c =
    match ks.(a).(k).info.Prep.li_relation with
    | Bipartite.Graph g ->
      let parents = ks.(a).(prev_of a k).tb in
      let all = ref true in
      for i = 0 to Bipartite.in_degree g c - 1 do
        if parents.(Bipartite.parent g c i) <> Finished then all := false
      done;
      !all
    | Bipartite.Independent | Bipartite.Fully_connected -> true
  in
  let append_ready a k tbid =
    let st = ks.(a).(k) in
    if st.tb.(tbid) = Waiting then begin
      st.tb.(tbid) <- Ready;
      st.ready <- st.ready @ [ tbid ]
    end
  in
  let refresh_ready a k =
    let st = ks.(a).(k) in
    if st.launched && not st.drained then
      match st.info.Prep.li_relation with
      | Bipartite.Independent -> Array.iteri (fun tbid _ -> append_ready a k tbid) st.tb
      | Bipartite.Fully_connected ->
        if parent_drained a k then Array.iteri (fun tbid _ -> append_ready a k tbid) st.tb
      | Bipartite.Graph _ ->
        if fine then
          Array.iteri
            (fun tbid _ -> if all_parents_finished a k tbid then append_ready a k tbid)
            st.tb
        else if parent_drained a k then
          Array.iteri (fun tbid _ -> append_ready a k tbid) st.tb
  in

  let next_cmd = Array.make napps 0 in
  let copy_done = Array.init napps (fun a -> Array.make (max nc.(a) 1) false) in
  let serial_blocked = Array.make napps false in
  let serial_wait_kernel = Array.make napps (-1) in
  let pending_d2h = Array.init napps (fun a -> Array.make (max nk.(a) 1) []) in

  (* In-order per-stream completion, by repeated global scan: a kernel is
     completable once drained with its stream predecessor completed.  The
     ascending scan retires cascades in stream order, matching the
     engine's recursion along the successor chain. *)
  let start_copy a ci dur =
    let p = pool_of a in
    let start = max !now copy_engine_free.(p) in
    copy_engine_free.(p) <- start +. dur;
    push a (start +. dur) (Copy_done ci)
  in
  let cascade () =
    let again = ref true in
    while !again do
      again := false;
      for a = 0 to napps - 1 do
        for k = 0 to nk.(a) - 1 do
          if
            (not ks.(a).(k).completed)
            && ks.(a).(k).drained
            && (prev_of a k < 0 || ks.(a).(prev_of a k).completed)
          then begin
            ks.(a).(k).completed <- true;
            List.iter (fun (ci, dur) -> start_copy a ci dur) pending_d2h.(a).(k);
            pending_d2h.(a).(k) <- [];
            bump a !now;
            again := true
          end
        done
      done
    done
  in
  let kernel_completed a k = k < 0 || (k < nk.(a) && ks.(a).(k).completed) in

  let try_issue a =
    let progressed = ref false in
    let blocked = ref false in
    while (not !blocked) && next_cmd.(a) < nc.(a) do
      let ci = next_cmd.(a) in
      if serial_blocked.(a) then blocked := true
      else
        match commands.(a).(ci) with
        | Command.Device_synchronize ->
          next_cmd.(a) <- ci + 1;
          progressed := true
        | Command.Malloc _ ->
          push a (!now +. cfg.Config.malloc_us) (Cmd_done ci);
          serial_blocked.(a) <- true;
          blocked := true;
          progressed := true
        | Command.Memcpy_h2d b ->
          let dur = memcpy_us cfg b.Command.bytes in
          if serial || host_blocking_copies then begin
            push a (!now +. dur) (Cmd_done ci);
            serial_blocked.(a) <- true;
            blocked := true
          end
          else begin
            start_copy a ci dur;
            next_cmd.(a) <- ci + 1
          end;
          progressed := true
        | Command.Memcpy_d2h b ->
          let gate = match preps.(a).Prep.p_d2h_wait.(ci) with Some k -> k | None -> -1 in
          let dur = memcpy_us cfg b.Command.bytes in
          if serial then
            if kernel_completed a gate then begin
              push a (!now +. dur) (Cmd_done ci);
              serial_blocked.(a) <- true;
              blocked := true;
              progressed := true
            end
            else blocked := true
          else if kernel_completed a gate then begin
            start_copy a ci dur;
            next_cmd.(a) <- ci + 1;
            progressed := true
          end
          else begin
            pending_d2h.(a).(gate) <- pending_d2h.(a).(gate) @ [ (ci, dur) ];
            next_cmd.(a) <- ci + 1;
            progressed := true
          end
        | Command.Kernel_launch _ ->
          let seq = preps.(a).Prep.p_kernel_of_cmd.(ci) in
          let st = ks.(a).(seq) in
          let copies_ok =
            List.for_all (fun d -> copy_done.(a).(d)) st.info.Prep.li_copy_deps
          in
          if serial then begin
            if copies_ok && admission_ok a seq then begin
              st.enqueued <- true;
              note_enqueued ();
              let p = pool_of a in
              let start = max !now launch_engine_free.(p) in
              launch_engine_free.(p) <- start +. launch_us;
              push a (start +. launch_us) (Launch_done seq);
              serial_blocked.(a) <- true;
              serial_wait_kernel.(a) <- seq;
              blocked := true;
              progressed := true
            end
            else blocked := true
          end
          else if resident a (stream_of a seq) < window && copies_ok && admission_ok a seq
          then begin
            st.enqueued <- true;
            note_enqueued ();
            push a (!now +. launch_us) (Launch_done seq);
            next_cmd.(a) <- ci + 1;
            progressed := true
          end
          else blocked := true
    done;
    !progressed
  in

  (* Dispatch one TB at a time: the first eligible ready TB in app-major
     order, the mode's policy order within an app — exactly the sequence
     the engine's per-app ring drain produces.  The per-app clock advances
     before a TB starts so foreign-time dispatches (an app getting slots
     freed by another app's finish) integrate correctly. *)
  let dispatch () =
    let continue_ = ref true in
    while !continue_ do
      let pick = ref None in
      let a = ref 0 in
      while !pick = None && !a < napps do
        if free_slots (pool_of !a) > 0 then begin
          let order =
            let active = ref [] in
            for k = nk.(!a) - 1 downto 0 do
              if ks.(!a).(k).launched && not ks.(!a).(k).drained then active := k :: !active
            done;
            match Mode.policy mode with
            | Mode.Oldest_first -> !active
            | Mode.Newest_first -> List.rev !active
            | Mode.Edf ->
              (* Keys are static during a run, so sorting the active set
                 anew each pick and taking the first ready kernel is exact
                 EDF. *)
              List.sort
                (fun x y ->
                  let c = Float.compare (edf_key !a x) (edf_key !a y) in
                  if c <> 0 then c else Int.compare x y)
                !active
          in
          let eligible k =
            match Mode.policy mode with
            | Mode.Newest_first | Mode.Edf -> true
            | Mode.Oldest_first ->
              List.for_all
                (fun k' ->
                  k' >= k
                  || stream_of !a k' <> stream_of !a k
                  || started !a k' = ks.(!a).(k').info.Prep.li_tbs)
                order
          in
          match List.find_opt (fun k -> ks.(!a).(k).ready <> [] && eligible k) order with
          | Some k -> pick := Some (!a, k)
          | None -> incr a
        end
        else incr a
      done;
      match !pick with
      | None -> continue_ := false
      | Some (a, k) ->
        let st = ks.(a).(k) in
        let tbid = List.hd st.ready in
        st.ready <- List.tl st.ready;
        advance a !now;
        st.tb.(tbid) <- Running;
        st.start_t.(tbid) <- !now;
        push a (!now +. st.info.Prep.li_cost.Bm_gpu.Costmodel.tb_us.(tbid)) (Tb_done (k, tbid))
    done
  in

  let progress () =
    let again = ref true in
    while !again do
      again := false;
      for a = 0 to napps - 1 do
        if try_issue a then again := true
      done
    done;
    dispatch ()
  in

  let on_tb_done a k tbid =
    let st = ks.(a).(k) in
    st.tb.(tbid) <- Finished;
    st.finish_t.(tbid) <- !now;
    bump a !now;
    let kc = next_of.(a).(k) in
    (* Child dependency bookkeeping, re-derived from the graph. *)
    if kc >= 0 then begin
      let child = ks.(a).(kc) in
      match child.info.Prep.li_relation with
      | Bipartite.Graph g ->
        Bipartite.iter_children g tbid
          (fun () c ->
            if !now > child.dep_ready.(c) then child.dep_ready.(c) <- !now;
            if fine && child.launched && all_parents_finished a kc c then append_ready a kc c)
          ()
      | Bipartite.Independent | Bipartite.Fully_connected -> ()
    end;
    if all_finished a k then begin
      st.drained <- true;
      st.drained_at <- !now;
      if kc >= 0 then begin
        let child = ks.(a).(kc) in
        (match child.info.Prep.li_relation with
        | Bipartite.Fully_connected ->
          Array.iteri (fun c t -> if t < !now then child.dep_ready.(c) <- !now) child.dep_ready
        | Bipartite.Independent | Bipartite.Graph _ -> ());
        refresh_ready a kc
      end;
      cascade ();
      if serial && serial_wait_kernel.(a) = k && st.completed then begin
        serial_blocked.(a) <- false;
        serial_wait_kernel.(a) <- -1;
        next_cmd.(a) <- next_cmd.(a) + 1
      end
    end
  in

  progress ();
  let steps = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    match pop () with
    | None -> continue_ := false
    | Some (t, _, a, o) ->
      incr steps;
      if !steps > 100_000_000 then failwith "Refsched.run: event budget exceeded";
      advance a t;
      now := t;
      (match o with
      | Launch_done seq ->
        ks.(a).(seq).launched <- true;
        if ks.(a).(seq).info.Prep.li_tbs = 0 then begin
          ks.(a).(seq).drained <- true;
          ks.(a).(seq).drained_at <- t;
          cascade ()
        end
        else refresh_ready a seq;
        bump a t
      | Tb_done (k, tbid) -> on_tb_done a k tbid
      | Copy_done ci ->
        copy_done.(a).(ci) <- true;
        bump a t
      | Cmd_done ci ->
        serial_blocked.(a) <- false;
        (match commands.(a).(ci) with
        | Command.Memcpy_h2d _ | Command.Memcpy_d2h _ -> copy_done.(a).(ci) <- true
        | Command.Malloc _ | Command.Kernel_launch _ | Command.Device_synchronize -> ());
        bump a t;
        next_cmd.(a) <- next_cmd.(a) + 1);
      progress ()
  done;
  for a = 0 to napps - 1 do
    if next_cmd.(a) < nc.(a) then
      failwith
        (Printf.sprintf "Refsched.run: app %d host stalled at command %d/%d (mode %s)" a
           next_cmd.(a) nc.(a) (Mode.name mode));
    Array.iteri
      (fun k st ->
        if not st.completed then
          failwith (Printf.sprintf "Refsched.run: app %d kernel %d never completed" a k))
      ks.(a)
  done;

  Array.init napps (fun a ->
      let column f = Array.map f ks.(a) in
      let base_mem = ref 0.0 in
      Array.iter
        (fun st ->
          Array.iter
            (fun m -> base_mem := !base_mem +. m)
            st.info.Prep.li_cost.Bm_gpu.Costmodel.tb_mem_requests)
        ks.(a);
      let dep_mem = ref 0.0 in
      if Mode.reorders mode then
        Array.iter
          (fun st ->
            match st.info.Prep.li_prev with
            | None -> ()
            | Some prev ->
              if fine then
                dep_mem :=
                  !dep_mem
                  +. Hardware.dep_mem_requests acfg.(a)
                       ~sizes:(Encode.measure st.info.Prep.li_relation)
                       ~n_parents:launches.(a).(prev).Prep.li_tbs
                       ~n_children:st.info.Prep.li_tbs st.info.Prep.li_relation
              else dep_mem := !dep_mem +. 2.0)
          ks.(a);
      let total = end_time.(a) in
      {
        Stats.total_us = total;
        busy_us = busy.(a);
        tb_dep_ready = column (fun st -> st.dep_ready);
        tb_start = column (fun st -> st.start_t);
        tb_finish = column (fun st -> st.finish_t);
        avg_concurrency = (if total > 0.0 then area.(a) /. total else 0.0);
        base_mem_requests = !base_mem;
        dep_mem_requests = !dep_mem;
      })
