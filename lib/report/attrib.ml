(* Exact stall attribution over an event trace.

   Every cycle of the makespan, on every resource the machine exposes, is
   assigned to exactly one bucket — so the buckets *sum to
   makespan x resources by construction*, and a run can be read as "where
   did the time go" instead of "how long did it take".  The input is the
   same event stream Trace collects from Sim.run / Replay.run (one engine,
   byte-identical streams, so attribution does not depend on which ran).

   Exactness is an integer property: timestamps are quantized to ticks
   (2^20 per simulated microsecond — far below the cost model's resolution,
   so distinct instants stay distinct) and every segment between
   consecutive event ticks contributes integer [ticks x resource-units] to
   exactly one bucket.  Float summation order can therefore never make the
   conservation check fail by "just one cycle": either the bookkeeping is
   right and the sums match exactly, or it is wrong and they differ by an
   integer. *)

module Stats = Bm_gpu.Stats

(* --- ticks ------------------------------------------------------------- *)

let tick_scale = 1_048_576.0 (* 2^20 ticks per simulated microsecond *)

let ticks_of_us ts =
  let t = Float.round (ts *. tick_scale) in
  if Float.abs t >= 4.611686018427388e18 then
    invalid_arg "Bm_report.Attrib: timestamp out of tick range";
  int_of_float t

let us_of_ticks n = float_of_int n /. tick_scale

(* --- buckets and resources --------------------------------------------- *)

type bucket =
  | Exec
  | Dep_wait
  | Slot_starved
  | Window_blocked
  | Copy_blocked
  | Launch_overhead
  | Idle

let buckets = [ Exec; Dep_wait; Slot_starved; Window_blocked; Copy_blocked; Launch_overhead; Idle ]
let n_buckets = 7

let bucket_index = function
  | Exec -> 0
  | Dep_wait -> 1
  | Slot_starved -> 2
  | Window_blocked -> 3
  | Copy_blocked -> 4
  | Launch_overhead -> 5
  | Idle -> 6

let bucket_name = function
  | Exec -> "exec"
  | Dep_wait -> "dep_wait"
  | Slot_starved -> "slot_starved"
  | Window_blocked -> "window_blocked"
  | Copy_blocked -> "copy_blocked"
  | Launch_overhead -> "launch_overhead"
  | Idle -> "idle"

let bucket_of_name s = List.find_opt (fun b -> bucket_name b = s) buckets

type resource = Slots | Copy_engine | Launch_engine

let resources = [ Slots; Copy_engine; Launch_engine ]
let n_resources = 3
let resource_index = function Slots -> 0 | Copy_engine -> 1 | Launch_engine -> 2
let resource_name = function
  | Slots -> "slots"
  | Copy_engine -> "copy"
  | Launch_engine -> "launch"

type machine = { ma_slots : int; ma_window : int; ma_fine : bool }

let weight machine = function Slots -> machine.ma_slots | Copy_engine | Launch_engine -> 1

(* --- event-stream reconstruction --------------------------------------- *)

(* Shared by Attrib and Critpath: one pass over the sorted entries that
   rebuilds per-kernel lifecycle stamps, per-TB dispatch/finish/dep times
   and copy spans, all in ticks.  [-1] marks "never recorded". *)
module Parse = struct
  type kernel = {
    k_seq : int;
    k_stream : int;
    k_tbs : int;
    mutable k_enqueue : int;
    mutable k_launched : int;
    mutable k_drained : int;
    mutable k_completed : int;
    mutable k_has_deps : bool;  (* >= 1 Dep_satisfied event seen *)
    mutable k_prev : int;       (* stream predecessor seq, -1 for first *)
  }

  type tb = {
    mutable t_dispatch : int;
    mutable t_finish : int;
    mutable t_dep : int;  (* last Dep_satisfied tick, -1 when none *)
  }

  type copy = { c_cmd : int; c_d2h : bool; c_blocking : bool; c_start : int; c_finish : int }

  type t = {
    p_entries : Trace.entry array;  (* sorted, as Trace.events *)
    p_kernels : kernel array;       (* ascending seq *)
    p_kernel_by_seq : (int, kernel) Hashtbl.t;
    p_tbs : (int * int, tb) Hashtbl.t;
    p_copies : copy array;          (* ascending start tick *)
    p_makespan : int;               (* tick of the last event; 0 when empty *)
  }

  let kernel_of p seq = Hashtbl.find_opt p.p_kernel_by_seq seq
  let tb_of p seq tb = Hashtbl.find_opt p.p_tbs (seq, tb)

  let of_trace trace =
    let entries = Trace.events trace in
    let kernels : (int, kernel) Hashtbl.t = Hashtbl.create 64 in
    let get_kernel seq stream tbs =
      match Hashtbl.find_opt kernels seq with
      | Some k -> k
      | None ->
        let k =
          { k_seq = seq; k_stream = stream; k_tbs = tbs; k_enqueue = -1; k_launched = -1;
            k_drained = -1; k_completed = -1; k_has_deps = false; k_prev = -1 }
        in
        Hashtbl.add kernels seq k;
        k
    in
    let tbs : (int * int, tb) Hashtbl.t = Hashtbl.create 256 in
    let get_tb seq tb =
      match Hashtbl.find_opt tbs (seq, tb) with
      | Some t -> t
      | None ->
        let t = { t_dispatch = -1; t_finish = -1; t_dep = -1 } in
        Hashtbl.add tbs (seq, tb) t;
        t
    in
    let copy_open : (int, int) Hashtbl.t = Hashtbl.create 16 in
    let copies = ref [] in
    let makespan = ref 0 in
    Array.iter
      (fun { Trace.ts; ev } ->
        let tick = ticks_of_us ts in
        if tick > !makespan then makespan := tick;
        match ev with
        | Stats.Kernel_enqueue { seq; stream; tbs } ->
          let k = get_kernel seq stream tbs in
          k.k_enqueue <- tick
        | Stats.Kernel_launched { seq; stream } -> (get_kernel seq stream 0).k_launched <- tick
        | Stats.Kernel_drained { seq; stream } -> (get_kernel seq stream 0).k_drained <- tick
        | Stats.Kernel_completed { seq; stream } -> (get_kernel seq stream 0).k_completed <- tick
        | Stats.Tb_dispatch { seq; tb } -> (get_tb seq tb).t_dispatch <- tick
        | Stats.Tb_finish { seq; tb } -> (get_tb seq tb).t_finish <- tick
        | Stats.Dep_satisfied { seq; tb } ->
          (get_tb seq tb).t_dep <- tick;
          (get_kernel seq 0 0).k_has_deps <- true
        | Stats.Copy_start { cmd; _ } -> Hashtbl.replace copy_open cmd tick
        | Stats.Copy_finish { cmd; d2h; blocking; _ } ->
          (match Hashtbl.find_opt copy_open cmd with
          | Some start ->
            copies := { c_cmd = cmd; c_d2h = d2h; c_blocking = blocking; c_start = start; c_finish = tick } :: !copies;
            Hashtbl.remove copy_open cmd
          | None -> ())
        | Stats.Dlb_spill _ | Stats.Pcb_spill _ -> ())
      entries;
    let karr =
      Hashtbl.fold (fun _ k acc -> k :: acc) kernels []
      |> List.sort (fun a b -> compare a.k_seq b.k_seq)
      |> Array.of_list
    in
    (* Stream predecessors from per-stream enqueue order (ascending seq is
       enqueue order within a stream: sequence numbers are command order). *)
    let last_in_stream : (int, int) Hashtbl.t = Hashtbl.create 4 in
    Array.iter
      (fun k ->
        (match Hashtbl.find_opt last_in_stream k.k_stream with
        | Some prev -> k.k_prev <- prev
        | None -> ());
        Hashtbl.replace last_in_stream k.k_stream k.k_seq)
      karr;
    let carr =
      List.sort (fun a b -> compare (a.c_start, a.c_cmd) (b.c_start, b.c_cmd)) !copies
      |> Array.of_list
    in
    {
      p_entries = entries;
      p_kernels = karr;
      p_kernel_by_seq = kernels;
      p_tbs = tbs;
      p_copies = carr;
      p_makespan = !makespan;
    }

  (* The tick a TB became schedulable: its kernel is launched and its
     dependencies are resolved under the machine's resolution granularity.

     - fine-grain (producer/consumer modes): the TB's own Dep_satisfied
       event, or launch when it has none (zero-parent TBs emit none);
     - kernel-granular modes: the whole kernel is gated on its stream
       predecessor's drain whenever the kernel has any dependency relation
       (detected as >= 1 Dep_satisfied event on the kernel — relations are
       not themselves in the stream).  Dep_satisfied events still fire at
       parent-counter zero in those modes, which is earlier than the
       kernel-level gate, hence the override. *)
  let ready_tick p machine seq tbrec =
    match kernel_of p seq with
    | None -> 0
    | Some k ->
      let launch = if k.k_launched >= 0 then k.k_launched else k.k_enqueue in
      let dep =
        if machine.ma_fine then tbrec.t_dep
        else if k.k_has_deps && k.k_prev >= 0 then
          match kernel_of p k.k_prev with Some pk -> pk.k_drained | None -> -1
        else -1
      in
      max launch dep
end

(* --- attribution ------------------------------------------------------- *)

type t = {
  at_machine : machine;
  at_makespan_ticks : int;
  at_cells : int array array;  (* [resource][bucket] ticks *)
  at_kernel_exec : (int * int) array;  (* (seq, exec ticks), descending *)
  at_series : (int * int array) array;
      (* slot-pool time series: (segment start tick, per-bucket slot
         counts); only populated with ~series:true *)
}

let makespan_us t = us_of_ticks t.at_makespan_ticks
let cell t r b = t.at_cells.(resource_index r).(bucket_index b)
let exec_ticks t = cell t Slots Exec

(* Segment sweep: deltas at event ticks for six concurrent counts —
   running TBs, queued-ready TBs, dep-waiting TBs, kernels mid-launch,
   window-blocked streams, copies in flight. *)
let of_parsed ?(series = false) machine p =
  let open Parse in
  let cells = Array.make_matrix n_resources n_buckets 0 in
  let makespan = p.p_makespan in
  let deltas : (int, int array) Hashtbl.t = Hashtbl.create 1024 in
  let delta tick field d =
    if tick >= 0 && tick < makespan then begin
      let row =
        match Hashtbl.find_opt deltas tick with
        | Some r -> r
        | None ->
          let r = Array.make 6 0 in
          Hashtbl.add deltas tick r;
          r
      in
      row.(field) <- row.(field) + d
    end
  in
  let interval field a b =
    (* contribute [a, b) clipped to [0, makespan) *)
    if a >= 0 && b > a then begin
      delta (max a 0) field 1;
      if b < makespan then delta b field (-1)
    end
  in
  let f_run = 0 and f_queue = 1 and f_dep = 2 and f_launch = 3 and f_window = 4 and f_copy = 5 in
  (* Per-TB intervals. *)
  let kernel_exec : (int, int ref) Hashtbl.t = Hashtbl.create 64 in
  Hashtbl.iter
    (fun (seq, _) tbrec ->
      if tbrec.t_dispatch >= 0 && tbrec.t_finish >= 0 then begin
        interval f_run tbrec.t_dispatch tbrec.t_finish;
        let r =
          match Hashtbl.find_opt kernel_exec seq with
          | Some r -> r
          | None ->
            let r = ref 0 in
            Hashtbl.add kernel_exec seq r;
            r
        in
        r := !r + (tbrec.t_finish - tbrec.t_dispatch)
      end;
      if tbrec.t_dispatch >= 0 then begin
        let ready = Parse.ready_tick p machine seq tbrec in
        interval f_queue ready tbrec.t_dispatch;
        match kernel_of p seq with
        | Some k when k.k_launched >= 0 && ready > k.k_launched ->
          interval f_dep k.k_launched ready
        | Some _ | None -> ()
      end)
    p.p_tbs;
  (* Per-kernel launch overhead. *)
  Array.iter
    (fun k -> if k.k_enqueue >= 0 && k.k_launched > k.k_enqueue then interval f_launch k.k_enqueue k.k_launched)
    p.p_kernels;
  (* Copies in flight. *)
  Array.iter (fun c -> interval f_copy c.c_start c.c_finish) p.p_copies;
  (* Window-blocked streams: residency at the window limit while later
     kernels on the stream are still waiting to enqueue. *)
  let streams : (int, kernel list ref) Hashtbl.t = Hashtbl.create 4 in
  Array.iter
    (fun k ->
      match Hashtbl.find_opt streams k.k_stream with
      | Some l -> l := k :: !l
      | None -> Hashtbl.add streams k.k_stream (ref [ k ]))
    p.p_kernels;
  Hashtbl.iter
    (fun _ ks ->
      let ks = List.rev !ks in (* ascending seq = enqueue order *)
      let total = List.length ks in
      (* Stream-local sweep over enqueue/complete points. *)
      let points =
        List.concat_map
          (fun k ->
            (if k.k_enqueue >= 0 then [ (k.k_enqueue, `Enq) ] else [])
            @ if k.k_completed >= 0 then [ (k.k_completed, `Done) ] else [])
          ks
        |> List.sort (fun (a, ta) (b, tb) ->
               let c = compare a b in
               if c <> 0 then c
               else
                 (* completions free a window slot before the enqueue they
                    enable (the simulator emits them in that order) *)
                 compare (match ta with `Done -> 0 | `Enq -> 1)
                   (match tb with `Done -> 0 | `Enq -> 1))
      in
      let resident = ref 0 and seen = ref 0 in
      let blocked_since = ref (-1) in
      let update tick =
        let blocked = !resident >= machine.ma_window && !seen < total in
        match (!blocked_since, blocked) with
        | -1, true -> blocked_since := tick
        | since, false when since >= 0 ->
          interval f_window since tick;
          blocked_since := -1
        | _ -> ()
      in
      List.iter
        (fun (tick, what) ->
          (match what with
          | `Enq ->
            incr resident;
            incr seen
          | `Done -> decr resident);
          update tick)
        points;
      if !blocked_since >= 0 then interval f_window !blocked_since makespan)
    streams;
  (* Sweep. *)
  let ticks = Hashtbl.fold (fun t _ acc -> t :: acc) deltas [] in
  let ticks = List.sort_uniq compare (0 :: ticks) in
  let counts = Array.make 6 0 in
  let series_rev = ref [] in
  let slots = machine.ma_slots in
  let slot_row = cells.(resource_index Slots) in
  let copy_row = cells.(resource_index Copy_engine) in
  let launch_row = cells.(resource_index Launch_engine) in
  let rec sweep = function
    | [] -> ()
    | tick :: rest ->
      (match Hashtbl.find_opt deltas tick with
      | Some row -> Array.iteri (fun i d -> counts.(i) <- counts.(i) + d) row
      | None -> ());
      let seg_end = match rest with next :: _ -> next | [] -> makespan in
      let len = seg_end - tick in
      if len > 0 then begin
        let running = counts.(f_run) in
        let free = slots - running in
        let free_bucket =
          if counts.(f_queue) > 0 then Slot_starved
          else if counts.(f_dep) > 0 then Dep_wait
          else if counts.(f_launch) > 0 then Launch_overhead
          else if counts.(f_window) > 0 then Window_blocked
          else if counts.(f_copy) > 0 then Copy_blocked
          else Idle
        in
        slot_row.(bucket_index Exec) <- slot_row.(bucket_index Exec) + (running * len);
        slot_row.(bucket_index free_bucket) <- slot_row.(bucket_index free_bucket) + (free * len);
        let copy_bucket = if counts.(f_copy) > 0 then Exec else Idle in
        copy_row.(bucket_index copy_bucket) <- copy_row.(bucket_index copy_bucket) + len;
        let launch_bucket = if counts.(f_launch) > 0 then Launch_overhead else Idle in
        launch_row.(bucket_index launch_bucket) <- launch_row.(bucket_index launch_bucket) + len;
        if series then begin
          let v = Array.make n_buckets 0 in
          v.(bucket_index Exec) <- running;
          v.(bucket_index free_bucket) <- v.(bucket_index free_bucket) + free;
          match !series_rev with
          | (_, prev) :: _ when prev = v -> ()
          | _ -> series_rev := (tick, v) :: !series_rev
        end
      end;
      sweep rest
  in
  if makespan > 0 then sweep ticks;
  let kernel_exec =
    Hashtbl.fold (fun seq r acc -> (seq, !r) :: acc) kernel_exec []
    |> List.sort (fun (sa, a) (sb, b) ->
           let c = compare b a in
           if c <> 0 then c else compare sa sb)
    |> Array.of_list
  in
  {
    at_machine = machine;
    at_makespan_ticks = makespan;
    at_cells = cells;
    at_kernel_exec = kernel_exec;
    at_series = Array.of_list (List.rev !series_rev);
  }

let of_trace ?series machine trace = of_parsed ?series machine (Parse.of_trace trace)

(* --- conservation ------------------------------------------------------ *)

let conservation t =
  let errors =
    List.filter_map
      (fun r ->
        let row = t.at_cells.(resource_index r) in
        let sum = Array.fold_left ( + ) 0 row in
        let expect = t.at_makespan_ticks * weight t.at_machine r in
        if sum = expect then None
        else
          Some
            (Printf.sprintf "%s: buckets sum to %d ticks, makespan x weight is %d (off by %d)"
               (resource_name r) sum expect (sum - expect)))
      resources
  in
  (* A negative cell can only come from broken interval bookkeeping (e.g.
     more running TBs than slots); it could cancel in the sum, so reject it
     explicitly. *)
  let negatives =
    List.concat_map
      (fun r ->
        List.filter_map
          (fun b ->
            let v = cell t r b in
            if v < 0 then
              Some (Printf.sprintf "%s.%s is negative (%d ticks)" (resource_name r) (bucket_name b) v)
            else None)
          buckets)
      resources
  in
  match errors @ negatives with [] -> Ok () | es -> Error (String.concat "; " es)

(* --- rendering --------------------------------------------------------- *)

let share t r b =
  let total = t.at_makespan_ticks * weight t.at_machine r in
  if total = 0 then 0.0 else 100.0 *. float_of_int (cell t r b) /. float_of_int total

let table ?(title = "cycle attribution") t =
  let tab =
    Report.table ~title ~columns:("resource" :: List.map bucket_name buckets @ [ "total us" ])
  in
  List.iter
    (fun r ->
      Report.row tab
        (resource_name r
         :: List.map (fun b -> Printf.sprintf "%.1f%%" (share t r b)) buckets
        @ [ Printf.sprintf "%.1f" (us_of_ticks (t.at_makespan_ticks * weight t.at_machine r)) ]))
    resources;
  tab

let top_kernels ?(top = 5) t =
  let n = min top (Array.length t.at_kernel_exec) in
  Array.sub t.at_kernel_exec 0 n
