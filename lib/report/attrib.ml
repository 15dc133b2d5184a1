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

(* |ticks| < 2^58 (about 76 simulated hours), so the sweep's packed
   (tick, field, sign) deltas fit an int. *)
let ticks_of_us ts =
  let t = Float.round (ts *. tick_scale) in
  if Float.abs t >= 0x1p58 then
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

(* Shared by Attrib and Critpath: linear passes over the sorted entries
   that quantize every timestamp once and rebuild per-kernel lifecycle
   stamps, per-TB dispatch/finish/dep stamps and copy spans, all in ticks.
   [-1] marks "never recorded". *)
module Parse = struct
  type kernel = {
    k_seq : int;
    mutable k_known : bool;     (* named by a Kernel_* or Dep_satisfied event *)
    mutable k_stream : int;     (* both fixed by that first event *)
    mutable k_tbs : int;
    mutable k_enqueue : int;
    mutable k_launched : int;
    mutable k_drained : int;
    mutable k_completed : int;
    mutable k_has_deps : bool;  (* >= 1 Dep_satisfied event seen *)
    mutable k_prev : int;       (* stream predecessor seq, -1 for first *)
    k_dispatch : int array;     (* per TB id *)
    k_finish : int array;
    k_dep : int array;          (* last Dep_satisfied tick *)
  }

  type copy = { c_cmd : int; c_d2h : bool; c_blocking : bool; c_start : int; c_finish : int }

  type t = {
    p_entries : Trace.entry array;  (* sorted, as Trace.events *)
    p_ticks : int array;            (* each entry's quantized timestamp *)
    p_seqs : kernel array;          (* indexed by seq, known or not *)
    p_kernels : kernel array;       (* the known ones, by (stream, seq) *)
    p_copies : copy array;          (* ascending (start tick, cmd) *)
    p_makespan : int;               (* tick of the last event; 0 when empty *)
  }

  let kernel_of p seq =
    if seq >= 0 && seq < Array.length p.p_seqs && p.p_seqs.(seq).k_known then Some p.p_seqs.(seq)
    else None

  (* Tables are indexed by seq, TB id and copy command, sized by a first
     pass; events naming a negative id are ignored. *)
  let of_trace trace =
    let entries = Trace.events trace in
    let ticks = Array.make (Array.length entries) 0 in
    let makespan = ref 0 and n_seqs = ref 0 and n_cmds = ref 0 in
    Array.iteri
      (fun i { Trace.ts; ev } ->
        let tick = ticks_of_us ts in
        ticks.(i) <- tick;
        if tick > !makespan then makespan := tick;
        match ev with
        | Stats.Kernel_enqueue { seq; _ } | Stats.Kernel_launched { seq; _ }
        | Stats.Kernel_drained { seq; _ } | Stats.Kernel_completed { seq; _ }
        | Stats.Tb_dispatch { seq; _ } | Stats.Tb_finish { seq; _ } | Stats.Dep_satisfied { seq; _ } ->
          n_seqs := Int.max !n_seqs (seq + 1)
        | Stats.Copy_start { cmd; _ } | Stats.Copy_finish { cmd; _ } -> n_cmds := Int.max !n_cmds (cmd + 1)
        | Stats.Dlb_spill _ | Stats.Pcb_spill _ -> ())
      entries;
    let n_tbs = Array.make !n_seqs 0 in
    Array.iter
      (fun { Trace.ev; _ } ->
        match ev with
        | Stats.Tb_dispatch { seq; tb } | Stats.Tb_finish { seq; tb } | Stats.Dep_satisfied { seq; tb }
          when seq >= 0 && tb >= n_tbs.(seq) ->
          n_tbs.(seq) <- tb + 1
        | _ -> ())
      entries;
    let seqs =
      Array.init !n_seqs (fun seq ->
          let stamps () = Array.make n_tbs.(seq) (-1) in
          { k_seq = seq; k_known = false; k_stream = 0; k_tbs = 0; k_enqueue = -1; k_launched = -1;
            k_drained = -1; k_completed = -1; k_has_deps = false; k_prev = -1;
            k_dispatch = stamps (); k_finish = stamps (); k_dep = stamps () })
    in
    let known seq stream tbs =
      let k = seqs.(seq) in
      if not k.k_known then begin
        k.k_known <- true;
        k.k_stream <- stream;
        k.k_tbs <- tbs
      end;
      k
    in
    let opened = Array.make !n_cmds min_int (* Copy_start tick per cmd *) and copies = ref [] in
    Array.iteri
      (fun i { Trace.ev; _ } ->
        let tick = ticks.(i) in
        match ev with
        | Stats.Kernel_enqueue { seq; stream; tbs } when seq >= 0 -> (known seq stream tbs).k_enqueue <- tick
        | Stats.Kernel_launched { seq; stream } when seq >= 0 -> (known seq stream 0).k_launched <- tick
        | Stats.Kernel_drained { seq; stream } when seq >= 0 -> (known seq stream 0).k_drained <- tick
        | Stats.Kernel_completed { seq; stream } when seq >= 0 -> (known seq stream 0).k_completed <- tick
        | Stats.Tb_dispatch { seq; tb } when seq >= 0 && tb >= 0 -> seqs.(seq).k_dispatch.(tb) <- tick
        | Stats.Tb_finish { seq; tb } when seq >= 0 && tb >= 0 -> seqs.(seq).k_finish.(tb) <- tick
        | Stats.Dep_satisfied { seq; tb } when seq >= 0 && tb >= 0 ->
          seqs.(seq).k_dep.(tb) <- tick;
          (known seq 0 0).k_has_deps <- true
        | Stats.Copy_start { cmd; _ } when cmd >= 0 -> opened.(cmd) <- tick
        | Stats.Copy_finish { cmd; d2h; blocking; _ } when cmd >= 0 && opened.(cmd) <> min_int ->
          copies :=
            { c_cmd = cmd; c_d2h = d2h; c_blocking = blocking; c_start = opened.(cmd); c_finish = tick }
            :: !copies;
          opened.(cmd) <- min_int
        | _ -> ())
      entries;
    (* Stream predecessors: ascending seq is enqueue order within a stream
       (sequence numbers are command order). *)
    let kernels = Array.of_seq (Seq.filter (fun k -> k.k_known) (Array.to_seq seqs)) in
    Array.stable_sort (fun a b -> compare a.k_stream b.k_stream) kernels;
    Array.iteri
      (fun i k -> if i > 0 && kernels.(i - 1).k_stream = k.k_stream then k.k_prev <- kernels.(i - 1).k_seq)
      kernels;
    let copies = List.sort (fun a b -> compare (a.c_start, a.c_cmd) (b.c_start, b.c_cmd)) !copies in
    { p_entries = entries; p_ticks = ticks; p_seqs = seqs; p_kernels = kernels;
      p_copies = Array.of_list copies; p_makespan = !makespan }

  (* A TB's dependency-release tick under the machine's resolution
     granularity:

     - fine-grain (producer/consumer modes): the TB's own Dep_satisfied
       event (-1 when it has none: zero-parent TBs emit none);
     - kernel-granular modes: the whole kernel is gated on its stream
       predecessor's drain whenever the kernel has any dependency relation
       (detected as >= 1 Dep_satisfied event on the kernel — relations are
       not themselves in the stream).  Dep_satisfied events still fire at
       parent-counter zero in those modes, which is earlier than the
       kernel-level gate, hence the override. *)
  let dep_tick p machine k tb =
    if machine.ma_fine then k.k_dep.(tb)
    else if k.k_has_deps && k.k_prev >= 0 then p.p_seqs.(k.k_prev).k_drained
    else -1

  (* The tick a TB became schedulable: launched, dependencies resolved. *)
  let ready_tick p machine k tb =
    if not k.k_known then 0
    else Int.max (if k.k_launched >= 0 then k.k_launched else k.k_enqueue) (dep_tick p machine k tb)
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

(* LSD radix sort of the first [n] elements of [a], non-negative ints, 11
   bits a pass; returns [a] or the scratch array holding them sorted. *)
let radix_sort a n =
  let top = ref 0 in
  for i = 0 to n - 1 do top := Int.max !top a.(i) done;
  let src = ref a and dst = ref (Array.make n 0) and shift = ref 0 in
  let count = Array.make 2049 0 in
  while !top lsr !shift > 0 do
    let s = !src and d = !dst and sh = !shift in
    Array.fill count 0 2049 0;
    for i = 0 to n - 1 do
      let b = ((s.(i) lsr sh) land 2047) + 1 in
      count.(b) <- count.(b) + 1
    done;
    for b = 1 to 2048 do count.(b) <- count.(b) + count.(b - 1) done;
    for i = 0 to n - 1 do
      let b = (s.(i) lsr sh) land 2047 in
      d.(count.(b)) <- s.(i);
      count.(b) <- count.(b) + 1
    done;
    src := d;
    dst := s;
    shift := sh + 11
  done;
  !src

(* Segment sweep over deltas of six concurrent counts — running TBs,
   queued-ready TBs, dep-waiting TBs, kernels mid-launch, window-blocked
   streams, copies in flight.  Each delta is one int, (tick, field, sign)
   packed so that a single integer sort orders them by tick. *)
let of_parsed ?(series = false) machine p =
  let open Parse in
  let cells = Array.make_matrix n_resources n_buckets 0 in
  let makespan = p.p_makespan in
  let f_run = 0 and f_queue = 1 and f_dep = 2 and f_launch = 3 and f_window = 4 and f_copy = 5 in
  let n_tbs = Array.fold_left (fun acc k -> acc + Array.length k.k_dispatch) 0 p.p_seqs in
  let deltas =
    Array.make ((6 * n_tbs) + (4 * Array.length p.p_kernels) + (2 * Array.length p.p_copies)) 0
  in
  let n_deltas = ref 0 in
  let delta tick code =
    if tick >= 0 && tick < makespan then begin
      deltas.(!n_deltas) <- (tick lsl 4) lor code;
      incr n_deltas
    end
  in
  let interval field a b =
    (* contribute [a, b) clipped to [0, makespan) *)
    if a >= 0 && b > a then begin
      delta a (field lsl 1);
      delta b ((field lsl 1) lor 1)
    end
  in
  (* Per-TB intervals; [min_int] marks a kernel with no executed TB. *)
  let kernel_exec = Array.make (Array.length p.p_seqs) min_int in
  Array.iter
    (fun k ->
      for tb = 0 to Array.length k.k_dispatch - 1 do
        let dispatch = k.k_dispatch.(tb) and finish = k.k_finish.(tb) in
        if dispatch >= 0 && finish >= 0 then begin
          interval f_run dispatch finish;
          let acc = kernel_exec.(k.k_seq) in
          kernel_exec.(k.k_seq) <- (if acc = min_int then 0 else acc) + (finish - dispatch)
        end;
        if dispatch >= 0 then begin
          let ready = ready_tick p machine k tb in
          interval f_queue ready dispatch;
          if k.k_known && k.k_launched >= 0 && ready > k.k_launched then
            interval f_dep k.k_launched ready
        end
      done)
    p.p_seqs;
  (* Per-kernel launch overhead. *)
  Array.iter
    (fun k -> if k.k_enqueue >= 0 && k.k_launched > k.k_enqueue then interval f_launch k.k_enqueue k.k_launched)
    p.p_kernels;
  (* Copies in flight. *)
  Array.iter (fun c -> interval f_copy c.c_start c.c_finish) p.p_copies;
  (* Window-blocked streams: residency at the window limit while later
     kernels on the stream are still waiting to enqueue.  Each stream's
     kernels are a contiguous run of [p_kernels]. *)
  let ks = p.p_kernels in
  let first = ref 0 in
  while !first < Array.length ks do
    let stream = ks.(!first).k_stream in
    let last = ref !first in
    while !last + 1 < Array.length ks && ks.(!last + 1).k_stream = stream do incr last done;
    (* Enqueue/complete points as (tick, kind) ints: completions (kind 0)
       free a window slot before the enqueue they enable (the simulator
       emits them in that order). *)
    let points = ref [] in
    for i = !first to !last do
      let k = ks.(i) in
      if k.k_enqueue >= 0 then points := ((k.k_enqueue lsl 1) lor 1) :: !points;
      if k.k_completed >= 0 then points := (k.k_completed lsl 1) :: !points
    done;
    let points = Array.of_list !points in
    Array.sort Int.compare points;
    let total = !last - !first + 1 in
    let resident = ref 0 and seen = ref 0 and blocked_since = ref (-1) in
    Array.iter
      (fun point ->
        if point land 1 = 1 then begin
          incr resident;
          incr seen
        end
        else decr resident;
        let blocked = !resident >= machine.ma_window && !seen < total in
        if blocked && !blocked_since < 0 then blocked_since := point asr 1
        else if (not blocked) && !blocked_since >= 0 then begin
          interval f_window !blocked_since (point asr 1);
          blocked_since := -1
        end)
      points;
    if !blocked_since >= 0 then interval f_window !blocked_since makespan;
    first := !last + 1
  done;
  (* Sweep. *)
  let n_deltas = !n_deltas in
  let deltas = radix_sort deltas n_deltas in
  let counts = Array.make 6 0 in
  let series_rev = ref [] in
  let slots = machine.ma_slots in
  let slot_row = cells.(resource_index Slots) in
  let copy_row = cells.(resource_index Copy_engine) in
  let launch_row = cells.(resource_index Launch_engine) in
  let next = ref 0 and tick = ref 0 in
  while !tick < makespan do
    while !next < n_deltas && deltas.(!next) lsr 4 = !tick do
      let code = deltas.(!next) land 15 in
      counts.(code lsr 1) <- counts.(code lsr 1) + (if code land 1 = 0 then 1 else -1);
      incr next
    done;
    let seg_end = if !next < n_deltas then deltas.(!next) lsr 4 else makespan in
    let len = seg_end - !tick in
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
      | _ -> series_rev := (!tick, v) :: !series_rev
    end;
    tick := seg_end
  done;
  let kernel_exec =
    List.filter (fun (_, ticks) -> ticks <> min_int) (List.of_seq (Array.to_seqi kernel_exec))
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
