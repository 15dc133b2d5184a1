(* Event-trace collector, exporters and invariant checker.

   The simulator emits Stats.event values through a sink; this module
   accumulates them, orders them by timestamp (copy-engine starts are
   future-dated at scheduling time), derives per-kernel counters, exports
   Chrome trace_event JSON / CSV for external viewers, and — the part that
   makes traces a correctness oracle rather than a debugging aid — replays
   the event stream against the paper's scheduling contracts.

   TB events are kept as columns, not records: the engine's own, handed
   over once per kernel (Stats.Tb_columns), or ones grown here for TB
   events sent one at a time.  Every other event is an entry. *)

module Stats = Bm_gpu.Stats

type entry = { ts : float; ev : Stats.event }

type columns = {
  mutable tbs : int;
  mutable times : float array array;
  mutable ords : Bytes.t;
  at : int;
  engine : bool;
}

let ord c ~tb ~kind = Int32.to_int (Bytes.get_int32_le c.ords (4 * (c.at + (3 * tb) + kind)))

(* Entries in emission order, in a buffer that doubles as it fills; TB
   columns by seq; [next] the ordinal of the next event sent on its own. *)
type t = { mutable buf : entry array; mutable count : int; mutable cols : columns array; mutable next : int }

let no_columns = { tbs = 0; times = [| [||]; [||]; [||] |]; ords = Bytes.empty; at = 0; engine = true }
let create () = { buf = [||]; count = 0; cols = [||]; next = 0 }

(* Seqs and TB ids stay below 2^30, so a code (see [stream]) packs both. *)
let id_limit = 1 lsl 30

let grow a n fill = Array.append a (Array.make (n - Array.length a) fill)

(* A static filler: [Array.make] of a long array forces a minor collection
   to promote a young initial value. *)
let unused = { ts = 0.0; ev = Stats.Kernel_launched { seq = -1; stream = -1 } }

let push t ts ev =
  if t.count = Array.length t.buf then t.buf <- grow t.buf (max 256 (2 * t.count)) unused;
  t.buf.(t.count) <- { ts; ev };
  t.count <- t.count + 1;
  t.next <- t.next + 1

let columns_at t seq =
  if seq >= Array.length t.cols then t.cols <- grow t.cols (max (seq + 1) (2 * Array.length t.cols)) no_columns;
  t.cols.(seq)

(* A TB event sent on its own fills its slot in its kernel's columns, or
   stays an entry when the slot is taken or not its to fill. *)
let stamp t ts ev ~seq ~tb kind =
  let c =
    if seq < 0 || seq >= id_limit || tb < 0 || tb >= id_limit then no_columns
    else if columns_at t seq != no_columns then t.cols.(seq)
    else begin
      t.cols.(seq) <- { no_columns with engine = false };
      t.cols.(seq)
    end
  in
  let cap = Bytes.length c.ords / 12 in
  if (not c.engine) && tb >= cap then begin
    let cap = max (tb + 1) (2 * cap) in
    c.times <- Array.map (fun a -> grow a cap 0.0) c.times;
    c.ords <- Bytes.cat c.ords (Bytes.make (12 * (cap - Bytes.length c.ords / 12)) '\255')
  end;
  if c.engine || ord c ~tb ~kind >= 0 then push t ts ev
  else begin
    c.tbs <- max c.tbs (tb + 1);
    c.times.(kind).(tb) <- ts;
    Bytes.set_int32_le c.ords (4 * ((3 * tb) + kind)) (Int32.of_int t.next);
    t.next <- t.next + 1
  end

let sink t ts ev =
  match ev with
  | Stats.Tb_columns { seq; dep_ready; start; finish; order; order_at } ->
    if seq < 0 || seq >= id_limit || columns_at t seq != no_columns then
      invalid_arg "Bm_report.Trace.sink: a second set of TB columns for one kernel";
    t.cols.(seq) <-
      { tbs = Array.length start; times = [| dep_ready; start; finish |]; ords = order; at = order_at;
        engine = true }
  | Stats.Dep_satisfied { seq; tb } -> stamp t ts ev ~seq ~tb 0
  | Stats.Tb_dispatch { seq; tb } -> stamp t ts ev ~seq ~tb 1
  | Stats.Tb_finish { seq; tb } -> stamp t ts ev ~seq ~tb 2
  | Stats.Kernel_enqueue _ | Stats.Kernel_launched _ | Stats.Kernel_drained _
  | Stats.Kernel_completed _ | Stats.Copy_start _ | Stats.Copy_finish _ | Stats.Dlb_spill _
  | Stats.Pcb_spill _ ->
    push t ts ev

(* TB events recorded per seq and kind, at [3 * seq + kind]. *)
let tb_counts t =
  let counts = Array.make (3 * Array.length t.cols) 0 in
  Array.iteri
    (fun seq c ->
      for tb = 0 to c.tbs - 1 do
        for kind = 0 to 2 do
          if ord c ~tb ~kind >= 0 then counts.((3 * seq) + kind) <- counts.((3 * seq) + kind) + 1
        done
      done)
    t.cols;
  counts

let length t = Array.fold_left ( + ) t.count (tb_counts t)

let stamps c ~kind f =
  Array.init c.tbs (fun tb -> if ord c ~tb ~kind < 0 then -1 else f c.times.(kind).(tb))

let tb_columns t =
  let n = ref (Array.length t.cols) in
  while !n > 0 && t.cols.(!n - 1) == no_columns do decr n done;
  Array.sub t.cols 0 !n

let entry t code = t.buf.(code lsr 2)

let stream ?(tb_kinds = [ 0; 1; 2 ]) t =
  (* Emission order first: each TB event at its ordinal (-2 for the kinds
     left out), the entries in the ordinals left over, in buffer order. *)
  let wanted = Array.init 3 (fun kind -> List.mem kind tb_kinds) in
  let bound = Array.fold_left (fun n c -> n + (3 * c.tbs)) t.count t.cols in
  let slots = Array.make bound (-1) and total = ref t.count and n = ref t.count in
  let clash () = invalid_arg "Bm_report.Trace: TB ordinals clash (events of more than one run?)" in
  Array.iteri
    (fun seq c ->
      for tb = 0 to c.tbs - 1 do
        for kind = 0 to 2 do
          let o = ord c ~tb ~kind in
          if o >= 0 then begin
            if o >= bound || slots.(o) <> -1 then clash ();
            incr total;
            if wanted.(kind) then begin
              slots.(o) <- kind lor (tb lsl 2) lor (seq lsl 32);
              incr n
            end
            else slots.(o) <- -2
          end
        done
      done)
    t.cols;
  let n = !n in
  let codes = Array.make n 0 and ts = Array.make n 0.0 and ords = Array.make n 0 in
  let k = ref 0 and next = ref 0 in
  for o = 0 to !total - 1 do
    let code = slots.(o) in
    if code <> -2 then begin
      if code >= 0 then begin
        codes.(!k) <- code;
        ts.(!k) <- t.cols.(code lsr 32).times.(code land 3).((code lsr 2) land (id_limit - 1))
      end
      else begin
        if !next = t.count then clash ();
        codes.(!k) <- 3 lor (!next lsl 2);
        ts.(!k) <- t.buf.(!next).ts;
        incr next
      end;
      ords.(!k) <- o;
      incr k
    end
  done;
  (* Then the stable sort by timestamp: emission order breaks ties (e.g. a
     Dep_satisfied and the Tb_dispatch it enables at the same instant).
     Engine traces are chronological but for future-dated copy starts, so
     one pass keeps a non-decreasing run on a stack and sets aside what a
     later, earlier-stamped event displaces; only those few are sorted by
     (ts, emission index), then merged back by the same total order. *)
  let order i j =
    let c = Float.compare ts.(i) ts.(j) in
    if c <> 0 then c else Int.compare i j
  in
  let run = Array.make n 0 and len = ref 0 and aside = ref [] in
  for i = 0 to n - 1 do
    (* [i] comes after everything on the run: it displaces what is later *)
    while !len > 0 && Float.compare ts.(i) ts.(run.(!len - 1)) < 0 do
      decr len;
      aside := run.(!len) :: !aside
    done;
    run.(!len) <- i;
    incr len
  done;
  if !aside = [] then (codes, ts, ords)
  else begin
    let aside = Array.of_list !aside in
    Array.sort order aside;
    let a = ref 0 and b = ref 0 in
    let pick _ =
      if !b = Array.length aside || (!a < !len && order run.(!a) aside.(!b) < 0) then (incr a; run.(!a - 1))
      else (incr b; aside.(!b - 1))
    in
    let perm = Array.init n pick in
    (Array.map (Array.get codes) perm, Array.map (Array.get ts) perm, Array.map (Array.get ords) perm)
  end

let events t =
  let codes, ts, _ = stream t in
  Array.mapi
    (fun i code ->
      let seq = code lsr 32 and tb = (code lsr 2) land (id_limit - 1) in
      match code land 3 with
      | 0 -> { ts = ts.(i); ev = Stats.Dep_satisfied { seq; tb } }
      | 1 -> { ts = ts.(i); ev = Stats.Tb_dispatch { seq; tb } }
      | 2 -> { ts = ts.(i); ev = Stats.Tb_finish { seq; tb } }
      | _ -> entry t code)
    codes

(* --- derived counters -------------------------------------------------- *)

type kernel_counters = {
  kc_seq : int;
  kc_stream : int;
  kc_tbs : int;
  kc_dispatched : int;
  kc_finished : int;
  kc_deps : int;          (* Dep_satisfied events seen for this kernel *)
  kc_enqueue : float;     (* nan when the event was not recorded *)
  kc_launched : float;
  kc_drained : float;
  kc_completed : float;
}

type totals = {
  tot_events : int;
  tot_kernels : int;
  tot_tbs : int;
  tot_copies : int;
  tot_copy_bytes : int;
  tot_dlb_spills : int;
  tot_pcb_spills : int;
  tot_max_running : int;   (* peak concurrently running TBs *)
  tot_max_resident : int;  (* peak resident kernels, across streams *)
}

(* A Kernel_* event's seq and lifecycle kind (0 enqueue, 1 launched,
   2 drained, 3 completed) as [4 * seq + kind]; negative for any other
   event or a negative seq. *)
let lifecycle = function
  | Stats.Kernel_enqueue { seq; _ } -> 4 * seq
  | Stats.Kernel_launched { seq; _ } -> (4 * seq) + 1
  | Stats.Kernel_drained { seq; _ } -> (4 * seq) + 2
  | Stats.Kernel_completed { seq; _ } -> (4 * seq) + 3
  | _ -> -1

(* The one place a kernel's identity is decided.  Each lifecycle slot keeps
   the entry that comes last in [events]' order, the largest (ts, emission
   index), found in emission order without sorting. *)
let kernels t =
  let n = ref (Array.length (tb_columns t)) in
  for i = 0 to t.count - 1 do
    n := Int.max !n ((lifecycle t.buf.(i).ev + 4) / 4)
  done;
  let n = !n in
  let last = Array.make (4 * n) (-1) in
  for i = 0 to t.count - 1 do
    let slot = lifecycle t.buf.(i).ev in
    if slot >= 0 && (last.(slot) < 0 || Float.compare t.buf.(i).ts t.buf.(last.(slot)).ts >= 0) then
      last.(slot) <- i
  done;
  let counts = tb_counts t in
  Array.init n (fun seq ->
      let at kind = if last.((4 * seq) + kind) < 0 then None else Some t.buf.(last.((4 * seq) + kind)) in
      let stamp kind = match at kind with Some e -> e.ts | None -> nan in
      let count kind = if (3 * seq) + kind < Array.length counts then counts.((3 * seq) + kind) else 0 in
      let stream, tbs =
        match at 0 with Some { ev = Stats.Kernel_enqueue { stream; tbs; _ }; _ } -> (stream, tbs) | _ -> (0, 0)
      in
      { kc_seq = seq; kc_stream = stream; kc_tbs = tbs; kc_dispatched = count 1; kc_finished = count 2;
        kc_deps = count 0; kc_enqueue = stamp 0; kc_launched = stamp 1; kc_drained = stamp 2;
        kc_completed = stamp 3 })

let named k =
  not (Float.is_nan k.kc_enqueue && Float.is_nan k.kc_launched && Float.is_nan k.kc_drained
       && Float.is_nan k.kc_completed)

let kernel_counters t =
  Array.of_seq
    (Seq.filter
       (fun k -> named k || k.kc_deps + k.kc_dispatched + k.kc_finished > 0)
       (Array.to_seq (kernels t)))

let totals t =
  let copies = ref 0 and copy_bytes = ref 0 in
  let dlb = ref 0 and pcb = ref 0 in
  let running = ref 0 and max_running = ref 0 in
  let resident = ref 0 and max_resident = ref 0 in
  Array.iter
    (fun { ev; _ } ->
      match ev with
      | Stats.Kernel_enqueue _ ->
        incr resident;
        if !resident > !max_resident then max_resident := !resident
      | Stats.Kernel_completed _ -> decr resident
      | Stats.Tb_dispatch _ ->
        incr running;
        if !running > !max_running then max_running := !running
      | Stats.Tb_finish _ -> decr running
      | Stats.Copy_start { bytes; _ } ->
        incr copies;
        copy_bytes := !copy_bytes + bytes
      | Stats.Dlb_spill _ -> incr dlb
      | Stats.Pcb_spill _ -> incr pcb
      | Stats.Kernel_launched _ | Stats.Kernel_drained _ | Stats.Dep_satisfied _
      | Stats.Copy_finish _ | Stats.Tb_columns _ -> ())
    (events t);
  let enqueued = List.filter (fun k -> not (Float.is_nan k.kc_enqueue)) (Array.to_list (kernels t)) in
  {
    tot_events = length t;
    tot_kernels = List.length enqueued;
    tot_tbs = List.fold_left (fun n k -> n + k.kc_tbs) 0 enqueued;
    tot_copies = !copies;
    tot_copy_bytes = !copy_bytes;
    tot_dlb_spills = !dlb;
    tot_pcb_spills = !pcb;
    tot_max_running = !max_running;
    tot_max_resident = !max_resident;
  }

let fts x = if Float.is_nan x then "-" else Printf.sprintf "%.2f" x

let summary_table ?(title = "trace: per-kernel counters") t =
  let tab =
    Report.table ~title
      ~columns:
        [ "seq"; "stream"; "TBs"; "dispatched"; "finished"; "deps"; "enqueue"; "launched"; "drained"; "completed" ]
  in
  Array.iter
    (fun k ->
      Report.row tab
        [
          string_of_int k.kc_seq;
          string_of_int k.kc_stream;
          string_of_int k.kc_tbs;
          string_of_int k.kc_dispatched;
          string_of_int k.kc_finished;
          string_of_int k.kc_deps;
          fts k.kc_enqueue;
          fts k.kc_launched;
          fts k.kc_drained;
          fts k.kc_completed;
        ])
    (kernel_counters t);
  tab

let totals_table ?(title = "trace: totals") t =
  let s = totals t in
  let tab = Report.table ~title ~columns:[ "metric"; "value" ] in
  List.iter
    (fun (k, v) -> Report.row tab [ k; v ])
    [
      ("events", string_of_int s.tot_events);
      ("kernels", string_of_int s.tot_kernels);
      ("thread blocks", string_of_int s.tot_tbs);
      ("copies", string_of_int s.tot_copies);
      ("bytes copied", string_of_int s.tot_copy_bytes);
      ("DLB spills", string_of_int s.tot_dlb_spills);
      ("PCB spills", string_of_int s.tot_pcb_spills);
      ("peak running TBs", string_of_int s.tot_max_running);
      ("peak resident kernels", string_of_int s.tot_max_resident);
    ];
  tab

let render ?width (stats : Stats.t) t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Timeline.ascii ?width stats);
  Buffer.add_string buf (Report.to_string (summary_table t));
  Buffer.add_string buf (Report.to_string (totals_table t));
  Buffer.contents buf

(* --- invariant checker ------------------------------------------------- *)

(* Replays the ordered event stream against the scheduling contracts:

   1. lifecycle  — enqueue -> launched -> drained -> completed, each exactly
                   once per kernel; TBs dispatch after launch, exactly once.
   2. deps      — no TB starts before its Dep_satisfied event (paper's
                   fine-grain parent counters: r_start >= r_dep_ready).
   3. in-order  — per stream, kernels complete in ascending sequence order,
                   and only after draining (paper SIII-B.1).
   4. window    — at most [window] kernels resident per stream at any time.
   5. capacity  — at most [slots] TBs running at any time
                   (num_sms * max_tbs_per_sm). *)
let check ~window ~slots t =
  let errors = ref [] and n_errors = ref 0 in
  let error fmt =
    Printf.ksprintf
      (fun msg ->
        incr n_errors;
        if !n_errors <= 25 then errors := msg :: !errors)
      fmt
  in
  let enqueued : (int, int * int) Hashtbl.t = Hashtbl.create 32 in (* seq -> stream, tbs *)
  let launched = Hashtbl.create 32 in
  let drained = Hashtbl.create 32 in
  let completed = Hashtbl.create 32 in
  let finished_tbs : (int, int) Hashtbl.t = Hashtbl.create 32 in
  let dispatched : (int * int, float) Hashtbl.t = Hashtbl.create 256 in
  let tb_done : (int * int, unit) Hashtbl.t = Hashtbl.create 256 in
  let dep_time : (int * int, float) Hashtbl.t = Hashtbl.create 256 in
  let resident : (int, int) Hashtbl.t = Hashtbl.create 4 in      (* stream -> count *)
  let last_completed : (int, int) Hashtbl.t = Hashtbl.create 4 in (* stream -> seq *)
  let running = ref 0 in
  let last_ts = ref neg_infinity in
  Array.iter
    (fun { ts; ev } ->
      if ts < !last_ts then
        error "time went backwards: %.4f after %.4f on %s" ts !last_ts (Stats.event_name ev);
      last_ts := ts;
      match ev with
      | Stats.Kernel_enqueue { seq; stream; tbs } ->
        if Hashtbl.mem enqueued seq then error "kernel %d enqueued twice" seq;
        Hashtbl.replace enqueued seq (stream, tbs);
        let r = (match Hashtbl.find_opt resident stream with Some n -> n | None -> 0) + 1 in
        Hashtbl.replace resident stream r;
        if r > window then
          error "window overrun: %d kernels resident in stream %d at %.4f (window %d)" r stream ts
            window
      | Stats.Kernel_launched { seq; _ } ->
        if not (Hashtbl.mem enqueued seq) then error "kernel %d launched before enqueue" seq;
        if Hashtbl.mem launched seq then error "kernel %d launched twice" seq;
        Hashtbl.replace launched seq ts
      | Stats.Kernel_drained { seq; _ } ->
        if Hashtbl.mem drained seq then error "kernel %d drained twice" seq;
        (match Hashtbl.find_opt enqueued seq with
        | Some (_, tbs) ->
          let fin = match Hashtbl.find_opt finished_tbs seq with Some n -> n | None -> 0 in
          if fin <> tbs then error "kernel %d drained with %d/%d TBs finished" seq fin tbs
        | None -> error "kernel %d drained before enqueue" seq);
        Hashtbl.replace drained seq ts
      | Stats.Kernel_completed { seq; stream } ->
        if Hashtbl.mem completed seq then error "kernel %d completed twice" seq;
        if not (Hashtbl.mem drained seq) then
          error "kernel %d completed before draining (in-order completion violated)" seq;
        (match Hashtbl.find_opt last_completed stream with
        | Some prev when prev >= seq ->
          error "out-of-order completion in stream %d: kernel %d after kernel %d" stream seq prev
        | Some _ | None -> ());
        Hashtbl.replace last_completed stream seq;
        Hashtbl.replace completed seq ts;
        let r = (match Hashtbl.find_opt resident stream with Some n -> n | None -> 0) - 1 in
        if r < 0 then error "kernel %d completed in stream %d with no resident kernels" seq stream;
        Hashtbl.replace resident stream r
      | Stats.Tb_dispatch { seq; tb } ->
        if not (Hashtbl.mem launched seq) then
          error "TB %d of kernel %d dispatched before the kernel launched" tb seq;
        if Hashtbl.mem completed seq then
          error "TB %d of kernel %d dispatched after the kernel completed" tb seq;
        if Hashtbl.mem dispatched (seq, tb) then error "TB %d of kernel %d dispatched twice" tb seq;
        Hashtbl.replace dispatched (seq, tb) ts;
        (match Hashtbl.find_opt dep_time (seq, tb) with
        | Some dt when ts +. 1e-9 < dt ->
          error "TB %d of kernel %d started at %.4f before its dependencies at %.4f" tb seq ts dt
        | Some _ | None -> ());
        incr running;
        if !running > slots then
          error "slot capacity exceeded: %d TBs running at %.4f (capacity %d)" !running ts slots
      | Stats.Tb_finish { seq; tb } ->
        (match Hashtbl.find_opt dispatched (seq, tb) with
        | None -> error "TB %d of kernel %d finished without dispatching" tb seq
        | Some start when ts +. 1e-9 < start ->
          error "TB %d of kernel %d finished at %.4f before its start %.4f" tb seq ts start
        | Some _ -> ());
        if Hashtbl.mem tb_done (seq, tb) then error "TB %d of kernel %d finished twice" tb seq;
        Hashtbl.replace tb_done (seq, tb) ();
        Hashtbl.replace finished_tbs seq
          ((match Hashtbl.find_opt finished_tbs seq with Some n -> n | None -> 0) + 1);
        decr running
      | Stats.Dep_satisfied { seq; tb } ->
        (* Keep the last satisfaction time: parent counters only ever move
           a TB's readiness later. *)
        Hashtbl.replace dep_time (seq, tb) ts;
        if Hashtbl.mem dispatched (seq, tb) then
          error "dependencies of TB %d of kernel %d satisfied only after it started" tb seq
      | Stats.Copy_start _ | Stats.Copy_finish _ | Stats.Dlb_spill _ | Stats.Pcb_spill _
      | Stats.Tb_columns _ -> ())
    (events t);
  (* End-of-trace closure: every enqueued kernel must have completed with
     every TB finished. *)
  Hashtbl.iter
    (fun seq (_, tbs) ->
      if not (Hashtbl.mem completed seq) then error "kernel %d never completed" seq;
      let fin = match Hashtbl.find_opt finished_tbs seq with Some n -> n | None -> 0 in
      if fin <> tbs then error "kernel %d finished %d of %d TBs" seq fin tbs)
    enqueued;
  if !n_errors = 0 then Ok ()
  else begin
    let msgs = List.rev !errors in
    let msgs =
      if !n_errors > 25 then msgs @ [ Printf.sprintf "... and %d more violations" (!n_errors - 25) ]
      else msgs
    in
    Error msgs
  end

(* --- exporters --------------------------------------------------------- *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Chrome trace_event format (the JSON Array/Object variant understood by
   chrome://tracing and Perfetto).  Layout:
     pid 1 "kernels"       — one X span per kernel (enqueue -> complete),
                             tid = stream; instant events for DLB/PCB spills
     pid 2 "thread blocks" — one X span per TB (dispatch -> finish),
                             tid = kernel seq; instants for dep-satisfaction
     pid 3 "copies"        — X spans for copy-engine and blocking copies
   Timestamps are already microseconds, the unit the format expects. *)
let to_chrome_json ?(meta = []) ?(counters = []) t =
  let buf = Buffer.create 65536 in
  let first = ref true in
  let obj fields =
    if !first then first := false else Buffer.add_string buf ",\n";
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf (Printf.sprintf "\"%s\":%s" k v))
      fields;
    Buffer.add_char buf '}'
  in
  let str s = Printf.sprintf "\"%s\"" (json_escape s) in
  let flt x = Printf.sprintf "%.4f" x in
  Buffer.add_string buf "{\"traceEvents\":[\n";
  List.iter
    (fun (pid, name) ->
      obj
        [ ("name", str "process_name"); ("ph", str "M"); ("pid", string_of_int pid);
          ("tid", "0"); ("args", Printf.sprintf "{\"name\":%s}" (str name)) ])
    ([ (1, "kernels"); (2, "thread blocks"); (3, "copies") ]
    @ if counters = [] then [] else [ (4, "attribution") ]);
  let complete ~name ~cat ~pid ~tid ~ts ~dur ~args =
    obj
      ([ ("name", str name); ("cat", str cat); ("ph", str "X"); ("ts", flt ts);
         ("dur", flt dur); ("pid", string_of_int pid); ("tid", string_of_int tid) ]
      @ args)
  in
  let instant ~name ~cat ~pid ~tid ~ts =
    obj
      [ ("name", str name); ("cat", str cat); ("ph", str "i"); ("ts", flt ts);
        ("pid", string_of_int pid); ("tid", string_of_int tid); ("s", str "t") ]
  in
  (* Pair up start/end events. *)
  let kernel_open : (int, float * int) Hashtbl.t = Hashtbl.create 32 in
  let tb_open : (int * int, float) Hashtbl.t = Hashtbl.create 256 in
  let copy_open : (int, float) Hashtbl.t = Hashtbl.create 16 in
  Array.iter
    (fun { ts; ev } ->
      match ev with
      | Stats.Kernel_enqueue { seq; stream; _ } -> Hashtbl.replace kernel_open seq (ts, stream)
      | Stats.Kernel_completed { seq; _ } ->
        (match Hashtbl.find_opt kernel_open seq with
        | Some (t0, stream) ->
          complete ~name:(Printf.sprintf "kernel %d" seq) ~cat:"kernel" ~pid:1 ~tid:stream ~ts:t0
            ~dur:(ts -. t0) ~args:[]
        | None -> ())
      | Stats.Tb_dispatch { seq; tb } -> Hashtbl.replace tb_open (seq, tb) ts
      | Stats.Tb_finish { seq; tb } ->
        (match Hashtbl.find_opt tb_open (seq, tb) with
        | Some t0 ->
          complete ~name:(Printf.sprintf "k%d:tb%d" seq tb) ~cat:"tb" ~pid:2 ~tid:seq ~ts:t0
            ~dur:(ts -. t0) ~args:[]
        | None -> ())
      | Stats.Dep_satisfied { seq; tb } ->
        instant ~name:(Printf.sprintf "dep k%d:tb%d" seq tb) ~cat:"dep" ~pid:2 ~tid:seq ~ts
      | Stats.Copy_start { cmd; _ } -> Hashtbl.replace copy_open cmd ts
      | Stats.Copy_finish { cmd; bytes; d2h; blocking } ->
        (match Hashtbl.find_opt copy_open cmd with
        | Some t0 ->
          complete
            ~name:(Printf.sprintf "%s #%d%s" (if d2h then "D2H" else "H2D") cmd
                     (if blocking then " (blocking)" else ""))
            ~cat:"copy" ~pid:3
            ~tid:(if blocking then 1 else 0)
            ~ts:t0 ~dur:(ts -. t0)
            ~args:[ ("args", Printf.sprintf "{\"bytes\":%d}" bytes) ]
        | None -> ())
      | Stats.Dlb_spill { seq; needed; capacity } ->
        instant
          ~name:(Printf.sprintf "DLB spill k%d (%d > %d)" seq needed capacity)
          ~cat:"spill" ~pid:1 ~tid:0 ~ts
      | Stats.Pcb_spill { seq; needed; capacity } ->
        instant
          ~name:(Printf.sprintf "PCB spill k%d (%d > %d)" seq needed capacity)
          ~cat:"spill" ~pid:1 ~tid:0 ~ts
      | Stats.Kernel_launched _ | Stats.Kernel_drained _ | Stats.Tb_columns _ -> ())
    (events t);
  (* Counter tracks ("C" phase): each sample is a stacked multi-series
     value — the viewer renders one area chart per track.  Used for the
     Attrib bucket time-series (bmctl explain --trace). *)
  List.iter
    (fun (track, samples) ->
      List.iter
        (fun (ts, kvs) ->
          obj
            [ ("name", str track); ("ph", str "C"); ("ts", flt ts); ("pid", "4"); ("tid", "0");
              ("args",
               Printf.sprintf "{%s}"
                 (String.concat ","
                    (List.map (fun (k, v) -> Printf.sprintf "%s:%s" (str k) (flt v)) kvs))) ])
        samples)
    counters;
  Buffer.add_string buf "\n],\"displayTimeUnit\":\"ms\"";
  if meta <> [] then begin
    Buffer.add_string buf ",\"otherData\":{";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf (Printf.sprintf "%s:%s" (str k) (str v)))
      meta;
    Buffer.add_char buf '}'
  end;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let to_csv ?name_of t =
  let buf = Buffer.create 16384 in
  let named = name_of <> None in
  let kname seq =
    match name_of with
    | Some f -> Report.csv_field (f seq)  (* kernel names may contain commas/quotes *)
    | None -> ""
  in
  Buffer.add_string buf
    (if named then "ts,event,kernel,name,tb,stream,cmd,bytes\n"
     else "ts,event,kernel,tb,stream,cmd,bytes\n");
  let line ts ev ?(kernel = -1) ?(tb = "") ?(stream = "") ?(cmd = "") ?(bytes = "") () =
    let k = if kernel < 0 then "" else string_of_int kernel in
    let cells =
      if named then
        [ Printf.sprintf "%.4f" ts; Report.csv_field (Stats.event_name ev); k;
          (if kernel < 0 then "" else kname kernel); tb; stream; cmd; bytes ]
      else
        [ Printf.sprintf "%.4f" ts; Report.csv_field (Stats.event_name ev); k; tb; stream; cmd;
          bytes ]
    in
    Buffer.add_string buf (String.concat "," cells ^ "\n")
  in
  Array.iter
    (fun { ts; ev } ->
      let i = string_of_int in
      match ev with
      | Stats.Kernel_enqueue { seq; stream; tbs } ->
        line ts ev ~kernel:seq ~stream:(i stream) ~tb:(i tbs) ()
      | Stats.Kernel_launched { seq; stream } | Stats.Kernel_drained { seq; stream }
      | Stats.Kernel_completed { seq; stream } ->
        line ts ev ~kernel:seq ~stream:(i stream) ()
      | Stats.Tb_dispatch { seq; tb } | Stats.Tb_finish { seq; tb }
      | Stats.Dep_satisfied { seq; tb } ->
        line ts ev ~kernel:seq ~tb:(i tb) ()
      | Stats.Copy_start { cmd; bytes; _ } | Stats.Copy_finish { cmd; bytes; _ } ->
        line ts ev ~cmd:(i cmd) ~bytes:(i bytes) ()
      | Stats.Dlb_spill { seq; needed; capacity } | Stats.Pcb_spill { seq; needed; capacity } ->
        line ts ev ~kernel:seq ~tb:(i needed) ~bytes:(i capacity) ()
      | Stats.Tb_columns _ -> ())
    (events t);
  Buffer.contents buf
