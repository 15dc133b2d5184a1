(* Event-trace collector, exporters and invariant checker.

   The simulator emits Stats.event values through a sink; this module
   accumulates them, orders them by timestamp (copy-engine starts are
   future-dated at scheduling time), derives per-kernel counters, exports
   Chrome trace_event JSON / CSV for external viewers, and — the part that
   makes traces a correctness oracle rather than a debugging aid — replays
   the event stream against the paper's scheduling contracts. *)

module Stats = Bm_gpu.Stats

type entry = { ts : float; ev : Stats.event }

(* Entries in emission order, in a buffer that doubles as it fills. *)
type t = { mutable buf : entry array; mutable count : int }

let create () = { buf = [||]; count = 0 }

let sink t ts ev =
  if t.count = Array.length t.buf then
    t.buf <- Array.append t.buf (Array.make (max 256 t.count) { ts; ev });
  t.buf.(t.count) <- { ts; ev };
  t.count <- t.count + 1

let length t = t.count

let events t =
  (* The stable sort by timestamp: emission order breaks ties (e.g. a
     Dep_satisfied and the Tb_dispatch it enables at the same instant).
     Engine traces are chronological but for future-dated copy starts, so
     one pass keeps a non-decreasing run on a stack and sets aside what a
     later, earlier-stamped entry displaces; only those few are sorted by
     (ts, emission index), then merged back by the same total order. *)
  let buf = t.buf in
  let order i j =
    let c = Float.compare buf.(i).ts buf.(j).ts in
    if c <> 0 then c else Int.compare i j
  in
  let run = Array.make t.count 0 and len = ref 0 and aside = ref [] in
  for i = 0 to t.count - 1 do
    while !len > 0 && order i run.(!len - 1) < 0 do
      decr len;
      aside := run.(!len) :: !aside
    done;
    run.(!len) <- i;
    incr len
  done;
  let aside = Array.of_list !aside in
  Array.sort order aside;
  let a = ref 0 and b = ref 0 in
  Array.init t.count (fun _ ->
      if !b = Array.length aside || (!a < !len && order run.(!a) aside.(!b) < 0) then begin
        incr a;
        buf.(run.(!a - 1))
      end
      else begin
        incr b;
        buf.(aside.(!b - 1))
      end)

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

let empty_kc seq stream tbs =
  {
    kc_seq = seq;
    kc_stream = stream;
    kc_tbs = tbs;
    kc_dispatched = 0;
    kc_finished = 0;
    kc_deps = 0;
    kc_enqueue = nan;
    kc_launched = nan;
    kc_drained = nan;
    kc_completed = nan;
  }

let kernel_counters t =
  let tbl : (int, kernel_counters) Hashtbl.t = Hashtbl.create 32 in
  let get seq = match Hashtbl.find_opt tbl seq with Some k -> k | None -> empty_kc seq 0 0 in
  Array.iter
    (fun { ts; ev } ->
      match ev with
      | Stats.Kernel_enqueue { seq; stream; tbs } ->
        Hashtbl.replace tbl seq { (get seq) with kc_stream = stream; kc_tbs = tbs; kc_enqueue = ts }
      | Stats.Kernel_launched { seq; _ } -> Hashtbl.replace tbl seq { (get seq) with kc_launched = ts }
      | Stats.Kernel_drained { seq; _ } -> Hashtbl.replace tbl seq { (get seq) with kc_drained = ts }
      | Stats.Kernel_completed { seq; _ } ->
        Hashtbl.replace tbl seq { (get seq) with kc_completed = ts }
      | Stats.Tb_dispatch { seq; _ } ->
        let k = get seq in
        Hashtbl.replace tbl seq { k with kc_dispatched = k.kc_dispatched + 1 }
      | Stats.Tb_finish { seq; _ } ->
        let k = get seq in
        Hashtbl.replace tbl seq { k with kc_finished = k.kc_finished + 1 }
      | Stats.Dep_satisfied { seq; _ } ->
        let k = get seq in
        Hashtbl.replace tbl seq { k with kc_deps = k.kc_deps + 1 }
      | Stats.Copy_start _ | Stats.Copy_finish _ | Stats.Dlb_spill _ | Stats.Pcb_spill _ -> ())
    (events t);
  Hashtbl.fold (fun _ k acc -> k :: acc) tbl []
  |> List.sort (fun a b -> compare a.kc_seq b.kc_seq)
  |> Array.of_list

let totals t =
  let kernels = Hashtbl.create 32 in
  let copies = ref 0 and copy_bytes = ref 0 in
  let dlb = ref 0 and pcb = ref 0 in
  let running = ref 0 and max_running = ref 0 in
  let resident = ref 0 and max_resident = ref 0 in
  let tbs = ref 0 in
  Array.iter
    (fun { ev; _ } ->
      match ev with
      | Stats.Kernel_enqueue { seq; tbs = n; _ } ->
        Hashtbl.replace kernels seq ();
        tbs := !tbs + n;
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
      | Stats.Copy_finish _ -> ())
    (events t);
  {
    tot_events = t.count;
    tot_kernels = Hashtbl.length kernels;
    tot_tbs = !tbs;
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
      | Stats.Copy_start _ | Stats.Copy_finish _ | Stats.Dlb_spill _ | Stats.Pcb_spill _ -> ())
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
      | Stats.Kernel_launched _ | Stats.Kernel_drained _ -> ())
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
        line ts ev ~kernel:seq ~tb:(i needed) ~bytes:(i capacity) ())
    (events t);
  Buffer.contents buf
