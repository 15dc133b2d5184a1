module Config = Bm_gpu.Config
module Stats = Bm_gpu.Stats

type submission = Fifo | Round_robin | Packed
type spatial = Shared | Partitioned of int array

let submission_name = function
  | Fifo -> "fifo"
  | Round_robin -> "round_robin"
  | Packed -> "packed"

let submission_of_string = function
  | "fifo" -> Some Fifo
  | "round_robin" | "rr" -> Some Round_robin
  | "packed" -> Some Packed
  | _ -> None

let spatial_name = function
  | Shared -> "shared"
  | Partitioned parts ->
    "partitioned:" ^ String.concat "+" (Array.to_list (Array.map string_of_int parts))

(* The one partition check: [admit], [run] and the CLI all report the same
   reason. *)
let partition_error (cfg : Config.t) ~napps parts =
  if Array.length parts <> napps then Some "partition list must have one slice per app"
  else if Array.exists (fun p -> p < 1) parts then Some "empty partition slice"
  else if Array.fold_left ( + ) 0 parts > cfg.Config.num_sms then
    Some "partition slices exceed the machine's SMs"
  else None

(* The machine each app sees: [None] when they share [cfg]. *)
let slices ~caller cfg ~napps = function
  | Shared -> None
  | Partitioned parts -> (
    match partition_error cfg ~napps parts with
    | Some reason -> invalid_arg (caller ^ ": " ^ reason)
    | None -> Some (Array.map (Config.with_sms cfg) parts))

type admission = {
  adm_app : int;
  adm_deadline_us : float;
  adm_lower_us : float;
  adm_admitted : bool;
}

let admit ?(spatial = Shared) (cfg : Config.t) ~deadlines (preps : Prep.t array) =
  let napps = Array.length preps in
  if Array.length deadlines <> napps then
    invalid_arg "Multi.admit: deadlines must have one entry per app";
  let slices = slices ~caller:"Multi.admit" cfg ~napps spatial in
  Array.init napps (fun a ->
      let acfg = match slices with None -> cfg | Some s -> s.(a) in
      let lower = Deadline.min_makespan_us acfg preps.(a) in
      {
        adm_app = a;
        adm_deadline_us = deadlines.(a);
        adm_lower_us = lower;
        adm_admitted = deadlines.(a) >= lower;
      })

type result = {
  mr_stats : Stats.t array;
  mr_makespan_us : float;
  mr_busy_us : float;
  mr_avg_concurrency : float;
  mr_slots : int array;
}

(* Admission ranks: a single global enqueue order, merged from the per-app
   launch orders (so every app's kernels keep their program order — a rank
   never waits on a later rank, which is what makes the gate
   deadlock-free). *)
let admission_ranks submission (scheds : Graph.schedule array) =
  let napps = Array.length scheds in
  let nks = Array.map (fun s -> Array.length s.Graph.s_nodes) scheds in
  let ranks = Array.map (fun nk -> Array.make nk 0) nks in
  let next_rank = ref 0 in
  let admit a k =
    ranks.(a).(k) <- !next_rank;
    incr next_rank
  in
  (match submission with
  | Fifo -> Array.iteri (fun a nk -> for k = 0 to nk - 1 do admit a k done) nks
  | Round_robin ->
    for pos = 0 to Array.fold_left max 0 nks - 1 do
      Array.iteri (fun a nk -> if pos < nk then admit a pos) nks
    done
  | Packed ->
    (* Greedy merge: always admit the app whose next kernel is the
       smallest (fewest TBs), ties to the lower app index. *)
    let idx = Array.make napps 0 in
    for _ = 1 to Array.fold_left ( + ) 0 nks do
      let best = ref (-1) and best_tbs = ref max_int in
      for a = 0 to napps - 1 do
        if idx.(a) < nks.(a) then begin
          let tbs = scheds.(a).Graph.s_nodes.(idx.(a)).Graph.n_tbs in
          if tbs < !best_tbs then begin
            best := a;
            best_tbs := tbs
          end
        end
      done;
      admit !best idx.(!best);
      idx.(!best) <- idx.(!best) + 1
    done);
  ranks

let run ?(submission = Fifo) ?(spatial = Shared) ?metrics ?traces (cfg : Config.t) mode
    (preps : Prep.t array) =
  let napps = Array.length preps in
  if napps < 1 then invalid_arg "Multi.run: no apps";
  (match traces with
  | Some ts when Array.length ts <> napps ->
    invalid_arg "Multi.run: traces must have one entry per app"
  | Some _ | None -> ());
  let slices = slices ~caller:"Multi.run" cfg ~napps spatial in
  let scheds = Array.map Graph.schedule_of_prep preps in
  (* Partitioned slices are independent devices and skip the gate; so
     does a single app, where any merge is the identity. *)
  let admission =
    if Option.is_none slices && napps > 1 then Some (admission_ranks submission scheds) else None
  in
  let apps =
    Array.mapi
      (fun a sched ->
        {
          Sim.a_sched = sched;
          a_trace = (match traces with Some ts -> ts.(a) | None -> None);
          a_deadlines = None;
        })
      scheds
  in
  let o =
    Sim.run_schedules ~caller:"Multi.run" ?corun_metrics:metrics ?slices ?admission cfg mode apps
  in
  let slots a = Config.total_tb_slots (match slices with None -> cfg | Some s -> s.(a)) in
  {
    mr_stats = o.Sim.o_stats;
    mr_makespan_us = o.Sim.o_makespan_us;
    mr_busy_us = o.Sim.o_busy_us;
    mr_avg_concurrency = o.Sim.o_avg_concurrency;
    mr_slots = Array.init napps slots;
  }
