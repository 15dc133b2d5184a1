module Config = Bm_gpu.Config
module Costmodel = Bm_gpu.Costmodel
module Metrics = Bm_metrics.Metrics

(* ------------------------------------------------------------------ *)
(* Deadline keys and EDF dispatch order                               *)
(* ------------------------------------------------------------------ *)

let sum_tb_us (tb_us : float array) =
  let s = ref 0.0 in
  Array.iter (fun d -> s := !s +. d) tb_us;
  !s

(* Default per-kernel deadline key: cumulative per-stream work.  Kernel k's
   key is its stream predecessor's key plus its own total TB time — i.e.
   the earliest tick by which the stream prefix ending at k could possibly
   have finished on an infinitely wide machine.  A stream predecessor
   always has a lower seq, so one ascending pass suffices. *)
let default_keys_of_schedule (sched : Graph.schedule) =
  let nodes = sched.Graph.s_nodes in
  let keys = Array.make (Array.length nodes) 0.0 in
  Array.iteri
    (fun k (n : Graph.node) ->
      let base = if n.Graph.n_prev < 0 then 0.0 else keys.(n.Graph.n_prev) in
      keys.(k) <- base +. sum_tb_us n.Graph.n_tb_us)
    nodes;
  keys

(* Priority inheritance: a producer inherits the deadline of any more
   urgent consumer behind it in the stream, so it cannot be starved by
   unrelated kernels while an urgent kernel waits on it.  A kernel's only
   dependents are its stream successors ([li_prev] chains), and a
   successor always has a higher seq, so one descending pass propagates
   the minimum over the whole chain. *)
let effective ~prev_of keys =
  let nk = Array.length keys in
  let eff = Array.copy keys in
  for k = nk - 1 downto 0 do
    let p = prev_of.(k) in
    if p >= 0 && eff.(k) < eff.(p) then eff.(p) <- eff.(k)
  done;
  eff

(* Static EDF dispatch order: seqs by (effective key ascending, seq
   ascending).  The tie on seq keeps the order total and deterministic. *)
let order_of_keys ~prev_of keys =
  let eff = effective ~prev_of keys in
  let order = Array.init (Array.length keys) Fun.id in
  Array.sort
    (fun a b ->
      let c = Float.compare eff.(a) eff.(b) in
      if c <> 0 then c else Int.compare a b)
    order;
  order

let order_of_schedule ?deadlines (sched : Graph.schedule) =
  let nodes = sched.Graph.s_nodes in
  let keys =
    match deadlines with
    | Some d ->
      if Array.length d <> Array.length nodes then
        invalid_arg "Deadline.order_of_schedule: deadlines length <> launches";
      d
    | None -> default_keys_of_schedule sched
  in
  order_of_keys ~prev_of:(Array.map (fun n -> n.Graph.n_prev) nodes) keys

(* ------------------------------------------------------------------ *)
(* Response-time analysis                                             *)
(* ------------------------------------------------------------------ *)

let memcpy_us (cfg : Config.t) bytes =
  cfg.Config.memcpy_latency_us
  +. (float_of_int bytes /. (cfg.Config.memcpy_gb_per_s *. 1000.0))

(* Worst-case makespan bound: the sum of every activity's duration.  The
   simulated clock only ever advances to the completion of some executing
   activity (a launch, a TB, a copy, a malloc), each activity executes
   exactly once, and engine busy chains are contiguous — so every interval
   the clock crosses is covered by at least one activity and the makespan
   is at most the total serial work.  This holds for every mode, simulated
   or replayed: pipelining and reordering only remove waiting, never add
   work. *)
let bound_of_schedule (cfg : Config.t) mode (sched : Graph.schedule) =
  let launch_us = Mode.launch_overhead cfg mode in
  let malloc_us = ref 0.0 and copy_us = ref 0.0 in
  Array.iter
    (fun gcmd ->
      match gcmd with
      | Graph.Gmalloc -> malloc_us := !malloc_us +. cfg.Config.malloc_us
      | Graph.Gh2d { bytes } | Graph.Gd2h { bytes; _ } ->
        copy_us := !copy_us +. memcpy_us cfg bytes
      | Graph.Glaunch _ | Graph.Gsync -> ())
    sched.Graph.s_commands;
  let work_us = ref 0.0 in
  Array.iter
    (fun n -> work_us := !work_us +. sum_tb_us n.Graph.n_tb_us)
    sched.Graph.s_nodes;
  (float_of_int (Array.length sched.Graph.s_nodes) *. launch_us) +. !malloc_us +. !copy_us
  +. !work_us

let bound_of_prep cfg mode prep = bound_of_schedule cfg mode (Graph.schedule_of_prep prep)

(* Lower bound on any makespan: the machine cannot beat its widest TB nor
   finish total work faster than all slots running flat out.  An app whose
   deadline sits below this is provably unmeetable under every policy. *)
let min_makespan_us (cfg : Config.t) (prep : Prep.t) =
  let slots = float_of_int (Config.total_tb_slots cfg) in
  let work = ref 0.0 and widest = ref 0.0 in
  Array.iter
    (fun (li : Prep.launch_info) ->
      Array.iter
        (fun d ->
          work := !work +. d;
          if d > !widest then widest := d)
        li.Prep.li_cost.Costmodel.tb_us)
    prep.Prep.p_launches;
  Float.max !widest (!work /. slots)

(* ------------------------------------------------------------------ *)
(* Deadline outcome reporting                                         *)
(* ------------------------------------------------------------------ *)

type report = {
  r_deadline_us : float;
  r_makespan_us : float;
  r_bound_us : float;
  r_miss : bool;
  r_tardiness_us : float;
  r_slack_us : float;
  r_rta_violation : bool;
}

let report ~deadline_us ~bound_us ~makespan_us =
  {
    r_deadline_us = deadline_us;
    r_makespan_us = makespan_us;
    r_bound_us = bound_us;
    r_miss = makespan_us > deadline_us;
    r_tardiness_us = Float.max 0.0 (makespan_us -. deadline_us);
    r_slack_us = deadline_us -. makespan_us;
    r_rta_violation = makespan_us > bound_us;
  }

let observe reg (r : report) =
  if r.r_miss then Metrics.incr (Metrics.counter reg "deadline.miss_count");
  Metrics.observe (Metrics.histogram reg "deadline.tardiness_us") r.r_tardiness_us;
  Metrics.set (Metrics.gauge reg "deadline.slack_us") ~at:r.r_makespan_us r.r_slack_us;
  Metrics.set (Metrics.gauge reg "deadline.bound_us") ~at:r.r_makespan_us r.r_bound_us

let pp_report ppf r =
  Format.fprintf ppf
    "makespan %.3f us, deadline %.3f us, bound %.3f us: %s (tardiness %.3f, slack %.3f)%s"
    r.r_makespan_us r.r_deadline_us r.r_bound_us
    (if r.r_miss then "MISS" else "met")
    r.r_tardiness_us r.r_slack_us
    (if r.r_rta_violation then " [RTA BOUND VIOLATED]" else "")
