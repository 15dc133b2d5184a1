module Metrics = Bm_metrics.Metrics

let run ?metrics ?trace cfg mode (graph : Graph.t) =
  let digest = Graph.cfg_digest cfg in
  if not (String.equal digest graph.Graph.g_cfg_digest) then
    invalid_arg
      (Printf.sprintf "Replay.run: graph %s captured under config %s, replaying under %s"
         graph.Graph.g_app graph.Graph.g_cfg_digest digest);
  (* The digest covers the params, but the columns were expanded from the
     params the file states: an edit to them alone must not replay. *)
  if not (Bm_gpu.Costmodel.same_params (Bm_gpu.Costmodel.params cfg) graph.Graph.g_params) then
    invalid_arg
      (Printf.sprintf "Replay.run: graph %s expanded its costs under other cost-model params"
         graph.Graph.g_app);
  let sched = if Mode.reorders mode then graph.Graph.g_reordered else graph.Graph.g_plain in
  let app = { Sim.a_sched = sched; a_trace = trace; a_deadlines = None } in
  let o = Sim.run_schedules ~caller:"Replay.run" ?metrics cfg mode [| app |] in
  (match metrics with
  | None -> ()
  | Some reg ->
    let publish name v = Metrics.add (Metrics.counter reg name) (float_of_int v) in
    publish "graph.replay.nodes" (Array.length sched.Graph.s_nodes);
    publish "graph.replay.commands" (Array.length sched.Graph.s_commands);
    publish "graph.replay.events" o.Sim.o_events);
  o.Sim.o_stats.(0)
