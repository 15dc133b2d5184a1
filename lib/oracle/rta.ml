module Config = Bm_gpu.Config
module Stats = Bm_gpu.Stats
module Json = Bm_metrics.Json
module Mode = Bm_maestro.Mode
module Prep = Bm_maestro.Prep
module Sim = Bm_maestro.Sim
module Graph = Bm_maestro.Graph
module Replay = Bm_maestro.Replay
module Deadline = Bm_maestro.Deadline

(* The two legs, each bounded by the artifact it runs: the preparation
   under Sim.run, and the capture decoded from its JSON under Replay.run.
   A corrupted capture therefore cannot satisfy its own bound by accident. *)
type leg = Sim | Replay

let leg_name = function Sim -> "sim" | Replay -> "replay"

type entry = {
  e_app : string;
  e_mode : Mode.t;
  e_leg : leg;
  e_bound_us : float;
  e_observed_us : float;
}

let ok e = e.e_observed_us <= e.e_bound_us

let decoded graph =
  match Graph.of_json (Graph.to_json graph) with
  | Ok g -> g
  | Error e -> failwith (Format.asprintf "Rta.check_app: capture does not decode: %a" Graph.pp_error e)

let check_app ?(cfg = Config.titan_x_pascal) ?(modes = List.map snd Mode.known)
    ?(optimistic_bound = false) ?cache ~name app =
  (* Shared preparations and one decoded capture across the sweep, like
     Diff.check. *)
  let prep = Mode.by_class (fun ~reorder -> Prep.prepare ~reorder ?cache cfg app) in
  let graph = lazy (decoded (Graph.capture ?cache cfg app)) in
  List.concat_map
    (fun mode ->
      let prep = prep mode in
      List.map
        (fun leg ->
          let observed, bound =
            match leg with
            | Sim -> ((Sim.run cfg mode prep).Stats.total_us, Deadline.bound_of_prep cfg mode prep)
            | Replay ->
              let g = Lazy.force graph in
              let sched = if Mode.reorders mode then g.Graph.g_reordered else g.Graph.g_plain in
              ((Replay.run cfg mode g).Stats.total_us, Deadline.bound_of_schedule cfg mode sched)
          in
          let bound = if optimistic_bound then Deadline.min_makespan_us cfg prep else bound in
          {
            e_app = name;
            e_mode = mode;
            e_leg = leg;
            e_bound_us = bound;
            e_observed_us = observed;
          })
        [ Sim; Replay ])
    modes

let violations entries = List.filter (fun e -> not (ok e)) entries

let to_json entries =
  Json.Obj
    [
      ("schema", Json.Str "bm.rta/1");
      ( "entries",
        Json.Arr
          (List.map
             (fun e ->
               Json.Obj
                 [
                   ("app", Json.Str e.e_app);
                   ("mode", Json.Str (Mode.name e.e_mode));
                   ("backend", Json.Str (leg_name e.e_leg));
                   ("bound_us", Json.Num e.e_bound_us);
                   ("observed_us", Json.Num e.e_observed_us);
                   ("sound", Json.Bool (ok e));
                 ])
             entries) );
      ("violations", Json.Num (float_of_int (List.length (violations entries))));
    ]

let pp_entry ppf e =
  Format.fprintf ppf "%s %s (%s): observed %.3f us %s bound %.3f us" e.e_app
    (Mode.name e.e_mode)
    (leg_name e.e_leg)
    e.e_observed_us
    (if ok e then "<=" else ">")
    e.e_bound_us
