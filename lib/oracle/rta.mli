(** Response-time-analysis soundness oracle.

    {!Bm_maestro.Deadline} computes a worst-case completion bound per app:
    the sum of every activity's duration (launch overheads, mallocs,
    copies, TB work).  The analytical claim is that {e every} simulated
    makespan — any mode, simulated or replayed — is at most this bound, because
    the simulated clock only ever advances to the completion of some
    executing activity and each activity runs exactly once.

    This module is the empirical half of that argument, in the
    {!Soundness} spirit: {!check_app} sweeps one app across modes × two
    legs, recording the observed makespan against the bound computed from
    the very artifact the leg executed: the preparation under [Sim], the
    capture decoded from its JSON under [Replay] (so a capture that
    corrupted its cost arrays cannot satisfy its own bound).  Any entry
    with [observed > bound] is an analysis bug with a concrete reproducer.

    [optimistic_bound] substitutes the analytical {e lower} bound
    ({!Bm_maestro.Deadline.min_makespan_us}) for the worst-case bound — a
    deliberately broken analysis the CI self-test uses to prove a genuine
    violation is detected (mirroring the fuzzer's [--inject-slots-bug]). *)

type leg =
  | Sim     (** {!Bm_maestro.Sim.run} on a preparation *)
  | Replay  (** {!Bm_maestro.Replay.run} on the decoded capture *)

val leg_name : leg -> string
(** ["sim"] or ["replay"]. *)

type entry = {
  e_app : string;
  e_mode : Bm_maestro.Mode.t;
  e_leg : leg;
  e_bound_us : float;
  e_observed_us : float;
}

val ok : entry -> bool
(** [observed <= bound]. *)

val check_app :
  ?cfg:Bm_gpu.Config.t ->
  ?modes:Bm_maestro.Mode.t list ->
  ?optimistic_bound:bool ->
  ?cache:Bm_maestro.Cache.t ->
  name:string ->
  Bm_gpu.Command.app ->
  entry list
(** Sweep one app over both legs.  Default: every {!Bm_maestro.Mode.known}
    mode.  Preparations and the decoded capture are shared across the
    sweep like {!Diff.check}, and [cache] (possibly store-backed) feeds
    both.
    @raise Failure if the capture does not decode from its own JSON. *)

val violations : entry list -> entry list

val to_json : entry list -> Bm_metrics.Json.t
(** Schema ["bm.rta/1"]: one record per (app, mode, leg) with the
    bound, the observation and the verdict, plus a violation count.  The
    leg's {!leg_name} is stored under the key ["backend"]. *)

val pp_entry : Format.formatter -> entry -> unit
