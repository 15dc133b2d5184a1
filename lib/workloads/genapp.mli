(** Seeded random multi-stream application generator.

    Promoted out of [test/test_trace.ml] so that the randomized cross-mode
    trace harness, the differential oracle ([Bm_oracle.Diff]) and the
    shrinking fuzzer ([Bm_oracle.Fuzz] / [Bm_oracle.Shrink]) all draw from
    one generator.  Generation is split into two phases:

    - {!generate} consumes a {!Bm_engine.Rng.t} and produces a declarative
      {!spec} — a value the shrinker can edit (drop kernels or streams,
      shrink grids, simplify bodies) without re-rolling the dice;
    - {!build} deterministically lowers a [spec] to a runnable
      {!Bm_gpu.Command.app} (buffers, copies, round-robin launches).

    A [spec] therefore {e is} the reproducer: {!to_ocaml} prints it as a
    self-contained DSL program, and {!to_string} as a compact one-liner. *)

type body =
  | Map      (** {!Templates.map1}: OUT[i] = f(IN[i]) — 1-to-1 pattern *)
  | Stencil of { halo : int }
      (** {!Templates.stencil1d}: OUT[i] = f(IN[i-halo..i+halo]) — overlapped *)

type kspec = {
  k_body : body;
  k_work : int;        (** dependent-FMA padding; controls TB execution time *)
  k_grid : int;        (** thread blocks *)
  k_sync_after : bool; (** emit a [Device_synchronize] after this launch *)
}

type spec = {
  g_name : string;
  g_block : int;                (** threads per block, shared by all kernels *)
  g_chains : kspec list array;  (** index = CUDA stream id; one chain per stream *)
}

val generate :
  ?max_streams:int -> ?max_len:int -> ?max_grid:int -> ?block:int ->
  Bm_engine.Rng.t -> int -> spec
(** [generate rng idx] rolls a random app named ["rand<idx>"]: 1 to
    [max_streams] (default 2) independent kernel chains, each 1 to [max_len]
    (default 5) kernels of 1 to [max_grid] (default 16) TBs x [block]
    (default 64) threads, alternating map/stencil bodies, with an occasional
    device synchronize.  The RNG draw order is stable, so a fixed seed
    replays the same app forever. *)

val build : spec -> Bm_gpu.Command.app
(** Lower to commands: per chain, allocate [len+1] buffers, H2D the input,
    launch the kernels round-robin across chains (so residency windows of
    different streams interleave in program order), D2H each final buffer. *)

val kernels : spec -> int
(** Total number of kernel launches the spec describes. *)

val to_string : spec -> string
(** Compact one-line description, e.g.
    [rand007 block=64 s0:[map g4 w3; sten1 g16 w2 +sync] s1:[map g1 w1]]. *)

val to_ocaml : spec -> string
(** A runnable OCaml fragment (using [Dsl] and [Templates]) that rebuilds
    exactly {!build}[ spec] — printed by the fuzzer as the repro for a
    minimized counterexample. *)

(** {1 Co-run specs}

    The concurrency axis of the fuzzer: two independent specs plus the
    shape of their co-run.  The submission policy is a polymorphic
    variant (not [Bm_maestro.Multi.submission]) so this library stays
    free of a scheduler dependency; [Bm_oracle.Fuzz] converts. *)

type corun = {
  c_a : spec;
  c_b : spec;
  c_submission : [ `Fifo | `Round_robin | `Packed ];
  c_partition : (int * int) option;
      (** [None] = shared machine; [Some (sa, sb)] = disjoint SM slices *)
}

val generate_corun :
  ?num_sms:int -> ?max_streams:int -> ?max_len:int -> ?max_grid:int -> ?block:int ->
  Bm_engine.Rng.t -> int -> corun
(** [generate_corun rng idx] rolls two apps (named ["corun<idx>a"/"b"])
    with the same knobs as {!generate} except [max_grid] defaults to 48 —
    large enough to saturate a one-SM partition's 32 TB slots, so slot
    contention is actually exercised — plus a random submission policy and
    a coin-flipped spatial policy: shared, or a random split of [num_sms]
    (default 28) with at least one SM per app.  Draw order is stable. *)

val corun_to_string : corun -> string
(** One-liner: spatial, policy, then both app specs. *)

(** {1 Mixed-criticality deadline specs}

    Deadlines are expressed as {e factors} of an app's analytical
    minimum-makespan lower bound, keeping this library free of the cost
    model: callers scale the factor by
    [Bm_maestro.Deadline.min_makespan_us] to obtain absolute ticks.  A
    factor below 1.0 is provably unmeetable — exactly what admission
    control must reject. *)

type criticality = Hard | Soft

type deadline_spec = {
  d_criticality : criticality;
  d_factor : float;  (** deadline = factor x analytical lower bound *)
}

val generate_deadline : Bm_engine.Rng.t -> deadline_spec
(** Coin-flip criticality, then the factor: [Hard] draws uniformly in
    [0.5, 1.5) (half are provably unmeetable), [Soft] in [2, 10). *)

type corun_deadlines = {
  cd_corun : corun;
  cd_a : deadline_spec;
  cd_b : deadline_spec;
}

val generate_corun_deadlines :
  ?num_sms:int -> ?max_streams:int -> ?max_len:int -> ?max_grid:int -> ?block:int ->
  Bm_engine.Rng.t -> int -> corun_deadlines
(** {!generate_corun}, then one deadline spec per app.  The deadline draws
    come strictly after every co-run draw, so for any seed [cd_corun] is
    bit-identical to what {!generate_corun} alone produces. *)
