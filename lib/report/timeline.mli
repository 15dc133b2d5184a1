(** Execution-timeline rendering for simulation results.

    Visualizes how kernels overlap under each execution model — the view
    Fig. 2 of the paper draws by hand: each kernel as a horizontal bar from
    its first TB start to its last TB finish, plus an occupancy sparkline.
    Also exports the raw per-TB timings as CSV for external plotting. *)

type kernel_span = {
  ks_kernel : int;
  ks_first_start : float;
  ks_last_finish : float;
  ks_tbs : int;
}

val spans : Bm_gpu.Stats.t -> kernel_span array
(** Per-kernel execution extents, ordered by kernel sequence number;
    kernels without TBs are omitted. *)

val ascii : ?width:int -> ?max_rows:int -> Bm_gpu.Stats.t -> string
(** Gantt-style chart: one row per kernel ([max_rows] cap, default 24; a
    middle ellipsis row marks elided kernels), plus a bottom occupancy
    track.  [width] (default 72) is the number of time columns. *)

val csv : Bm_gpu.Stats.t -> string
(** "kernel,tb,dep_ready,start,finish\n" rows for every thread block. *)
