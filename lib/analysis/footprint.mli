(** Value-range analysis: per-thread-block read/write footprints.

    Given the symbolic access expressions of {!Symeval} and the concrete
    kernel-launch parameters (grid/block dimensions and argument values —
    all known only at launch time, which is exactly why the paper performs
    this during JIT compilation), compute for every thread block the strided
    intervals of byte addresses it may read and write.  Intersecting a
    child kernel's read set with its parent's write set (Algorithm 1
    line 23) yields the TB-level RAW dependency graph. *)

type launch = {
  grid : Bm_ptx.Types.dim3;
  block : Bm_ptx.Types.dim3;
  args : (string * int) list;
      (** parameter name -> concrete value; pointer parameters map to the
          base address assigned by the allocator *)
}

type t = {
  freads : Sinterval.t list;
  fwrites : Sinterval.t list;
}
(** The footprint of one thread block: one interval per (executed) static
    global access. *)

type kernel_footprints =
  | Per_tb of t array  (** indexed by linear thread-block id *)
  | Conservative of string
      (** the kernel has a data-dependent access; BlockMaestro falls back to
          whole-kernel (fully-connected) dependency *)

val of_result : Symeval.result -> launch -> kernel_footprints
(** Every TB's footprint for one launch: exactly what
    {!of_result_reference} returns, compared with [=], and the same
    exception when one escapes.

    Each access expression, recognized guard bound and loop counter is
    staged once per call: subtrees that do not read the TB (parameters,
    [ntid], [nctaid], constants, counters whose init and bound do not read
    [ctaid]) fold to one interval, shared physically by every TB's
    footprint, or to the exception evaluating them raises.  Per TB only the
    residual runs: the [ctaid] spine, plus [tid.x] when a recognized
    bounds check can clamp it.  A folded exception fires only when a TB
    runs the expression, where the reference would raise it, so
    fully-guarded TBs and empty grids never see it: [Not_static] anywhere
    makes the kernel [Conservative], a zero-trip counter drops the access
    for that TB, and operands are evaluated right before left, as the
    reference does. *)

val of_result_reference : Symeval.result -> launch -> kernel_footprints
(** The per-TB evaluator: every TB re-evaluates every access and guard
    from scratch.  Kept as the reference {!of_result} is tested
    against. *)

val analyze : Bm_ptx.Types.kernel -> launch -> kernel_footprints
(** [Symeval.analyze] followed by {!of_result}. *)

val tb_count : launch -> int

val hash_launch : launch -> int
(** A hash over the grid, the block and every argument (name and value).
    The polymorphic [Hashtbl.hash] stops after ten meaningful values, so
    it sees the first argument at most and launches of one kernel that
    differ only in later arguments collide. *)

val overlaps : writes:t -> reads:t -> bool
(** RAW test: does any write interval of the parent TB intersect any read
    interval of the child TB? *)

val whole : t array -> t
(** Join footprints across all TBs, per access (used for command-level
    dependency tests during queue reordering). *)

val footprints_intersect : t -> t -> bool
(** Any RAW/WAR/WAW hazard between two whole-kernel footprints (used for
    command reordering legality, which must preserve all hazards). *)

val raw_intersect : writes:t -> reads:t -> bool
(** Alias of {!overlaps} at whole-kernel granularity. *)

val per_tb_counts : Symeval.result -> launch -> float array * float array
(** [(insts, mem)], indexed by linear TB id: for every TB of the launch,
    exactly [per_tb_insts r launch ~tb] and [per_tb_mem_insts r launch ~tb],
    bit for bit.  This is what the GPU cost model calls.

    A TB's counts depend on the TB only through the [ctaid] axes that some
    loop counter's init or bound reads.  The counters are classified once
    per kernel; each distinct projection of [ctaid] onto those axes gets one
    trip vector, from which both counts are derived, and TBs that share the
    projection share the result.  When no counter reads [ctaid] (every
    configuration of the suite), the launch is evaluated once. *)

val per_tb_insts : Symeval.result -> launch -> tb:int -> float
(** Estimated dynamic instructions executed by one thread of the given TB
    (loop trip counts resolved through the range analysis).  A loop whose
    init or bound reads an enclosing zero-trip loop counts 0 trips.  This
    per-TB evaluation is the reference {!per_tb_counts} is tested
    against. *)

val per_tb_mem_insts : Symeval.result -> launch -> tb:int -> float
(** Estimated dynamic global-memory instructions per thread of the given TB
    (each access counted with its enclosing loops' trip counts).  The
    reference for {!per_tb_counts}'s second array. *)
