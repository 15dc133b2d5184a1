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

type affine = private {
  base : Sinterval.t;  (** the interval of TB 0 *)
  coef : int;          (** [k], the per-TB step of each endpoint's numerator *)
  den : int;           (** [d >= 1]; [1] for a plain shift *)
  scale : int;         (** [m] *)
  lo_rem : int;        (** [e] of the low endpoint, in [\[0, d)] *)
  hi_rem : int;        (** [e] of the high endpoint, in [\[0, d)] *)
}
(** A floor-affine access: TB [t] touches [Sinterval.make ~lo ~hi
    ~stride:base.stride] with [lo = base.lo + m * floor ((lo_rem + k * t) /
    d)] and [hi = base.hi + m * floor ((hi_rem + k * t) / d)], and on every
    TB of the launch that interval is one value exactly when [base] is.
    With [d = 1] (then [m = 1] and both remainders 0) it is [base] shifted
    by [k * t] bytes; [d > 1] comes from dividing a shifted index by a
    constant that does not divide its shift, as a row/column split does. *)

val at : affine -> int -> Sinterval.t
(** [at a t] is TB [t]'s interval. *)

val lo_at : affine -> int -> int
val hi_at : affine -> int -> int
(** TB [t]'s endpoints as the formula gives them: [at a t] is
    [Sinterval.make ~lo:(lo_at a t) ~hi:(hi_at a t) ~stride:a.base.stride]. *)

type summary = private {
  s_tbs : int;              (** thread blocks in the launch *)
  s_affine : int;           (** TBs [\[0, s_affine)] follow the affine accesses ([>= 1]) *)
  s_reads : affine array;   (** in instruction order, zero-trip accesses left out *)
  s_writes : affine array;
  s_tail : t array;
      (** TBs [\[s_affine, s_tbs)], materialized: the guard-clamped tail and
          the fully guarded TBs, which touch nothing *)
}
(** The footprints of a 1-D launch whose every access is floor-affine in
    the TB, up to a contiguous tail that a recognized bounds check
    clamps. *)

type kernel_footprints =
  | Per_tb of t array  (** indexed by linear thread-block id *)
  | Summary of summary
      (** the same per-TB footprints in closed form ({!of_result}); only
          {!materialize} lists them *)
  | Conservative of string
      (** the kernel has a data-dependent access; BlockMaestro falls back to
          whole-kernel (fully-connected) dependency *)

val of_result : Symeval.result -> launch -> kernel_footprints
(** Every TB's footprint for one launch, as a {!constructor-Summary} where
    one exists and as {!constructor-Per_tb} otherwise.  [materialize
    (of_result r l)] is exactly [materialize (of_result_reference r l)],
    compared with [=], and the same exception escapes.

    Each access expression, recognized guard bound and loop counter is
    staged once per call: subtrees that do not read the TB (parameters,
    [ntid], [nctaid], constants, counters whose init and bound do not read
    [ctaid]) fold to one interval, shared physically by every TB's
    footprint, or to the exception evaluating them raises; common
    subexpressions are staged once.  On a grid with [dy = dz = 1],
    [ctaid.x] stays in closed form ({!affine}) through the operations that
    map each TB's endpoints the same way: [add] and [sub] with a known or
    (for two plain shifts) affine operand (the [abytes] widening is such
    an [add]), a product with one known value, a [min]/[max] with a known
    interval that the affine one stays on the kept side of on every TB,
    and a division of a plain shift by a constant, which stays a shift
    when the constant divides it and becomes floor-affine otherwise, where
    every TB's result has one stride and is one value on all TBs or on
    none.  A remainder of a plain shift that is the same on every TB folds
    to that value, as [i mod ncols] does in a row/column split.
    Everything else that reads the TB is a residual run per TB, once per
    subexpression: the [ctaid] spine, plus [tid.x] when a recognized
    bounds check can clamp it.

    A 1-D launch's TBs that run with TB 0's x-thread range come first when
    every guard bound folds to one value, because the thread cap then falls
    as [ctaid.x] grows: the TBs a guard leaves the whole range, or TB 0
    alone when a guard already clamps it.  The TBs after them are clamped
    or empty and form one tail, run through a residual that also reads the
    clamped [tid.x].  The result is a summary when those leading TBs exist
    and every access is known, affine or a zero-trip drop for them; the
    tail is materialized.  A folded exception fires only when a TB runs the
    expression, where the reference would raise it, so fully-guarded TBs
    and empty grids never see it: [Not_static] anywhere makes the kernel
    [Conservative], a zero-trip counter drops the access for that TB, and
    operands are evaluated right before left, as the reference does. *)

val materialize : kernel_footprints -> (t array, string) result
(** The per-TB footprints, indexed by linear thread-block id, or [Error
    reason] for a [Conservative] kernel.  For callers that need each TB's
    intervals (the store's codec, the soundness oracle, tests);
    preparation never calls it. *)

val of_result_reference : Symeval.result -> launch -> kernel_footprints
(** The per-TB evaluator: every TB re-evaluates every access and guard
    from scratch, and the result is never a [Summary].  Kept as the
    reference {!of_result} is tested against. *)

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
(** Join footprints across all TBs, per access: [Bm_maestro.Prep] maps
    the joined intervals to the buffer-level read/write sets that queue
    reordering tests.  A TB whose list has another length than the join
    so far (it dropped an access) is appended instead. *)

val whole_summary : summary -> t
(** [whole] of the materialized summary, bit for bit, in closed form:
    each affine access joins to the extremes of its first and last TB on
    the gcd of its stride and of [|scale|] times the gcd of its floor
    term's per-TB steps ([|coef|] for a plain shift), and the tail is then
    joined TB by TB. *)

type counts = {
  c_radix : Bm_ptx.Types.dim3;
      (** per axis, the grid extent if some loop counter's init or bound
          reads that [ctaid] axis, else 1 *)
  c_insts : float array;  (** per row: dynamic instructions of one thread *)
  c_mem : float array;    (** per row: dynamic global-memory instructions *)
}
(** A launch's counts, one row per distinct projection of [ctaid] onto the
    axes its loop counters read: the TB at [ctaid] [c] has row [(c.dx mod
    r.dx) + r.dx * ((c.dy mod r.dy) + r.dy * (c.dz mod r.dz))] for [r =
    c_radix].  A launch whose counters read no [ctaid] (every launch of
    the suite) has exactly one row. *)

val counts : Symeval.result -> launch -> counts
(** Row by row, exactly [per_tb_insts r launch ~tb] and [per_tb_mem_insts r
    launch ~tb] of every TB in the row, bit for bit.  A kernel without loop
    counters has one row, its instruction and access counts, read without
    evaluating anything; otherwise each row walks the body once from one
    trip vector.  This is what the GPU cost model calls, once per
    launch. *)

val per_tb_insts : Symeval.result -> launch -> tb:int -> float
(** Estimated dynamic instructions executed by one thread of the given TB
    (loop trip counts resolved through the range analysis).  A loop whose
    init or bound reads an enclosing zero-trip loop counts 0 trips.  This
    per-TB evaluation is the reference {!counts} is tested against. *)

val per_tb_mem_insts : Symeval.result -> launch -> tb:int -> float
(** Estimated dynamic global-memory instructions per thread of the given TB
    (each access counted with its enclosing loops' trip counts).  The
    reference for {!counts}' memory rows. *)
