(** Forward symbolic evaluation of a kernel body: Algorithm 1's
    static/non-static verdict (paper §III-B.2).

    Reconstructs, for every global load/store, the symbolic *address
    expression* in terms of launch-time-known leaves.  An address that
    derives from a global, shared or local load, an atomic or an
    unmodeled instruction is non-static, and so is the whole kernel
    ([static], [nonstatic_reason]).

    Counted loops are recognized from the CFG (back edge +
    [setp]/guarded-[bra] header + constant-step increment) and their
    induction variables become {!Sym.Counter} leaves whose ranges are
    resolved later by the value-range analysis ({!Footprint}). *)

type counter = {
  cid : int;
  init : Sym.t;           (** counter value on loop entry *)
  bound : Sym.t;          (** the loop-exit comparison bound *)
  cmp : Bm_ptx.Types.cmp; (** exit taken when [counter cmp bound] holds *)
  step : int;             (** per-iteration increment *)
  entry : int;            (** first instruction index of the loop extent *)
  last : int;             (** last instruction index of the loop extent *)
}

type access = {
  ainstr : int;                 (** instruction index in the kernel body *)
  akind : [ `Read | `Write ];
  aexpr : Sym.t;                (** symbolic byte address *)
  abytes : int;                 (** access width *)
  aloops : int list;            (** ids of enclosing recognized loops *)
}

type guard_constraint = {
  g_expr : Sym.t;   (** the guarded quantity *)
  g_bound : Sym.t;  (** the kernel body executes only while [g_expr < g_bound] *)
}

type result = {
  kernel : Bm_ptx.Types.kernel;
  accesses : access list;       (** in instruction order; atomics appear as both a read and a write *)
  counters : counter list;
  guards : guard_constraint list;
      (** bounds checks recognized from [setp.ge] + guarded branch to the
          epilogue; the value-range analysis uses them to clamp the thread
          range of tail thread blocks *)
  static : bool;                (** every access expression is static *)
  nonstatic_reason : string option;
}

val analyze : Bm_ptx.Types.kernel -> result

val counter_of : result -> int -> counter
(** Look up a counter by id.  @raise Not_found if absent. *)
