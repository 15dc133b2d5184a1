(** Imperative construction of PTX kernels.

    The builder mirrors what nvcc emits for simple CUDA kernels: parameters
    are materialized with [ld.param] + [cvta.to.global], the linear thread
    index is computed with [mad.lo], addresses with [mul.wide]/[add.s64],
    bounds checks with [setp] + guarded [bra], and counted loops with an
    explicit induction register.  Workload generators use this to produce
    kernels whose dependency structure the analysis pipeline must recover. *)

type t

val create : string -> t

(** [fresh_r] and [fresh_f] allocate fresh 32-bit and f32 registers. *)

val fresh_r : t -> Types.operand
val fresh_f : t -> Types.operand

val emit : t -> Types.instr -> unit

val param_ptr : t -> string -> Types.operand
(** Declare (once) a pointer parameter and return the register holding its
    global address.  Subsequent calls with the same name reuse the register. *)

val param_u32 : t -> string -> Types.operand
(** Declare (once) a 32-bit value parameter and return its register. *)

val mov_u32 : t -> Types.operand -> Types.operand
val add_u32 : t -> Types.operand -> Types.operand -> Types.operand
val sub_u32 : t -> Types.operand -> Types.operand -> Types.operand
val mul_lo_u32 : t -> Types.operand -> Types.operand -> Types.operand
val mad_lo_u32 : t -> Types.operand -> Types.operand -> Types.operand -> Types.operand
val shl_u32 : t -> Types.operand -> int -> Types.operand
val div_u32 : t -> Types.operand -> Types.operand -> Types.operand
val rem_u32 : t -> Types.operand -> Types.operand -> Types.operand
val min_u32 : t -> Types.operand -> Types.operand -> Types.operand
val max_u32 : t -> Types.operand -> Types.operand -> Types.operand

val global_linear_index : t -> Types.operand
(** [ctaid.x * ntid.x + tid.x] as a 32-bit register. *)

val block_index : t -> Types.operand
(** [ctaid.x] as a 32-bit register. *)

val elem_addr : t -> base:Types.operand -> index:Types.operand -> scale:int -> Types.operand
(** Byte address [base + index * scale] as a 64-bit register
    ([mul.wide.s32] + [add.s64]). *)

val ld_global_f32 : t -> addr:Types.operand -> offset:int -> Types.operand
val st_global_f32 : t -> addr:Types.operand -> offset:int -> value:Types.operand -> unit
val ld_global_indirect_f32 : t -> index_addr:Types.operand -> base:Types.operand -> Types.operand
(** A data-dependent access [base[idx[i]]]: loads a 32-bit index from global
    memory and uses it in the address; the analysis must flag this
    non-static (Algorithm 1 lines 7-9). *)

val guard_return_if_ge : t -> Types.operand -> Types.operand -> unit
(** Emit the canonical bounds check: branch to the epilogue when
    [index >= bound]. *)

val fcompute : t -> int -> Types.operand list -> Types.operand
(** Emit [n] dependent [fma.rn.f32] instructions consuming the given values;
    returns the result register (pads compute intensity). *)

val loop : t -> init:Types.operand -> bound:Types.operand -> step:int -> (Types.operand -> unit) -> unit
(** [loop t ~init ~bound ~step body] emits a counted loop; [body] receives
    the induction register.  The loop runs while [counter < bound]. *)

val finish : t -> Types.kernel
(** Seal the kernel: place the epilogue label, emit [ret], return it. *)

val global_linear_index_2d : t -> width:Types.operand -> Types.operand
(** Row-major 2-D global index: (ctaid.y * ntid.y + tid.y) * width +
    (ctaid.x * ntid.x + tid.x), as emitted for 2-D CUDA grids. *)
