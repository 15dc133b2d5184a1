(** Programmer-transparent API command reordering (paper §III-C, Fig. 5).

    To maximize kernel pre-launching opportunities, commands are reordered
    so that memory operations are hoisted ahead of kernel launches whenever
    no true dependency (RAW/WAR/WAW on a buffer) forbids it, bringing
    kernel launches as close together as possible.  Kernel-kernel relative
    order is always preserved; explicit synchronization commands are
    bypassed (their hazards are enforced in hardware instead). *)

type rw = {
  reads : int list;   (** buffer ids read *)
  writes : int list;  (** buffer ids written (allocation counts as a write) *)
}

val conflicts : rw -> rw -> bool
(** Any RAW, WAR or WAW hazard between two commands. *)

val dependencies : rw array -> (int * int) list
(** Edges (i, j) with i < j meaning command j must stay after command i,
    listed by increasing j.  Built by a linear per-buffer scan: the set is
    hazard-minimal (a WAW chain omits its transitive shortcut edges) but
    its transitive closure covers every {!conflicts} pair, which is all a
    valid schedule needs. *)

val reorder : (Bm_gpu.Command.t * rw) array -> int array
(** The hazard-preserving greedy schedule, as indices into the input in
    emission order: every ready memory operation first (in input order),
    then the next kernel; synchronization commands are dropped.  Kernels
    leave in program order and the next one is always ready by then:
    hazard edges only run forward, so once every ready memory operation is
    out, so is every command before the next kernel.  One pass over the
    {!dependencies} edges plus a sort, with no rescan per kernel. *)
