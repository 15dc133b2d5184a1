(** Empirical critical path through an executed schedule.

    Extracted by walking the event trace backward from the span that ends
    at the makespan, resolving each span's start to the event that
    released it (dependency satisfaction, freed slot, launch completion,
    window opening, copy completion) at the same integer-tick instants
    {!Attrib} uses.  Gaps with nothing device-side in flight join the
    chain as explicit host nodes ([Nhost]: mallocs, issue latency), so
    the result is a {e contiguous} chain covering exactly [[0, makespan]]
    — {!length_ticks} equals the makespan for every complete trace (the
    structural property the tests assert; a shortfall means the cause
    resolution lost the chain).  The interesting output is the path's
    {e composition}: which kernels/TBs sit on it, how much
    is launch overhead, copies or host time ({!kind_ticks}), and what
    edge kinds connect it ({!edge_breakdown}). *)

type node_kind =
  | Ntb of { seq : int; tb : int }   (** a TB execution span *)
  | Ncopy of { cmd : int; d2h : bool }  (** a copy span *)
  | Nlaunch of { seq : int }  (** a kernel's enqueue->launched span *)
  | Nhost  (** host-side serial time (mallocs, issue gaps) *)

type edge =
  | Start        (** chain origin at tick 0 *)
  | Dep          (** released by a dependency satisfaction *)
  | Slot         (** released by a freed TB slot *)
  | Launch_wait  (** released by the kernel's own launch completing *)
  | Window       (** released by a stream window opening *)
  | Copy_wait    (** released by a copy finishing *)
  | Host_gap     (** preceded by host-side serial time *)
  | Program      (** host program order at the same instant *)

val edges : edge list
val edge_name : edge -> string

type node = {
  cn_kind : node_kind;
  cn_start : int;  (** ticks *)
  cn_end : int;
  cn_edge : edge;  (** how the node's start was released — the edge from
                       its chronological predecessor *)
}

type t = {
  cp_makespan_ticks : int;
  cp_nodes : node array;  (** chronological; contiguous
                              ([cn_end] = next [cn_start]) *)
}

val of_trace : Attrib.machine -> Trace.t -> t
val of_parsed : Attrib.machine -> Attrib.Parse.t -> t
(** The machine determines dependency-release instants (fine-grain per-TB
    events vs kernel-granular drain gating), exactly as in {!Attrib}. *)

val length_ticks : t -> int
(** Sum of node durations.  Equals [cp_makespan_ticks] for every complete
    trace (contiguity from 0 to the makespan). *)

val length_us : t -> float
val makespan_us : t -> float

val kind_ticks : t -> (string * int) list
(** Path ticks per node kind: [tb], [launch], [copy], [host]. *)

val edge_breakdown : t -> (string * int * int) list
(** Per edge kind present on the path: (name, node count, node ticks). *)

val node_label : node -> string

val table : ?title:string -> t -> Report.table
val edges_table : ?title:string -> t -> Report.table
val top_table : ?title:string -> ?top:int -> t -> Report.table
