(** Execution modes evaluated in the paper (Fig. 9's bar groups), plus the
    deadline-aware extension.

    - [Baseline]: serialized stream — every kernel pays its launch overhead
      on the critical path and acts as a barrier.
    - [Ideal]: the reference upper bound with zero launch overhead
      (still serialized).
    - [Prelaunch_only]: one kernel pre-launched; dependencies enforced at
      kernel granularity (consumer blocked until the producer drains).
    - [Producer_priority]: pre-launch + fine-grain TB dependency resolution,
      scheduling priority to the producer kernel's TBs (the default policy).
    - [Consumer_priority window]: fine-grain resolution with [window]
      concurrently resident kernels (window-1 pre-launched), priority to
      consumer TBs so they can run ahead.
    - [Deadline_edf window]: fine-grain resolution with [window] resident
      kernels and earliest-deadline-first TB dispatch: kernels are drained
      in ascending order of their effective deadline key (see
      {!Deadline.effective}), with priority inheritance promoting producers
      that block an urgent consumer. *)

type t =
  | Baseline
  | Ideal
  | Prelaunch_only
  | Producer_priority
  | Consumer_priority of int  (** concurrently resident kernels, >= 2 *)
  | Deadline_edf of int  (** concurrently resident kernels, >= 2 *)

type policy = Oldest_first | Newest_first | Edf

val window : t -> int
(** Maximum concurrently resident kernels. *)

val fine_grain : t -> bool
(** Whether TB-level dependencies are resolved (vs kernel-level). *)

val reorders : t -> bool
(** Whether the command queue is reordered and sync APIs bypassed. *)

val by_class : (reorder:bool -> 'a) -> t -> 'a
(** [by_class f] selects by reorder class: applied to a mode, it returns
    [f ~reorder:(reorders mode)], computing each class at most once across
    every mode it is applied to.  Modes of one class share one
    preparation this way. *)

val serial_commands : t -> bool
(** Whether each command waits for all previous commands (baseline stream
    semantics). *)

val policy : t -> policy

val launch_overhead : Bm_gpu.Config.t -> t -> float

val name : t -> string

val known : (string * t) list
(** Short command-line names ("baseline", "producer", "consumer3",
    "edf2", ...) in Fig. 9 order followed by the deadline modes, shared by
    every CLI front end. *)

val short_name : t -> string
(** The mode's {!known} short name, or its {!name} for a mode outside
    that table (say [Consumer_priority 5]). *)

val of_string : string -> t option
(** Look up a mode by its {!known} short name, or by the long display name
    that {!name} prints — every mode round-trips through both spellings. *)

val all_fig9 : t list
(** The paper's Fig. 9 sweep (excludes the deadline modes, which are not
    part of that figure). *)

val pp : Format.formatter -> t -> unit
