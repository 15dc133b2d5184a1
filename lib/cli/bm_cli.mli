(** Command-line terms shared by [bmctl] and [bench/main.exe]: one
    definition per option, so both executables parse, document and
    validate it the same way. *)

val exit_io_error : int
(** 2: a requested file cannot be read or written. *)

val pos_int_conv : string -> int Cmdliner.Arg.conv
(** Integers [>= 1]; the argument names the flag in the error message. *)

val deadline_conv : float Cmdliner.Arg.conv
(** A deadline in microseconds: finite and [> 0] ([nan], [inf], [0] and
    negatives are parse errors, exit 124).  [bmctl run --deadline] takes
    one; [corun --deadlines] a comma-separated list of them. *)

val jobs : unit Cmdliner.Term.t
(** [-j]/[--jobs N]: sizes the domain pool ({!Bm_parallel.set_default_jobs})
    before the command body runs; absent, [BM_JOBS] or the core count
    applies. *)

val cache_dir_env : Cmdliner.Cmd.Env.info
(** [BM_CACHE_DIR]. *)

val check_cache_dir : string option -> unit
(** Opens the directory once; an unusable one exits {!exit_io_error}. *)

val cache_dir : string option Cmdliner.Term.t
(** [--cache-dir DIR] (default [BM_CACHE_DIR]), already checked with
    {!check_cache_dir}. *)

val backend : [ `Sim | `Replay ] Cmdliner.Term.t
(** [--backend sim|replay] (default [sim]). *)

val mode : ?doc:string -> unit -> Bm_maestro.Mode.t Cmdliner.Term.t
(** [-m]/[--mode MODE], one mode (default producer priority). *)

val modes :
  ?doc:string -> default:Bm_maestro.Mode.t list -> unit -> Bm_maestro.Mode.t list Cmdliner.Term.t
(** Repeated [-m]/[--mode MODE]; [default] when none is given. *)

val write_file : string -> string -> unit
(** Writes the data to the file and reports ["wrote FILE (N bytes)"] on
    stderr, keeping stdout machine-readable; an unwritable file exits
    {!exit_io_error}. *)
