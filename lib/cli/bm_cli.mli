(** Command-line terms of [bmctl], one definition per option so every
    subcommand parses, documents and validates it the same way.
    [bench/main.exe] shares {!jobs}.  No option attaches the disk store:
    every process prepares against its own in-memory cache. *)

val exit_io_error : int
(** 2: a requested file cannot be read or written. *)

val decimal : string -> int option
(** A non-negative integer written in plain decimal digits; [None] for
    anything else, including the signs, [0x]/[0o]/[0b] prefixes and [_]
    separators [int_of_string] accepts. *)

val int_conv : min:int -> int Cmdliner.Arg.conv
(** {!decimal} integers [>= min] ([min >= 0]); anything else is a parse
    error (exit 124). *)

val deadline_conv : float Cmdliner.Arg.conv
(** A deadline in microseconds: finite and [> 0] ([nan], [inf], [0] and
    negatives are parse errors, exit 124).  [bmctl run --deadline] takes
    one; [corun --deadlines] a comma-separated list of them. *)

val jobs : unit Cmdliner.Term.t
(** [-j]/[--jobs N]: sizes the domain pool ({!Bm_parallel.set_default_jobs})
    before the command body runs; absent, [BM_JOBS] or the core count
    applies. *)

val mode : ?doc:string -> unit -> Bm_maestro.Mode.t Cmdliner.Term.t
(** [-m]/[--mode MODE], one mode (default producer priority). *)

val modes :
  ?doc:string -> default:Bm_maestro.Mode.t list -> unit -> Bm_maestro.Mode.t list Cmdliner.Term.t
(** Repeated [-m]/[--mode MODE]; [default] when none is given. *)

val write_file : string -> string -> unit
(** Writes the data to the file and reports ["wrote FILE (N bytes)"] on
    stderr, keeping stdout machine-readable; an unwritable file exits
    {!exit_io_error}. *)
