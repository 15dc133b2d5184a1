(** Ahead-of-time capture: a whole prepared application lowered into a
    persistent compiled dependency graph.

    PR 5's {!Cache} memoizes the launch-time {e analysis}; this module
    memoizes the entire {e schedule}.  {!capture} runs {!Prep.prepare} once
    per reorder class and lowers the results into a self-contained graph:
    nodes are kernel launches carrying their resolved TB-level dependency
    metadata (the bipartite relation with the stream predecessor, the cost
    profile and its per-TB column with the launch-seq jitter applied,
    copy-dependency edges), and the interleaved host commands keep only what execution
    needs (byte counts, gating kernels).  Nothing in a captured graph
    references PTX, symbolic analysis results or footprints — {!Replay}
    executes it without performing any preparation work.

    Graphs are fingerprint-keyed: {!fingerprint} digests the machine
    configuration together with the canonical serialization of every
    command and the structural {!Bm_analysis.Fingerprint} of every kernel,
    so a graph captured from one (config, app) pair is valid for exactly
    that pair.  A launch line ends with the index of its kernel's
    canonical text in a kernel table after the commands, which holds each
    distinct text once, length-prefixed ([<bytes>:<text>]); each
    physically distinct kernel value is fingerprinted once per call, so
    the digest costs one pass over the commands, not one kernel text per
    launch.  {!validate} rejects a stale graph (mutated kernel, changed
    launch geometry, different machine) with a distinct {!error}.  A
    graph captured by a build from before the kernel table carries a
    fingerprint in the old form and reads as [Stale]: recapture it.

    Serialization (format version 3) persists each thing a schedule is
    built from once.  The header holds the cost-model
    {!Bm_gpu.Costmodel.params} as bit patterns; a [profiles] table holds
    each distinct cost profile and a [relations] table each distinct
    relation in its Table I {!Bm_depgraph.Bipartite.form}, as it
    is.  A node references one entry of each by index, plus its own
    seq, stream, predecessor, TB count and copy deps (delta+RLE
    integers).  Per-TB costs are not persisted: {!of_json} expands each
    (profile, seq) once under the header's params, and measures and
    range-checks each distinct relation once, so nodes of both schedules
    share one column and one relation.  The codecs are {!Jsonc}'s, the
    same bytes the disk store writes.  A graph written to disk and reloaded is
    bit-identical — {!equal} holds across any number of round trips, and
    a reloaded graph replays cycle-exactly (test/test_graph.ml proves both
    over random apps). *)

(** One host command of the captured stream.  Kernel launches point at
    their node; copies carry the byte count the copy-engine model needs;
    D2H copies carry the kernel seq whose completion gates them. *)
type gcmd =
  | Gmalloc
  | Gh2d of { bytes : int }
  | Gd2h of { bytes : int; wait : int }  (** [wait]: gating kernel seq, -1 none *)
  | Glaunch of { seq : int }
  | Gsync

(** One kernel launch with resolved dependency metadata. *)
type node = {
  n_seq : int;
  n_kname : string;                        (** for reports only *)
  n_prev : int;                            (** stream predecessor seq, -1 none *)
  n_stream : int;
  n_tbs : int;
  n_profile : Bm_gpu.Costmodel.profile;    (** what [n_tb_us] expands from *)
  n_tb_us : float array;
      (** per-TB cost: [n_profile] expanded at [n_seq] under [g_params].
          Shared, never written: nodes of both schedules that launch the
          same profile at the same seq hold one array. *)
  n_mem_requests : float;                  (** data-traffic total of this launch *)
  n_relation : Bm_depgraph.Bipartite.relation;  (** with [n_prev] *)
  n_sizes : Bm_depgraph.Encode.sizes;
      (** Table I storage of [n_relation].  Derived, not persisted:
          {!schedule_of_prep} takes the preparation's [li_sizes] and
          {!of_json} measures each distinct relation once at decode, with
          {!Bm_depgraph.Encode.measure_pair} as preparation does.  The
          engine reads it for dependency traffic instead of re-measuring. *)
  n_copy_deps : int array;                 (** H2D command indices, sorted *)
}

(** One reorder class of the app: the final command order plus its nodes. *)
type schedule = {
  s_commands : gcmd array;
  s_nodes : node array;
}

type t = {
  g_app : string;          (** source application name *)
  g_cfg_digest : string;   (** digest of the machine configuration *)
  g_fingerprint : string;  (** digest of (config, commands, kernels) *)
  g_params : Bm_gpu.Costmodel.params;
      (** the cost-model params the columns were expanded under *)
  g_plain : schedule;      (** captured with [reorder:false] *)
  g_reordered : schedule;  (** captured with [reorder:true] *)
}

type error =
  | Stale of { expected : string; got : string }
      (** fingerprint mismatch: the app or config changed since capture *)
  | Corrupt of string
      (** the serialized form failed to decode *)

val pp_error : Format.formatter -> error -> unit

val cfg_digest : Bm_gpu.Config.t -> string
(** Digest over {e every} configuration field (the trace-metadata
    [Config.to_assoc] omits cost-model fields; this must not). *)

val fingerprint : Bm_gpu.Config.t -> Bm_gpu.Command.app -> string
(** Canonical digest of the (config, app) pair: all config fields, the
    command stream (buffers by id/base/bytes, launch geometry, argument
    lists, stream ids) and each launch's kernel, as an index into a table
    of the distinct alpha-renamed structural
    {!Bm_analysis.Fingerprint} texts.  Any change that could alter
    preparation output changes the fingerprint. *)

val schedule_of_prep : Prep.t -> schedule
(** Lower one preparation into its schedule: the form {!capture} persists
    and the form {!Sim.run} executes. *)

val capture :
  ?cache:Cache.t -> ?prof:Bm_metrics.Prof.t -> Bm_gpu.Config.t -> Bm_gpu.Command.app -> t
(** Prepare the app in both reorder classes (sharing [cache] exactly like
    {!Runner.simulate_all}) and lower each {!Prep.t} into a schedule. *)

val validate : Bm_gpu.Config.t -> Bm_gpu.Command.app -> t -> (unit, error) result
(** [Ok] iff the graph's fingerprint matches a fresh {!fingerprint} of the
    pair — i.e. the graph was captured from exactly this config and app —
    and its [g_cfg_digest] matches {!cfg_digest} and its [g_params] match
    the config's {!Bm_gpu.Costmodel.params} bit for bit, both of which
    {!Replay.run} checks too.  Any mismatch is [Stale]. *)

val equal : t -> t -> bool
(** Structural equality; floats compare by IEEE-754 bit pattern, relations
    by {!Bm_depgraph.Bipartite.equal}. *)

(** {1 Serialization} *)

val to_json : t -> Bm_metrics.Json.t

val of_json : Bm_metrics.Json.t -> (t, error) result
(** Besides field decoding and range checks, each schedule must be one the
    engine can run to completion, or it is [Corrupt]: the k-th launch
    command launches node k; a D2H waits on an already launched node (or
    -1); a node's [n_prev] is the latest earlier node on its stream (-1 if
    none); each copy dep names an H2D issued before the node's launch.  A
    node's profile and relation indices must be in their tables, its
    profile must cover exactly [n_tbs] TBs, and its relation's dimensions
    must be (predecessor's TBs or 0, [n_tbs]).  Profiles with a
    non-finite or negative count, fewer than one warp, or a warp-wave
    factor that is non-finite or below 1 are [Corrupt]
    ({!Jsonc.profile_of_json}).  A file of another version is [Corrupt]
    ["unsupported version N (expected 3)"]. *)

val save : string -> t -> (unit, string) result
(** Write the JSON form to a file; [Error] carries the I/O message. *)

val load : string -> (t, error) result
(** Read a graph back.  Unreadable files, invalid JSON and schema
    violations all land in [Corrupt] — truncated or garbled files never
    raise. *)

(** {1 Introspection} *)

type summary = {
  sum_nodes : int;
  sum_edges : int;          (** dependency edges across all node relations *)
  sum_commands : int;
  sum_encoded_bytes : int;  (** Table I pattern-aware storage of all relations *)
}

val summarize : schedule -> summary
(** What [bmctl capture] prints for each schedule. *)
