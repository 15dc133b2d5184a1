(** Persistent cross-process analysis cache: a disk-backed fingerprint
    store that makes every cold start warm.

    The store persists the cacheable launch-time analysis artifacts —
    {!Bm_analysis.Footprint} results, {!Bm_gpu.Costmodel} profiles,
    rw-sets, and fingerprint-keyed pair relations (bipartite graphs in
    their Table I encoded form) — to a cache directory as JSON with
    IEEE-754 bit-pattern floats, exactly as {!Graph} persists captured
    schedules.  Bulk arrays use {!Jsonc}'s packed delta+RLE string
    payloads, and the bulky fingerprint texts are interned content-
    addressed in one [fpx/] file per distinct kernel rather than repeated
    per entry, so a disk-warm preparation is read-bound (the bench perf
    gate commits to a speedup factor over cold analysis).  Every value is
    a pure function of its key, and disk-warm preparation is required to
    be cycle-exact against cold preparation.

    A {!type:key} is a canonical header line — the store schema version,
    the family tag, every launch-configuration field the artifact depends
    on (grid/block geometry, scalar arguments, buffer layout for rw-sets,
    [max_parent_degree] for pair relations) — plus the full alpha-renamed
    structural kernel fingerprint text(s): the complete canonical
    serialization, never a digest.  Entry files are named by a digest of
    the header and the fingerprint digests, echo the header verbatim, and
    reference the interned fingerprint texts; a load verifies the header
    echo and the interned texts against the lookup key's own fingerprint
    strings (memoized per process), so even a digest collision reads as a
    stale miss rather than a wrong value.

    Error handling follows {!Graph}'s [Stale]/[Corrupt] split, demoted to
    misses: an absent entry is a miss, an unparsable or truncated one — or
    a missing interned fingerprint file — is a [corrupt] miss, and a
    parsable one whose schema, version, family, header or fingerprint
    identity disagrees is a [stale] miss.  Lookups and writes never raise;
    a failed write (read-only directory, disk full) only bumps
    [write_errors]. *)

type t

val open_dir : ?read_only:bool -> string -> (t, string) result
(** [open_dir dir] opens (creating if needed, including parents) a cache
    directory.  With [~read_only:true] nothing is created and all [put]s
    become no-ops.  [Error msg] if the path exists but is not a directory,
    cannot be created, or cannot be read. *)

val dir : t -> string
val read_only : t -> bool

val families : string list
(** The per-family subdirectories: ["fp"] footprints, ["prof"] cost
    profiles, ["rw"] rw-sets, ["pair"] pair relations, ["fpx"] the
    content-addressed interned fingerprint texts the other families
    reference. *)

(** {1 Canonical keys} *)

type key
(** A structured key: a canonical header line plus the full fingerprint
    text(s).  {!key_string} renders the whole thing for display/tests.  A
    key also holds the sizes its launch configuration bounds an entry by
    (the launch grid, a pair's producer grid, an rw-set's buffer count):
    a stored profile, relation or rw-set larger than they allow is a
    corrupt miss, rejected before its payload is expanded. *)

val key_string : key -> string

val launch_canonical : Bm_analysis.Footprint.launch -> string
(** Grid, block and scalar arguments rendered canonically; part of every
    key's header, so any geometry or argument change is a miss by
    construction. *)

val footprint_key : fp:string -> fl:Bm_analysis.Footprint.launch -> key
(** [fp] is the kernel's canonical fingerprint string
    ({!Bm_analysis.Fingerprint.to_string}). *)

val profile_key : fp:string -> fl:Bm_analysis.Footprint.launch -> key

val rw_key :
  fp:string -> fl:Bm_analysis.Footprint.launch -> buffers:(int * int * int) list -> key
(** [buffers] are [(id, base, bytes)] triples describing the app's buffer
    layout: rw-sets name app-local buffer ids, so the layout is keyed. *)

val pair_key :
  pfp:string ->
  pfl:Bm_analysis.Footprint.launch ->
  cfp:string ->
  cfl:Bm_analysis.Footprint.launch ->
  max_degree:int ->
  key
(** Producer/consumer fingerprints and launches plus the
    [max_parent_degree] the relation was built under. *)

(** {1 Typed entries}

    [find_*] returns [None] on any miss (absent, stale, corrupt) and never
    raises; [put_*] overwrites atomically and never raises. *)

val find_footprints : t -> key:key -> Bm_analysis.Footprint.kernel_footprints option
val put_footprints : t -> key:key -> Bm_analysis.Footprint.kernel_footprints -> unit
val find_profile : t -> key:key -> Bm_gpu.Costmodel.profile option
val put_profile : t -> key:key -> Bm_gpu.Costmodel.profile -> unit
val find_rw : t -> key:key -> Reorder.rw option
val put_rw : t -> key:key -> Reorder.rw -> unit
val find_relation : t -> key:key -> Bm_depgraph.Bipartite.relation option

val put_relation :
  t -> key:key -> n_parents:int -> n_children:int -> Bm_depgraph.Bipartite.relation -> unit
(** The relation is stored in the Table I form it carries
    ({!Jsonc.json_of_relation}); size measurement is recomputed on load,
    which is exact. *)

(** {1 Value codecs}

    Exposed for the round-trip property tests.  The decoders raise
    {!Jsonc.Bad} on malformed input; [find_*] catches it once and counts a
    corrupt miss.  Relations and profiles use {!Jsonc.json_of_relation} and
    {!Jsonc.json_of_profile} directly. *)

val json_of_footprints : Bm_analysis.Footprint.kernel_footprints -> Bm_metrics.Json.t
val footprints_of_json : Bm_metrics.Json.t -> Bm_analysis.Footprint.kernel_footprints
val json_of_rw : Reorder.rw -> Bm_metrics.Json.t
val rw_of_json : n_buffers:int -> Bm_metrics.Json.t -> Reorder.rw
(** [n_buffers] bounds each buffer-id list: an rw-set names only buffers of
    its key's layout. *)

(** {1 Introspection} *)

val path : t -> family:string -> key:key -> string
(** The file an entry lives at; exposed so tests can corrupt it. *)

val intern_paths : t -> key:key -> string list
(** The interned fingerprint file(s) a key's entries reference; exposed so
    tests can corrupt them too. *)

type counters = {
  disk_hits : int;
  disk_misses : int;
  disk_stale : int;
  disk_corrupt : int;
  disk_write_errors : int;
  disk_bytes_written : int;
}

val counters : t -> counters

val export : t -> Bm_metrics.Metrics.t -> unit
(** Publish the [prep.cache.disk.*] counter family. *)
