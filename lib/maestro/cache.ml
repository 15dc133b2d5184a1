module Fingerprint = Bm_analysis.Fingerprint
module Costmodel = Bm_gpu.Costmodel
module Symeval = Bm_analysis.Symeval
module Footprint = Bm_analysis.Footprint
module Lru = Bm_engine.Lru
module Metrics = Bm_metrics.Metrics

type pair_result = {
  pr_relation : Bm_depgraph.Bipartite.relation;
  pr_pattern : Bm_depgraph.Pattern.t;
  pr_sizes : Bm_depgraph.Encode.sizes;
}

(* [lk_hash] ({!Footprint.hash_launch}) comes first, so the polymorphic
   hash of the key sees every argument and a mismatching comparison stops
   at the first field. *)
type launch_key = {
  lk_hash : int;
  lk_kid : int;
  lk_fl : Footprint.launch;
}

type launch = {
  lid : int;
  key : launch_key;
}

(* One memo table and its effectiveness counters. *)
type ('k, 'v) family = {
  lru : ('k, 'v) Lru.t;
  mutable hits : int;
  mutable misses : int;
}

(* The kernels interned under one pre-key: one not yet fingerprinted, or
   several, each fingerprinted into [intern]. *)
type prekeyed =
  | Unique of Bm_ptx.Types.kernel * int
  | Shared

type t = {
  (* Hash-consing: canonical fingerprint -> interned id.  LRU-bounded like
     everything else; ids are monotonic, so entries of an evicted id simply
     age out of the downstream tables. *)
  intern : (Fingerprint.t, int) Lru.t;
  (* Kernel name -> the kernel value last interned under it and its id.  A
     hit needs the very same value ([==]): fingerprinting costs ~1 µs per
     PTX instruction, and warm preparations of one app pass the same
     kernel values every time.  An equal but distinct value (an
     alpha-twin, a rebuilt app, another kernel under the same name) is
     interned again. *)
  seen : (string, Bm_ptx.Types.kernel * int) Lru.t;
  (* Without a store, a kernel is fingerprinted only once its pre-key
     (instruction and parameter counts, both alpha-invariant) is shared
     with another kernel's; until then it is interned by pre-key alone. *)
  prekeys : (int * int, prekeyed) Lru.t;
  mutable next_id : int;
  (* id -> canonical fingerprint string, the disk tier's key material.
     Only populated when a store is attached; if an entry ages out, disk
     lookups for that id are silently skipped (a plain miss). *)
  fpstrs : (int, string) Lru.t;
  store : Store.t option;
  (* (kernel id, configuration) -> interned launch; launch ids are
     monotonic like kernel ids. *)
  launches : (launch_key, launch) Lru.t;
  mutable next_lid : int;
  analysis : (int, Symeval.result) family;
  (* The per-launch families are keyed on launch ids: the cost family adds
     the launch seq and a params id, rw the app's buffer layout, and the
     pair family pairs two launch ids with the degree cap. *)
  footprints : (int, Footprint.kernel_footprints) family;
  profiles : (int, Costmodel.profile) family;
  costs : (int * int * int, Costmodel.t) family;
  mutable params_ids : (Costmodel.params * int) list;
  rws : (int * (int * int * int) list, Reorder.rw) family;
  pairs : (int * int * int, pair_result) family;
}

let kernel_capacity = 256
let launch_capacity = 8192
let family capacity = { lru = Lru.create ~capacity; hits = 0; misses = 0 }

let create ?store () =
  {
    intern = Lru.create ~capacity:kernel_capacity;
    seen = Lru.create ~capacity:kernel_capacity;
    prekeys = Lru.create ~capacity:kernel_capacity;
    next_id = 0;
    fpstrs = Lru.create ~capacity:kernel_capacity;
    store;
    launches = Lru.create ~capacity:launch_capacity;
    next_lid = 0;
    analysis = family kernel_capacity;
    footprints = family launch_capacity;
    profiles = family launch_capacity;
    costs = family launch_capacity;
    params_ids = [];
    rws = family launch_capacity;
    pairs = family launch_capacity;
  }

let store t = t.store

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let intern t kernel =
  let fp = Fingerprint.of_kernel kernel in
  match Lru.find t.intern fp with
  | Some id -> id
  | None ->
    let id = fresh_id t in
    Lru.add t.intern fp id;
    if t.store <> None then Lru.add t.fpstrs id (Fingerprint.to_string fp);
    id

(* Alpha-twins share a pre-key, so a kernel whose pre-key no other kernel
   has cannot be a twin of one: it gets a fresh id unfingerprinted.  The
   first collision fingerprints the earlier kernel under its id, then
   interns the newcomer as usual.  The disk tier keys entries by
   fingerprint, so with a store every kernel is fingerprinted at once. *)
let intern_lazily t (kernel : Bm_ptx.Types.kernel) =
  let pk = (Array.length kernel.Bm_ptx.Types.kbody, List.length kernel.Bm_ptx.Types.kparams) in
  match Lru.find t.prekeys pk with
  | None ->
    let id = fresh_id t in
    Lru.add t.prekeys pk (Unique (kernel, id));
    id
  | Some (Unique (first, id)) ->
    Lru.add t.intern (Fingerprint.of_kernel first) id;
    Lru.add t.prekeys pk Shared;
    intern t kernel
  | Some Shared -> intern t kernel

let kernel_id t (kernel : Bm_ptx.Types.kernel) =
  match Lru.find t.seen kernel.Bm_ptx.Types.kname with
  | Some (k, id) when k == kernel -> id
  | Some _ | None ->
    let id = match t.store with Some _ -> intern t kernel | None -> intern_lazily t kernel in
    Lru.add t.seen kernel.Bm_ptx.Types.kname (kernel, id);
    id

let launch t kernel fl =
  let key = { lk_hash = Footprint.hash_launch fl; lk_kid = kernel_id t kernel; lk_fl = fl } in
  match Lru.find t.launches key with
  | Some l -> l
  | None ->
    let l = { lid = t.next_lid; key } in
    t.next_lid <- l.lid + 1;
    Lru.add t.launches key l;
    l

let memo f key compute =
  match Lru.find f.lru key with
  | Some v ->
    f.hits <- f.hits + 1;
    v
  | None ->
    f.misses <- f.misses + 1;
    let v = compute () in
    Lru.add f.lru key v;
    v

(* The disk tier sits below the in-process LRU: an LRU miss consults the
   store before computing, and a computed value is written through.  Disk
   hits still count as in-memory misses — the two counter families describe
   different tiers. *)
let disk_tier t l ~dkey ~disk_find ~disk_put compute =
  match t.store with
  | None -> compute ()
  | Some s -> (
    match Lru.find t.fpstrs l.key.lk_kid with
    | None -> compute ()
    | Some fps -> (
      let key = dkey ~fp:fps ~fl:l.key.lk_fl in
      match disk_find s ~key with
      | Some v -> v
      | None ->
        let v = compute () in
        disk_put s ~key v;
        v))

let analysis t ~kid compute = memo t.analysis kid compute

let footprint t l compute =
  memo t.footprints l.lid (fun () ->
      disk_tier t l ~dkey:Store.footprint_key ~disk_find:Store.find_footprints
        ~disk_put:Store.put_footprints compute)

let profile t l compute =
  memo t.profiles l.lid (fun () ->
      disk_tier t l ~dkey:Store.profile_key ~disk_find:Store.find_profile
        ~disk_put:Store.put_profile compute)

(* Params compare by bit pattern: structural float equality would
   conflate 0.0 with -0.0 and never match a NaN, and a column is a
   function of the bits.  A cache sees one or two params in practice. *)
let params_id t params =
  match List.find_opt (fun (p, _) -> Costmodel.same_params p params) t.params_ids with
  | Some (_, id) -> id
  | None ->
    let id = List.length t.params_ids in
    t.params_ids <- (params, id) :: t.params_ids;
    id

(* Memory only: the disk tier holds the profile a column expands from. *)
let cost t l ~seq ~params compute = memo t.costs (l.lid, seq, params_id t params) compute

let rw t l ~buffers compute =
  memo t.rws (l.lid, buffers) (fun () ->
      disk_tier t l ~dkey:(Store.rw_key ~buffers) ~disk_find:Store.find_rw ~disk_put:Store.put_rw
        compute)

let pair t ~producer ~consumer ~max_degree compute =
  memo t.pairs (producer.lid, consumer.lid, max_degree) (fun () ->
      match t.store with
      | None -> compute ()
      | Some s -> (
        let pfl = producer.key.lk_fl and cfl = consumer.key.lk_fl in
        match (Lru.find t.fpstrs producer.key.lk_kid, Lru.find t.fpstrs consumer.key.lk_kid) with
        | Some pfp, Some cfp -> (
          let key = Store.pair_key ~pfp ~pfl ~cfp ~cfl ~max_degree in
          (* Only the relation persists; the pattern classification and
             encoded-storage sizes are recomputed on load, exactly as the
             cold path derives them from the fresh relation. *)
          let n_parents = Bm_ptx.Types.dim3_count pfl.Footprint.grid in
          let n_children = Bm_ptx.Types.dim3_count cfl.Footprint.grid in
          match Store.find_relation s ~key with
          | Some relation ->
            {
              pr_relation = relation;
              pr_pattern = Bm_depgraph.Pattern.classify relation;
              pr_sizes = Bm_depgraph.Encode.measure_pair ~n_parents ~n_children relation;
            }
          | None ->
            let pr = compute () in
            Store.put_relation s ~key ~n_parents ~n_children pr.pr_relation;
            pr)
        | _ -> compute ()))

type counters = {
  kernel_hits : int;
  kernel_misses : int;
  kernel_evictions : int;
  footprint_hits : int;
  footprint_misses : int;
  footprint_evictions : int;
  profile_hits : int;
  profile_misses : int;
  profile_evictions : int;
  cost_hits : int;
  cost_misses : int;
  cost_evictions : int;
  rw_hits : int;
  rw_misses : int;
  rw_evictions : int;
  pair_hits : int;
  pair_misses : int;
  pair_evictions : int;
  interned : int;
}

let counters (c : t) =
  let ev f = Lru.evictions f.lru in
  {
    kernel_hits = c.analysis.hits;
    kernel_misses = c.analysis.misses;
    kernel_evictions = ev c.analysis;
    footprint_hits = c.footprints.hits;
    footprint_misses = c.footprints.misses;
    footprint_evictions = ev c.footprints;
    profile_hits = c.profiles.hits;
    profile_misses = c.profiles.misses;
    profile_evictions = ev c.profiles;
    cost_hits = c.costs.hits;
    cost_misses = c.costs.misses;
    cost_evictions = ev c.costs;
    rw_hits = c.rws.hits;
    rw_misses = c.rws.misses;
    rw_evictions = ev c.rws;
    pair_hits = c.pairs.hits;
    pair_misses = c.pairs.misses;
    pair_evictions = ev c.pairs;
    interned = c.next_id;
  }

let export t registry =
  let c = counters t in
  let put name v = Metrics.add (Metrics.counter registry name) (float_of_int v) in
  put "prep.cache.kernel.hits" c.kernel_hits;
  put "prep.cache.kernel.misses" c.kernel_misses;
  put "prep.cache.kernel.evictions" c.kernel_evictions;
  put "prep.cache.footprint.hits" c.footprint_hits;
  put "prep.cache.footprint.misses" c.footprint_misses;
  put "prep.cache.footprint.evictions" c.footprint_evictions;
  put "prep.cache.profile.hits" c.profile_hits;
  put "prep.cache.profile.misses" c.profile_misses;
  put "prep.cache.profile.evictions" c.profile_evictions;
  put "prep.cache.cost.hits" c.cost_hits;
  put "prep.cache.cost.misses" c.cost_misses;
  put "prep.cache.cost.evictions" c.cost_evictions;
  put "prep.cache.rw.hits" c.rw_hits;
  put "prep.cache.rw.misses" c.rw_misses;
  put "prep.cache.rw.evictions" c.rw_evictions;
  put "prep.cache.pair.hits" c.pair_hits;
  put "prep.cache.pair.misses" c.pair_misses;
  put "prep.cache.pair.evictions" c.pair_evictions;
  put "prep.cache.interned" c.interned;
  match t.store with None -> () | Some s -> Store.export s registry
