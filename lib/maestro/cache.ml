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

type pair_key = {
  pk_producer : int;
  pk_pfl : Footprint.launch;
  pk_consumer : int;
  pk_cfl : Footprint.launch;
  pk_degree : int;
}

(* Ints first, so hashing and a mismatching comparison stop early; the
   params enter as an id interned by bit pattern ([params_id]). *)
type cost_key = {
  ck_seq : int;
  ck_kid : int;
  ck_params : int;
  ck_fl : Footprint.launch;
}

type rw_key = {
  rk_kid : int;
  rk_fl : Footprint.launch;
  rk_buffers : (int * int * int) list;
}

type t = {
  (* Hash-consing: canonical fingerprint -> interned id.  LRU-bounded like
     everything else; ids are monotonic, so entries of an evicted id simply
     age out of the downstream tables. *)
  intern : (Fingerprint.t, int) Lru.t;
  (* Kernel name -> the kernel value last interned under it and its id.  A
     hit needs the very same value ([==]): fingerprinting costs ~1 µs per
     PTX instruction, and warm preparations of one app pass the same
     kernel values every time.  An equal but distinct value (an
     alpha-twin, a rebuilt app) is fingerprinted as before. *)
  seen : (string, Bm_ptx.Types.kernel * int) Lru.t;
  mutable next_id : int;
  (* id -> canonical fingerprint string, the disk tier's key material.
     Only populated when a store is attached; if an entry ages out, disk
     lookups for that id are silently skipped (a plain miss). *)
  fpstrs : (int, string) Lru.t;
  store : Store.t option;
  analysis : (int, Symeval.result) Lru.t;
  footprints : (int * Footprint.launch, Footprint.kernel_footprints) Lru.t;
  profiles : (int * Footprint.launch, Costmodel.profile) Lru.t;
  costs : (cost_key, Costmodel.t) Lru.t;
  mutable params_ids : (Costmodel.params * int) list;
  rws : (rw_key, Reorder.rw) Lru.t;
  pairs : (pair_key, pair_result) Lru.t;
  mutable kernel_hits : int;
  mutable kernel_misses : int;
  mutable footprint_hits : int;
  mutable footprint_misses : int;
  mutable profile_hits : int;
  mutable profile_misses : int;
  mutable cost_hits : int;
  mutable cost_misses : int;
  mutable rw_hits : int;
  mutable rw_misses : int;
  mutable pair_hits : int;
  mutable pair_misses : int;
}

let create ?(kernel_capacity = 256) ?(pair_capacity = 8192) ?store () =
  {
    intern = Lru.create ~capacity:kernel_capacity;
    seen = Lru.create ~capacity:kernel_capacity;
    next_id = 0;
    fpstrs = Lru.create ~capacity:kernel_capacity;
    store;
    analysis = Lru.create ~capacity:kernel_capacity;
    footprints = Lru.create ~capacity:pair_capacity;
    profiles = Lru.create ~capacity:pair_capacity;
    costs = Lru.create ~capacity:pair_capacity;
    params_ids = [];
    rws = Lru.create ~capacity:pair_capacity;
    pairs = Lru.create ~capacity:pair_capacity;
    kernel_hits = 0;
    kernel_misses = 0;
    footprint_hits = 0;
    footprint_misses = 0;
    profile_hits = 0;
    profile_misses = 0;
    cost_hits = 0;
    cost_misses = 0;
    rw_hits = 0;
    rw_misses = 0;
    pair_hits = 0;
    pair_misses = 0;
  }

let store t = t.store

let intern t kernel =
  let fp = Fingerprint.of_kernel kernel in
  match Lru.find t.intern fp with
  | Some id -> id
  | None ->
    let id = t.next_id in
    t.next_id <- id + 1;
    Lru.add t.intern fp id;
    if t.store <> None then Lru.add t.fpstrs id (Fingerprint.to_string fp);
    id

let kernel_id t (kernel : Bm_ptx.Types.kernel) =
  match Lru.find t.seen kernel.Bm_ptx.Types.kname with
  | Some (k, id) when k == kernel -> id
  | Some _ | None ->
    let id = intern t kernel in
    Lru.add t.seen kernel.Bm_ptx.Types.kname (kernel, id);
    id

(* The disk tier sits below the in-process LRU: an LRU miss consults the
   store before computing, and a computed value is written through.  Disk
   hits still count as in-memory misses — the two counter families describe
   different tiers. *)
let disk_tier t ~kid ~dkey ~disk_find ~disk_put compute =
  match t.store with
  | None -> compute ()
  | Some s -> (
    match Lru.find t.fpstrs kid with
    | None -> compute ()
    | Some fps -> (
      let key = dkey fps in
      match disk_find s ~key with
      | Some v -> v
      | None ->
        let v = compute () in
        disk_put s ~key v;
        v))

let analysis t ~kid compute =
  match Lru.find t.analysis kid with
  | Some r ->
    t.kernel_hits <- t.kernel_hits + 1;
    r
  | None ->
    t.kernel_misses <- t.kernel_misses + 1;
    let r = compute () in
    Lru.add t.analysis kid r;
    r

let footprint t ~kid ~fl compute =
  let key = (kid, fl) in
  match Lru.find t.footprints key with
  | Some fp ->
    t.footprint_hits <- t.footprint_hits + 1;
    fp
  | None ->
    t.footprint_misses <- t.footprint_misses + 1;
    let fp =
      disk_tier t ~kid
        ~dkey:(fun fps -> Store.footprint_key ~fp:fps ~fl)
        ~disk_find:Store.find_footprints ~disk_put:Store.put_footprints compute
    in
    Lru.add t.footprints key fp;
    fp

let profile t ~kid ~fl compute =
  let key = (kid, fl) in
  match Lru.find t.profiles key with
  | Some p ->
    t.profile_hits <- t.profile_hits + 1;
    p
  | None ->
    t.profile_misses <- t.profile_misses + 1;
    let p =
      disk_tier t ~kid
        ~dkey:(fun fps -> Store.profile_key ~fp:fps ~fl)
        ~disk_find:Store.find_profile ~disk_put:Store.put_profile compute
    in
    Lru.add t.profiles key p;
    p

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
let cost t ~kid ~fl ~seq ~params compute =
  let key = { ck_seq = seq; ck_kid = kid; ck_params = params_id t params; ck_fl = fl } in
  match Lru.find t.costs key with
  | Some c ->
    t.cost_hits <- t.cost_hits + 1;
    c
  | None ->
    t.cost_misses <- t.cost_misses + 1;
    let c = compute () in
    Lru.add t.costs key c;
    c

let rw t ~kid ~fl ~buffers compute =
  let key = { rk_kid = kid; rk_fl = fl; rk_buffers = buffers } in
  match Lru.find t.rws key with
  | Some rw ->
    t.rw_hits <- t.rw_hits + 1;
    rw
  | None ->
    t.rw_misses <- t.rw_misses + 1;
    let rw =
      disk_tier t ~kid
        ~dkey:(fun fps -> Store.rw_key ~fp:fps ~fl ~buffers)
        ~disk_find:Store.find_rw ~disk_put:Store.put_rw compute
    in
    Lru.add t.rws key rw;
    rw

let pair t ~pkid ~pfl ~ckid ~cfl ~max_degree compute =
  let key =
    { pk_producer = pkid; pk_pfl = pfl; pk_consumer = ckid; pk_cfl = cfl; pk_degree = max_degree }
  in
  match Lru.find t.pairs key with
  | Some pr ->
    t.pair_hits <- t.pair_hits + 1;
    pr
  | None ->
    t.pair_misses <- t.pair_misses + 1;
    let pr =
      match t.store with
      | None -> compute ()
      | Some s -> (
        match (Lru.find t.fpstrs pkid, Lru.find t.fpstrs ckid) with
        | Some pfps, Some cfps -> (
          let dkey = Store.pair_key ~pfp:pfps ~pfl ~cfp:cfps ~cfl ~max_degree in
          (* Only the relation persists; the pattern classification and
             encoded-storage sizes are recomputed on load, exactly as the
             cold path derives them from the fresh relation. *)
          let n_parents = Bm_ptx.Types.dim3_count pfl.Footprint.grid in
          let n_children = Bm_ptx.Types.dim3_count cfl.Footprint.grid in
          match Store.find_relation s ~key:dkey with
          | Some relation ->
            {
              pr_relation = relation;
              pr_pattern = Bm_depgraph.Pattern.classify relation;
              pr_sizes = Bm_depgraph.Encode.measure_pair ~n_parents ~n_children relation;
            }
          | None ->
            let pr = compute () in
            Store.put_relation s ~key:dkey ~n_parents ~n_children pr.pr_relation;
            pr)
        | _ -> compute ())
    in
    Lru.add t.pairs key pr;
    pr

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
  {
    kernel_hits = c.kernel_hits;
    kernel_misses = c.kernel_misses;
    kernel_evictions = Lru.evictions c.analysis;
    footprint_hits = c.footprint_hits;
    footprint_misses = c.footprint_misses;
    footprint_evictions = Lru.evictions c.footprints;
    profile_hits = c.profile_hits;
    profile_misses = c.profile_misses;
    profile_evictions = Lru.evictions c.profiles;
    cost_hits = c.cost_hits;
    cost_misses = c.cost_misses;
    cost_evictions = Lru.evictions c.costs;
    rw_hits = c.rw_hits;
    rw_misses = c.rw_misses;
    rw_evictions = Lru.evictions c.rws;
    pair_hits = c.pair_hits;
    pair_misses = c.pair_misses;
    pair_evictions = Lru.evictions c.pairs;
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
