module Config = Bm_gpu.Config
module Bipartite = Bm_depgraph.Bipartite
module Pattern = Bm_depgraph.Pattern
module Encode = Bm_depgraph.Encode

(* TB ids are 32 bits plus 2 bits of relative kernel id (supports 4
   concurrently resident kernels). *)
let tb_id_bits = 32 + 2

let dlb_entry_bits (cfg : Config.t) =
  tb_id_bits + (cfg.Config.dlb_children_per_entry * 32)

let pcb_entry_bits (cfg : Config.t) =
  (* Counter width follows the degree cap: 64 parents -> 6 bits. *)
  let counter_bits =
    let rec bits n acc = if n <= 1 then acc else bits (n / 2) (acc + 1) in
    bits cfg.Config.max_parent_degree 0
  in
  tb_id_bits + counter_bits

let area_bytes cfg =
  let bits =
    (cfg.Config.dlb_entries * dlb_entry_bits cfg) + (cfg.Config.pcb_entries * pcb_entry_bits cfg)
  in
  (bits + 7) / 8

(* Table pressure of one launched kernel pair.  A parent with out-degree d
   occupies ceil(d / children_per_entry) DLB entries; the PCB holds one
   counter per child TB.  Only the Graph relation consults the tables —
   Independent needs none and Fully_connected is a single gate flag. *)
let entries_of (cfg : Config.t) g =
  let per = cfg.Config.dlb_children_per_entry and n = ref 0 in
  for p = 0 to g.Bipartite.n_parents - 1 do
    n := !n + ((Bipartite.out_degree g p + per - 1) / per)
  done;
  !n

let dlb_entries_needed cfg relation =
  match relation with
  | Bipartite.Independent | Bipartite.Fully_connected -> 0
  | Bipartite.Graph g -> entries_of cfg g

let pcb_counters_needed relation ~n_children =
  match relation with
  | Bipartite.Independent | Bipartite.Fully_connected -> 0
  | Bipartite.Graph _ -> n_children

let dlb_spill_bytes (cfg : Config.t) ~needed =
  let over = max 0 (needed - cfg.Config.dlb_entries) in
  over * ((dlb_entry_bits cfg + 7) / 8)

let pcb_spill_bytes (cfg : Config.t) ~needed =
  let over = max 0 (needed - cfg.Config.pcb_entries) in
  over * ((pcb_entry_bits cfg + 7) / 8)

(* Per-app occupancy attribution for a contended table (DLB or PCB) under
   concurrent execution.  Under a shared spatial policy every app charges
   one pool; under partitioning each app owns a pool sized to its slice.
   Demand beyond a pool's capacity evicts entries to global memory; the
   tracker counts those newly-evicted entries as they appear, attributed
   to the acquiring app, so eviction counters are monotone even though
   occupancy itself rises and falls. *)
module Occupancy = struct
  type t = {
    caps : int array;      (* capacity per pool *)
    pool_of : int array;   (* app -> pool *)
    used : int array;      (* live entries per pool *)
    high : int array;      (* pool high-water *)
    app_used : int array;  (* live entries per app *)
    app_high : int array;  (* app high-water *)
    app_evicted : int array;  (* entries this app pushed over capacity *)
  }

  let create_shared ~capacity ~napps =
    if napps < 1 then invalid_arg "Occupancy.create_shared: napps < 1";
    {
      caps = [| capacity |];
      pool_of = Array.make napps 0;
      used = [| 0 |];
      high = [| 0 |];
      app_used = Array.make napps 0;
      app_high = Array.make napps 0;
      app_evicted = Array.make napps 0;
    }

  let create_partitioned ~caps =
    let napps = Array.length caps in
    if napps < 1 then invalid_arg "Occupancy.create_partitioned: no pools";
    {
      caps = Array.copy caps;
      pool_of = Array.init napps (fun i -> i);
      used = Array.make napps 0;
      high = Array.make napps 0;
      app_used = Array.make napps 0;
      app_high = Array.make napps 0;
      app_evicted = Array.make napps 0;
    }

  let acquire t ~app n =
    if n < 0 then invalid_arg "Occupancy.acquire: negative demand";
    let p = t.pool_of.(app) in
    let over_before = max 0 (t.used.(p) - t.caps.(p)) in
    t.used.(p) <- t.used.(p) + n;
    t.app_used.(app) <- t.app_used.(app) + n;
    if t.used.(p) > t.high.(p) then t.high.(p) <- t.used.(p);
    if t.app_used.(app) > t.app_high.(app) then t.app_high.(app) <- t.app_used.(app);
    let newly_evicted = max 0 (t.used.(p) - t.caps.(p)) - over_before in
    t.app_evicted.(app) <- t.app_evicted.(app) + newly_evicted;
    newly_evicted

  let release t ~app n =
    if n < 0 then invalid_arg "Occupancy.release: negative demand";
    let p = t.pool_of.(app) in
    if t.app_used.(app) < n || t.used.(p) < n then
      failwith
        (Printf.sprintf "Occupancy.release: app %d releasing %d with app=%d pool=%d live" app n
           t.app_used.(app) t.used.(p));
    t.used.(p) <- t.used.(p) - n;
    t.app_used.(app) <- t.app_used.(app) - n

  let pool_used t ~app = t.used.(t.pool_of.(app))
  let app_used t app = t.app_used.(app)
  let pool_high t ~app = t.high.(t.pool_of.(app))
  let app_high t app = t.app_high.(app)
  let app_evicted t app = t.app_evicted.(app)
  let evicted t = Array.fold_left ( + ) 0 t.app_evicted
end

let transaction_bytes = 32

let to_transactions bytes = float_of_int ((bytes + transaction_bytes - 1) / transaction_bytes)

let dep_mem_requests (cfg : Config.t) ~(sizes : Encode.sizes) ~n_parents ~n_children relation =
  match relation with
  | Bipartite.Independent -> 1.0
  | Bipartite.Fully_connected ->
    (* A single flag installed and read back: the consumer is simply gated
       on the producer's completion. *)
    2.0
  | Bipartite.Graph g ->
    let install =
      to_transactions sizes.Encode.encoded_bytes +. to_transactions n_children
      (* one byte-wide counter per child, packed *)
    in
    let entry_fetches =
      match sizes.Encode.pattern with
      | Pattern.Irregular | Pattern.Overlapped ->
        (* Explicit child lists: a parent with out-degree d occupies
           ceil(d / children_per_entry) DLB entries, each one fetch. *)
        float_of_int (entries_of cfg g)
      | Pattern.Independent | Pattern.Fully_connected | Pattern.One_to_one | Pattern.One_to_n
      | Pattern.N_to_one | Pattern.N_group ->
        (* Encoded patterns derive children arithmetically: the pattern
           descriptors are prefetched in batches of eight 32-bit words per
           32-byte transaction. *)
        ceil (float_of_int n_parents /. 8.0)
    in
    (* 6-bit counters are packed eight to a transaction. *)
    let counter_traffic = ceil (float_of_int n_children /. 8.0) in
    install +. entry_fetches +. counter_traffic
