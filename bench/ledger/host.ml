(* Host speed.

   On a shared host the CPU time of identical passes drifts with what the
   other tenants run: in phases lasting from seconds to minutes every item
   of a pass slows by about the same factor, by 20% and more.  So a run
   also times a fixed probe before and after every timed set-up and pass,
   and at fixed points within a pass, and divides each one's times by its
   host factor: the mean of those probes over [reference_ms].

   The probe is four kernels of 3 to 5 ms each, over tables outside the
   OCaml heap: random reads over 8 MB, a pointer chase through a random
   cycle over 2 MB, binary searches in 512 KB, and a sequential write and
   read of 2 MB.  Each kind of access alone tracked some workloads and not
   others; together they tracked all four (see README.md).  The probe
   allocates nothing and calls nothing in the repository, so a change to
   the repository's code, heap or GC settings cannot change the work it
   does. *)

module A = Bigarray.Array1

type table = (int, Bigarray.int_elt, Bigarray.c_layout) A.t

let make n f : table = A.init Bigarray.int Bigarray.c_layout n f

type tables = { random : table; chain : table; sorted : table; stream : table }

let random_slots = 1_000_000
let chain_slots = 262_144
let sorted_slots = 65_536
let stream_slots = 262_144

(* A single cycle through every slot of [chain], in a seeded random order. *)
let cycle n =
  let perm = make n (fun i -> i) in
  let st = Random.State.make [| 42 |] in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = A.get perm i in
    A.set perm i (A.get perm j);
    A.set perm j t
  done;
  let next = make n (fun _ -> 0) in
  for i = 0 to n - 1 do
    A.set next (A.get perm i) (A.get perm ((i + 1) mod n))
  done;
  next

let tables =
  lazy
    {
      random = make random_slots (fun i -> i * 3);
      chain = cycle chain_slots;
      sorted = make sorted_slots (fun i -> i * 2);
      stream = make stream_slots (fun _ -> 0);
    }

let lcg r = ((r * 1103515245) + 12345) land 0x3fffffff

let random_reads t =
  let r = ref 1 and acc = ref 0 in
  for _ = 1 to 350_000 do
    r := lcg !r;
    acc := !acc + A.unsafe_get t.random (!r mod random_slots)
  done;
  !acc

let pointer_chase t =
  let p = ref 0 in
  for _ = 1 to 160_000 do
    p := A.unsafe_get t.chain !p
  done;
  !p

let binary_searches t =
  let r = ref 7 and acc = ref 0 in
  for _ = 1 to 18_000 do
    r := lcg !r;
    let key = !r land ((2 * sorted_slots) - 1) in
    let lo = ref 0 and hi = ref (sorted_slots - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      if A.unsafe_get t.sorted mid < key then lo := mid + 1 else hi := mid
    done;
    acc := !acc + !lo
  done;
  !acc

let stream t =
  let acc = ref 0 in
  for rep = 1 to 7 do
    for i = 0 to stream_slots - 1 do
      A.unsafe_set t.stream i (i + rep)
    done;
    for i = 0 to stream_slots - 1 do
      acc := !acc + A.unsafe_get t.stream i
    done
  done;
  !acc

(* Build the tables; a run calls this before it times anything, so their
   one-time allocation falls outside every timed region. *)
let ready () = ignore (Lazy.force tables)

(* CPU milliseconds of one probe. *)
let probe () =
  let t = Lazy.force tables in
  let t0 = Layers.cpu_seconds () in
  let acc = random_reads t + pointer_chase t + binary_searches t + stream t in
  ignore (Sys.opaque_identity acc);
  (Layers.cpu_seconds () -. t0) *. 1e3

(* About the probe's time in a quiet phase of the two-vCPU VM the bounds
   were set on, so a normalised time reads close to the raw time of a
   quiet phase there. *)
let reference_ms = 15.0

(* The host factor of a region, from the probes taken around and within it. *)
let factor probes_ms = List.fold_left ( +. ) 0.0 probes_ms /. float_of_int (List.length probes_ms) /. reference_ms
