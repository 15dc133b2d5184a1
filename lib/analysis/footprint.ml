open Bm_ptx.Types

type launch = {
  grid : dim3;
  block : dim3;
  args : (string * int) list;
}

type t = {
  freads : Sinterval.t list;
  fwrites : Sinterval.t list;
}

type kernel_footprints =
  | Per_tb of t array
  | Conservative of string

exception Not_static of string

let tb_count launch = dim3_count launch.grid

let cta_of_tb launch tb =
  let gx = launch.grid.dx and gy = launch.grid.dy in
  { dx = tb mod gx; dy = tb / gx mod gy; dz = tb / (gx * gy) }

let axis_of d = function X -> d.dx | Y -> d.dy | Z -> d.dz

(* Environment for evaluating one TB's accesses.  [tid_cap] clamps the
   x-thread range when a recognized bounds check proves threads beyond it
   return immediately (tail thread blocks). *)
type env = {
  launch : launch;
  cta : dim3;
  result : Symeval.result;
  tid_cap : int option;
}

let special_interval env = function
  | Tid X ->
    let hi = axis_of env.launch.block X - 1 in
    let hi = match env.tid_cap with Some c -> min hi c | None -> hi in
    Sinterval.make ~lo:0 ~hi:(max 0 hi) ~stride:1
  | Tid a -> Sinterval.make ~lo:0 ~hi:(max 0 (axis_of env.launch.block a - 1)) ~stride:1
  | Ntid a -> Sinterval.singleton (axis_of env.launch.block a)
  | Ctaid a -> Sinterval.singleton (axis_of env.cta a)
  | Nctaid a -> Sinterval.singleton (axis_of env.launch.grid a)

let rec eval env (e : Sym.t) : Sinterval.t =
  match e with
  | Sym.Const n -> Sinterval.singleton n
  | Sym.Param p -> (
    match List.assoc_opt p env.launch.args with
    | Some v -> Sinterval.singleton v
    | None -> raise (Not_static ("unbound parameter " ^ p)))
  | Sym.Special s -> special_interval env s
  | Sym.Counter cid -> counter_interval env cid
  | Sym.Add (a, b) -> Sinterval.add (eval env a) (eval env b)
  | Sym.Sub (a, b) -> Sinterval.sub (eval env a) (eval env b)
  | Sym.Mul (a, b) -> Sinterval.mul (eval env a) (eval env b)
  | Sym.Div (a, b) ->
    let bi = eval env b in
    if bi.Sinterval.stride = 0 && bi.Sinterval.lo <> 0 then
      Sinterval.div_const (eval env a) bi.Sinterval.lo
    else raise (Not_static "division by a non-constant")
  | Sym.Rem (a, b) ->
    let bi = eval env b in
    if bi.Sinterval.stride = 0 && bi.Sinterval.lo <> 0 then
      Sinterval.rem_const (eval env a) bi.Sinterval.lo
    else raise (Not_static "remainder by a non-constant")
  | Sym.Shr (a, b) ->
    let bi = eval env b in
    if bi.Sinterval.stride = 0 && bi.Sinterval.lo >= 0 then
      Sinterval.shr (eval env a) bi.Sinterval.lo
    else raise (Not_static "shift by a non-constant")
  | Sym.Min (a, b) -> Sinterval.min_ (eval env a) (eval env b)
  | Sym.Max (a, b) -> Sinterval.max_ (eval env a) (eval env b)
  | Sym.Unknown r -> raise (Not_static r)

(* The value set of a recognized loop counter for this TB.  Returns [None]
   when the loop provably runs zero iterations. *)
and counter_interval_opt env cid =
  let c = Symeval.counter_of env.result cid in
  let ii = eval env c.init in
  let bi = eval env c.bound in
  let stride =
    let s = abs c.step in
    if ii.Sinterval.stride = 0 then s
    else
      let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
      max 1 (gcd s ii.Sinterval.stride)
  in
  if c.step > 0 then begin
    (* Upward loop; exits when [counter cmp bound] holds. *)
    let hi =
      match c.cmp with
      | Ge -> bi.Sinterval.hi - 1
      | Gt -> bi.Sinterval.hi
      | Eq | Ne -> bi.Sinterval.hi
      | Lt | Le -> raise (Not_static "unsupported upward loop exit condition")
    in
    if hi < ii.Sinterval.lo then None
    else Some (Sinterval.make ~lo:ii.Sinterval.lo ~hi ~stride)
  end
  else if c.step < 0 then begin
    let lo =
      match c.cmp with
      | Le -> bi.Sinterval.lo + 1
      | Lt -> bi.Sinterval.lo
      | Eq | Ne -> bi.Sinterval.lo
      | Ge | Gt -> raise (Not_static "unsupported downward loop exit condition")
    in
    if lo > ii.Sinterval.hi then None
    else Some (Sinterval.make ~lo ~hi:ii.Sinterval.hi ~stride)
  end
  else raise (Not_static "zero-step loop")

and counter_interval env cid =
  match counter_interval_opt env cid with
  | Some i -> i
  | None -> raise Exit  (* zero-trip loop: the access does not execute *)

let access_interval env (a : Symeval.access) =
  (* The access touches [abytes] bytes starting at each address. *)
  match eval env a.aexpr with
  | i ->
    let widened =
      if a.abytes <= 1 then i
      else Sinterval.add i (Sinterval.make ~lo:0 ~hi:(a.abytes - 1) ~stride:1)
    in
    Some widened
  | exception Exit -> None

(* The canonical bounds-checked quantity: ctaid.x * ntid.x + tid.x. *)
let is_global_index_x (e : Sym.t) =
  let is_mul a b =
    match (a, b) with
    | Sym.Special (Ctaid X), Sym.Special (Ntid X) | Sym.Special (Ntid X), Sym.Special (Ctaid X) ->
      true
    | _ -> false
  in
  match e with
  | Sym.Add (Sym.Mul (a, b), Sym.Special (Tid X)) | Sym.Add (Sym.Special (Tid X), Sym.Mul (a, b))
    ->
    is_mul a b
  | _ -> false

(* Thread cap for one TB implied by the kernel's recognized bounds checks:
   threads with ctaid.x*ntid.x + tid.x >= n return before touching memory,
   so tail TBs have a reduced effective thread range (and fully-guarded TBs
   touch nothing). *)
let tid_cap_of (r : Symeval.result) launch (cta : dim3) =
  List.fold_left
    (fun acc (g : Symeval.guard_constraint) ->
      if not (is_global_index_x g.g_expr) then acc
      else
        let env = { launch; cta; result = r; tid_cap = None } in
        match eval env g.g_bound with
        | b when b.Sinterval.stride = 0 ->
          let cap = b.Sinterval.lo - 1 - (cta.dx * launch.block.dx) in
          Some (match acc with Some c -> min c cap | None -> cap)
        | _ -> acc
        | exception Not_static _ -> acc
        | exception Exit -> acc)
    None r.guards

let of_result (r : Symeval.result) launch =
  match r.nonstatic_reason with
  | Some reason -> Conservative reason
  | None -> (
    let n = tb_count launch in
    try
      let per_tb =
        Array.init n (fun tb ->
            let cta = cta_of_tb launch tb in
            let tid_cap = tid_cap_of r launch cta in
            match tid_cap with
            | Some c when c < 0 ->
              (* Every thread of this TB fails the bounds check. *)
              { freads = []; fwrites = [] }
            | Some _ | None ->
              let env = { launch; cta; result = r; tid_cap } in
              let freads = ref [] and fwrites = ref [] in
              List.iter
                (fun (a : Symeval.access) ->
                  match access_interval env a with
                  | None -> ()
                  | Some i -> (
                    match a.akind with
                    | `Read -> freads := i :: !freads
                    | `Write -> fwrites := i :: !fwrites))
                r.accesses;
              { freads = List.rev !freads; fwrites = List.rev !fwrites })
      in
      Per_tb per_tb
    with Not_static reason -> Conservative reason)

let analyze kernel launch = of_result (Symeval.analyze kernel) launch

let overlaps ~writes ~reads =
  List.exists (fun w -> List.exists (fun r -> Sinterval.intersects w r) reads.freads) writes.fwrites

let whole per_tb =
  match Array.length per_tb with
  | 0 -> { freads = []; fwrites = [] }
  | _ ->
    let join_lists a b =
      (* Per-access positional join; footprints of all TBs of one kernel
         list accesses in the same order. *)
      if List.length a = List.length b then List.map2 Sinterval.join a b
      else a @ b
    in
    Array.fold_left
      (fun acc fp ->
        { freads = join_lists acc.freads fp.freads; fwrites = join_lists acc.fwrites fp.fwrites })
      per_tb.(0)
      (Array.sub per_tb 1 (Array.length per_tb - 1))

let any_intersect xs ys =
  List.exists (fun x -> List.exists (fun y -> Sinterval.intersects x y) ys) xs

let raw_intersect ~writes ~reads = any_intersect writes.fwrites reads.freads

let footprints_intersect a b =
  any_intersect a.fwrites b.freads   (* RAW *)
  || any_intersect a.freads b.fwrites (* WAR *)
  || any_intersect a.fwrites b.fwrites (* WAW *)

(* [Exit] means the counter's init or bound reads an enclosing counter that
   runs zero iterations, so this loop never runs either. *)
let trip_count env cid =
  match counter_interval_opt env cid with
  | Some i -> float_of_int (Sinterval.count i)
  | None -> 0.0
  | exception Not_static _ -> 8.0 (* unknown trip count: assume a modest loop *)
  | exception Exit -> 0.0

let per_tb_insts (r : Symeval.result) launch ~tb =
  let env = { launch; cta = cta_of_tb launch tb; result = r; tid_cap = None } in
  let trip cid = trip_count env cid in
  let body = r.kernel.kbody in
  let mult = Array.make (Array.length body) 1.0 in
  List.iter
    (fun (c : Symeval.counter) ->
      let t = trip c.cid in
      for i = c.entry to c.last do
        mult.(i) <- mult.(i) *. t
      done)
    r.counters;
  let total = ref 0.0 in
  Array.iteri
    (fun i instr -> match instr with Label _ -> () | I _ -> total := !total +. mult.(i))
    body;
  !total

let per_tb_mem_insts (r : Symeval.result) launch ~tb =
  let env = { launch; cta = cta_of_tb launch tb; result = r; tid_cap = None } in
  List.fold_left
    (fun acc (a : Symeval.access) ->
      let mult =
        List.fold_left (fun m cid -> m *. trip_count env cid) 1.0 a.aloops
      in
      acc +. mult)
    0.0 r.accesses

(* With no thread cap, the only per-TB input to a trip count is [Ctaid a]
   for the axes that some counter's init or bound reads.  Counters only
   reference counters of the same result, so the union over all of them is
   already closed under [Sym.Counter] references. *)
let counter_ctaid_axes (r : Symeval.result) =
  let x = ref false and y = ref false and z = ref false in
  let rec walk (e : Sym.t) =
    match e with
    | Sym.Special (Ctaid X) -> x := true
    | Sym.Special (Ctaid Y) -> y := true
    | Sym.Special (Ctaid Z) -> z := true
    | Sym.Const _ | Sym.Param _ | Sym.Special _ | Sym.Counter _ | Sym.Unknown _ -> ()
    | Sym.Add (a, b) | Sym.Sub (a, b) | Sym.Mul (a, b) | Sym.Div (a, b) | Sym.Rem (a, b)
    | Sym.Shr (a, b) | Sym.Min (a, b) | Sym.Max (a, b) ->
      walk a;
      walk b
  in
  List.iter
    (fun (c : Symeval.counter) ->
      walk c.init;
      walk c.bound)
    r.counters;
  (!x, !y, !z)

(* Both counts of one TB from a single trip vector, with the reference's
   arithmetic and order, so the floats match it bit for bit. *)
let counts_at (r : Symeval.result) launch cta =
  let env = { launch; cta; result = r; tid_cap = None } in
  let trips = List.map (fun (c : Symeval.counter) -> (c.cid, trip_count env c.cid)) r.counters in
  let body = r.kernel.kbody in
  let mult = Array.make (Array.length body) 1.0 in
  List.iter2
    (fun (c : Symeval.counter) (_, t) ->
      for i = c.entry to c.last do
        mult.(i) <- mult.(i) *. t
      done)
    r.counters trips;
  let insts = ref 0.0 in
  Array.iteri (fun i instr -> match instr with Label _ -> () | I _ -> insts := !insts +. mult.(i)) body;
  let mem =
    List.fold_left
      (fun acc (a : Symeval.access) -> acc +. List.fold_left (fun m cid -> m *. List.assoc cid trips) 1.0 a.aloops)
      0.0 r.accesses
  in
  (!insts, mem)

let per_tb_counts (r : Symeval.result) launch =
  let n = tb_count launch in
  let ux, uy, uz = counter_ctaid_axes r in
  let g = launch.grid in
  (* The radix of an axis no counter reads is 1, so [mod] drops it: the key
     is a mixed-radix index of the ctaid projected onto the axes read. *)
  let rx = if ux then g.dx else 1 and ry = if uy then g.dy else 1 and rz = if uz then g.dz else 1 in
  let memo = Array.make (rx * ry * rz) None in
  let insts = Array.make n 0.0 and mem = Array.make n 0.0 in
  for tb = 0 to n - 1 do
    let cta = cta_of_tb launch tb in
    let key = (cta.dx mod rx) + (rx * ((cta.dy mod ry) + (ry * (cta.dz mod rz)))) in
    let i, m =
      match memo.(key) with
      | Some counts -> counts
      | None ->
        let counts = counts_at r launch cta in
        memo.(key) <- Some counts;
        counts
    in
    insts.(tb) <- i;
    mem.(tb) <- m
  done;
  (insts, mem)
