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

let hash_launch launch =
  let mix h v = (h * 1_000_003) lxor v in
  let mix_dim h d = mix (mix (mix h d.dx) d.dy) d.dz in
  List.fold_left
    (fun h (name, v) -> mix (mix h (Hashtbl.hash name)) v)
    (mix_dim (mix_dim 0 launch.grid) launch.block)
    launch.args
  land max_int

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

let tid_x_range (block : dim3) tid_cap =
  let hi = block.dx - 1 in
  let hi = match tid_cap with Some c -> min hi c | None -> hi in
  Sinterval.make ~lo:0 ~hi:(max 0 hi) ~stride:1

let special_interval env = function
  | Tid X -> tid_x_range env.launch.block env.tid_cap
  | Tid a -> Sinterval.make ~lo:0 ~hi:(max 0 (axis_of env.launch.block a - 1)) ~stride:1
  | Ntid a -> Sinterval.singleton (axis_of env.launch.block a)
  | Ctaid a -> Sinterval.singleton (axis_of env.cta a)
  | Nctaid a -> Sinterval.singleton (axis_of env.launch.grid a)

(* The value set of loop counter [c] whose init evaluates to [ii] and whose
   bound evaluates to [bi]; [None] when the loop provably runs zero
   iterations. *)
let loop_range (c : Symeval.counter) (ii : Sinterval.t) (bi : Sinterval.t) =
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
  loop_range c ii bi

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

(* Fold one recognized guard's bound [b] for TB [cta] into the thread cap
   [acc]: threads with ctaid.x*ntid.x + tid.x >= b return before touching
   memory.  A bound that is not a single value leaves the cap alone. *)
let cap_of_bound launch (cta : dim3) acc (b : Sinterval.t) =
  if b.Sinterval.stride <> 0 then acc
  else
    let cap = b.Sinterval.lo - 1 - (cta.dx * launch.block.dx) in
    Some (match acc with Some c -> min c cap | None -> cap)

(* Thread cap for one TB implied by the kernel's recognized bounds checks,
   so tail TBs have a reduced effective thread range (and fully-guarded TBs
   touch nothing). *)
let tid_cap_of (r : Symeval.result) launch (cta : dim3) =
  List.fold_left
    (fun acc (g : Symeval.guard_constraint) ->
      if not (is_global_index_x g.g_expr) then acc
      else
        let env = { launch; cta; result = r; tid_cap = None } in
        match eval env g.g_bound with
        | b -> cap_of_bound launch cta acc b
        | exception Not_static _ -> acc
        | exception Exit -> acc)
    None r.guards

let no_access = { freads = []; fwrites = [] }

let of_result_reference (r : Symeval.result) launch =
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
              no_access
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

(* --- Staged evaluation: once per launch, then once per TB ------------- *)

(* An expression partially evaluated for one launch.  [Known] is its value
   for every TB; [Fails] is the exception evaluating it raises for every
   TB; [Varies] is what is left to run for one TB, given its ctaid and its
   tid.x range.  A recorded exception fires only when a TB runs the
   expression, at the point where [eval] would raise it. *)
type staged =
  | Known of Sinterval.t
  | Fails of exn
  | Varies of (dim3 -> Sinterval.t -> Sinterval.t)

let run s cta tidx = match s with Known i -> i | Fails e -> raise e | Varies f -> f cta tidx

let lift1 f s =
  match s with
  | Known a -> ( try Known (f a) with e -> Fails e)
  | Fails _ -> s
  | Varies g -> Varies (fun cta tidx -> f (g cta tidx))

(* [f a b], evaluating [b] before [a] as [eval]'s applications do, so the
   same exception wins. *)
let lift2 f sa sb =
  match (sa, sb) with
  | _, Fails _ -> sb
  | Fails _, Known _ -> sa
  | Known a, Known b -> ( try Known (f a b) with e -> Fails e)
  | Known a, Varies gb -> Varies (fun cta tidx -> f a (gb cta tidx))
  | Varies ga, Known b -> Varies (fun cta tidx -> f (ga cta tidx) b)
  | (Varies _ | Fails _), Varies gb ->
    Varies
      (fun cta tidx ->
        let b = gb cta tidx in
        f (run sa cta tidx) b)

(* [Div], [Rem] and [Shr]: the right operand must be one value satisfying
   [ok], and the left one is evaluated only after it passed. *)
let by_const ~ok ~reason f sa sb =
  let usable (b : Sinterval.t) = b.Sinterval.stride = 0 && ok b.Sinterval.lo in
  match sb with
  | Fails _ -> sb
  | Known b -> if usable b then lift1 (fun a -> f a b.Sinterval.lo) sa else Fails (Not_static reason)
  | Varies gb ->
    Varies
      (fun cta tidx ->
        let b = gb cta tidx in
        if usable b then f (run sa cta tidx) b.Sinterval.lo else raise (Not_static reason))

(* A stager for one (result, launch): [eval] with everything that does not
   read the TB folded, and each counter staged once. *)
let stager (r : Symeval.result) launch ~tid_x =
  let env0 = { launch; cta = { dx = 0; dy = 0; dz = 0 }; result = r; tid_cap = None } in
  let counters = Hashtbl.create 8 in
  let rec stage (e : Sym.t) =
    match e with
    | Sym.Const n -> Known (Sinterval.singleton n)
    | Sym.Param p -> (
      match List.assoc_opt p launch.args with
      | Some v -> Known (Sinterval.singleton v)
      | None -> Fails (Not_static ("unbound parameter " ^ p)))
    | Sym.Special (Tid X) -> tid_x
    | Sym.Special (Ctaid a) -> Varies (fun cta _ -> Sinterval.singleton (axis_of cta a))
    | Sym.Special s -> Known (special_interval env0 s)
    | Sym.Counter cid -> (
      match Hashtbl.find_opt counters cid with
      | Some s -> s
      | None ->
        let s = stage_counter cid in
        Hashtbl.add counters cid s;
        s)
    | Sym.Add (a, b) -> lift2 Sinterval.add (stage a) (stage b)
    | Sym.Sub (a, b) -> lift2 Sinterval.sub (stage a) (stage b)
    | Sym.Mul (a, b) -> lift2 Sinterval.mul (stage a) (stage b)
    | Sym.Div (a, b) ->
      by_const ~ok:(fun k -> k <> 0) ~reason:"division by a non-constant" Sinterval.div_const
        (stage a) (stage b)
    | Sym.Rem (a, b) ->
      by_const ~ok:(fun k -> k <> 0) ~reason:"remainder by a non-constant" Sinterval.rem_const
        (stage a) (stage b)
    | Sym.Shr (a, b) ->
      by_const ~ok:(fun k -> k >= 0) ~reason:"shift by a non-constant" Sinterval.shr (stage a)
        (stage b)
    | Sym.Min (a, b) -> lift2 Sinterval.min_ (stage a) (stage b)
    | Sym.Max (a, b) -> lift2 Sinterval.max_ (stage a) (stage b)
    | Sym.Unknown reason -> Fails (Not_static reason)
  and stage_counter cid =
    match Symeval.counter_of r cid with
    | exception e -> Fails e
    | c ->
      (* [eval] reads the init before the bound. *)
      let interval bi ii =
        match loop_range c ii bi with Some i -> i | None -> raise Exit
      in
      lift2 interval (stage c.bound) (stage c.init)
  in
  stage

(* The access touches [abytes] bytes starting at each address. *)
let stage_access stage (a : Symeval.access) =
  let s = stage a.aexpr in
  if a.abytes <= 1 then s
  else
    let width = Sinterval.make ~lo:0 ~hi:(a.abytes - 1) ~stride:1 in
    lift1 (fun i -> Sinterval.add i width) s

let of_result (r : Symeval.result) launch =
  match r.nonstatic_reason with
  | Some reason -> Conservative reason
  | None -> (
    let full_tid_x = tid_x_range launch.block None in
    let guards =
      List.filter (fun (g : Symeval.guard_constraint) -> is_global_index_x g.g_expr) r.guards
    in
    (* Guard bounds see the whole x-thread range, as in [tid_cap_of]; tid.x
       varies by TB only when a guard can clamp it. *)
    let bounds, tid_x =
      match guards with
      | [] -> ([], Known full_tid_x)
      | _ ->
        let stage = stager r launch ~tid_x:(Known full_tid_x) in
        ( List.map (fun (g : Symeval.guard_constraint) -> stage g.g_bound) guards,
          Varies (fun _ tidx -> tidx) )
    in
    let stage = stager r launch ~tid_x in
    let all = Array.of_list r.accesses in
    let kinds = Array.map (fun (a : Symeval.access) -> a.akind) all in
    let accesses = Array.map (stage_access stage) all in
    let tid_cap cta =
      List.fold_left
        (fun acc s ->
          match run s cta full_tid_x with
          | b -> cap_of_bound launch cta acc b
          | exception Not_static _ -> acc
          | exception Exit -> acc)
        None bounds
    in
    (* One TB's access intervals, evaluated in instruction order so the
       first exception wins; [dropped] marks a zero-trip access. *)
    let dropped = Sinterval.singleton 0 in
    let values = Array.make (Array.length accesses) dropped in
    let footprint_of tb =
      let cta = cta_of_tb launch tb in
      match tid_cap cta with
      | Some c when c < 0 -> no_access
      | tid_cap ->
        let tidx =
          match tid_cap with None -> full_tid_x | Some _ -> tid_x_range launch.block tid_cap
        in
        for i = 0 to Array.length accesses - 1 do
          values.(i) <- (match run accesses.(i) cta tidx with v -> v | exception Exit -> dropped)
        done;
        let freads = ref [] and fwrites = ref [] in
        for i = Array.length accesses - 1 downto 0 do
          let v = values.(i) in
          if v != dropped then
            match kinds.(i) with
            | `Read -> freads := v :: !freads
            | `Write -> fwrites := v :: !fwrites
        done;
        { freads = !freads; fwrites = !fwrites }
    in
    try Per_tb (Array.init (tb_count launch) footprint_of)
    with Not_static reason -> Conservative reason)

let analyze kernel launch = of_result (Symeval.analyze kernel) launch

let overlaps ~writes ~reads =
  List.exists (fun w -> List.exists (fun r -> Sinterval.intersects w r) reads.freads) writes.fwrites

let whole per_tb =
  match Array.length per_tb with
  | 0 -> no_access
  | n ->
    (* Per-access positional join; footprints of all TBs of one kernel list
       accesses in the same order.  [len] is the length of [acc]. *)
    let join_into acc len b =
      let lb = List.length b in
      if !len = lb then acc := List.map2 Sinterval.join !acc b
      else begin
        acc := !acc @ b;
        len := !len + lb
      end
    in
    let first = per_tb.(0) in
    let reads = ref first.freads and n_reads = ref (List.length first.freads) in
    let writes = ref first.fwrites and n_writes = ref (List.length first.fwrites) in
    for i = 1 to n - 1 do
      join_into reads n_reads per_tb.(i).freads;
      join_into writes n_writes per_tb.(i).fwrites
    done;
    { freads = !reads; fwrites = !writes }

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
