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

type affine = {
  base : Sinterval.t;
  coef : int;
  den : int;
  scale : int;
  lo_rem : int;
  hi_rem : int;
}

type summary = {
  s_tbs : int;
  s_affine : int;
  s_reads : affine array;
  s_writes : affine array;
  s_tail : t array;
}

type kernel_footprints =
  | Per_tb of t array
  | Summary of summary
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

(* --- Floor-affine accesses ---------------------------------------------- *)

(* [x / d] rounded down, [d > 0]. *)
let fdiv x d = if x >= 0 then x / d else -(((-x) + d - 1) / d)

let rec gcd x y = if y = 0 then abs x else gcd y (x mod y)

(* The two endpoints at TB [t]: TB 0's plus [scale] times the floor term,
   which is 0 at TB 0 because each remainder lies in [0, den). *)
let lo_at a t = a.base.Sinterval.lo + (a.scale * fdiv (a.lo_rem + (a.coef * t)) a.den)
let hi_at a t = a.base.Sinterval.hi + (a.scale * fdiv (a.hi_rem + (a.coef * t)) a.den)

let at a t =
  if a.den = 1 then Sinterval.shift a.base (a.coef * t)
  else Sinterval.make ~lo:(lo_at a t) ~hi:(hi_at a t) ~stride:a.base.Sinterval.stride

(* --- Staged evaluation: once per launch, then once per TB ------------- *)

(* An expression partially evaluated for one launch.  [Known] is its value
   for every TB; [Affine a] is [at a ctaid.x], on a 1-D grid, with the
   invariant that on every TB of the launch the interval is one value
   exactly when [a.base] is; [Fails] is the exception evaluating it raises
   for every TB; [Varies] is what is left to run for one TB, given its
   ctaid and its tid.x range.  A recorded exception fires only when a TB
   runs the expression, at the point where [eval] would raise it. *)
type staged =
  | Known of Sinterval.t
  | Affine of affine
  | Fails of exn
  | Varies of (dim3 -> Sinterval.t -> Sinterval.t)

let run s cta tidx =
  match s with
  | Known i -> i
  | Affine a -> at a cta.dx
  | Fails e -> raise e
  | Varies f -> f cta tidx

(* A plain shift: TB [t]'s interval is [base] shifted by [coef * t]. *)
let shifted base coef = { base; coef; den = 1; scale = 1; lo_rem = 0; hi_rem = 0 }

(* The staged value whose TB [t] has endpoints [base.lo + scale * floor
   ((lo_rem + coef * t) / den)] and [base.hi + ...hi_rem...]; a plain
   shift by [scale * coef / den] when [den] divides [coef]. *)
let floor_affine ~base ~coef ~den ~scale ~lo_rem ~hi_rem =
  if coef = 0 || scale = 0 then Known base
  else if coef mod den = 0 then Affine (shifted base (scale * (coef / den)))
  else Affine { base; coef; den; scale; lo_rem; hi_rem }

let affine b k = if k = 0 then Known b else Affine (shifted b k)

(* [a] with TB 0's interval [base] and its floor terms multiplied by [c]:
   what [add]/[sub] with a known operand ([c = 1], or [-1] for the right
   operand of [sub]) and [mul_const] by [c] make of it.  A negative [c]
   swaps the endpoints. *)
let rescale a base c =
  let lo_rem, hi_rem = if c < 0 then (a.hi_rem, a.lo_rem) else (a.lo_rem, a.hi_rem) in
  floor_affine ~base ~coef:a.coef ~den:a.den ~scale:(a.scale * c) ~lo_rem ~hi_rem

let lift1 f s =
  match s with
  | Known a -> ( try Known (f a) with e -> Fails e)
  | Fails _ -> s
  | Affine _ | Varies _ -> Varies (fun cta tidx -> f (run s cta tidx))

(* [f a b], evaluating [b] before [a] as [eval]'s applications do, so the
   same exception wins.  An affine operand never raises. *)
let lift2 f sa sb =
  match (sa, sb) with
  | _, Fails _ -> sb
  | Fails _, (Known _ | Affine _) -> sa
  | Known a, Known b -> ( try Known (f a b) with e -> Fails e)
  | Known a, (Affine _ | Varies _) -> Varies (fun cta tidx -> f a (run sb cta tidx))
  | (Affine _ | Varies _), Known b -> Varies (fun cta tidx -> f (run sa cta tidx) b)
  | (Affine _ | Varies _ | Fails _), (Affine _ | Varies _) ->
    Varies
      (fun cta tidx ->
        let b = run sb cta tidx in
        f (run sa cta tidx) b)

(* [add] and [sub] commute with a shift of either operand:
   [f (shift a (ka*t)) (shift b (kb*t)) = shift (f a b) ((ka + sign*kb)*t)].
   With a known operand they move a floor-affine one's endpoints by the
   known bounds and take the stride rule of TB 0, which the invariant
   makes every TB's: [f] at TB 0 gives the new base. *)
let linear f ~sign sa sb =
  let or_lift g = try g () with Invalid_argument _ -> lift2 f sa sb in
  match (sa, sb) with
  | Affine a, Affine b when a.den = 1 && b.den = 1 ->
    or_lift (fun () -> affine (f a.base b.base) (a.coef + (sign * b.coef)))
  | Affine a, Known k -> or_lift (fun () -> rescale a (f a.base k) 1)
  | Known k, Affine b -> or_lift (fun () -> rescale b (f k b.base) sign)
  | _ -> lift2 f sa sb

(* A product with one single value is [mul_const], which scales both
   endpoints of the other operand. *)
let mul_staged sa sb =
  match (sa, sb) with
  | Affine a, Known c | Known c, Affine a when c.Sinterval.stride = 0 ->
    rescale a (Sinterval.mul_const a.base c.Sinterval.lo) c.Sinterval.lo
  | _ -> lift2 Sinterval.mul sa sb

(* [Div], [Rem] and [Shr]: the right operand must be one value satisfying
   [ok], and the left one is evaluated only after it passed.  [closed]
   gives an affine left operand's closed form, where it has one. *)
let by_const ?(closed = fun _ _ -> None) ~ok ~reason f sa sb =
  let usable (b : Sinterval.t) = b.Sinterval.stride = 0 && ok b.Sinterval.lo in
  match sb with
  | Fails _ -> sb
  | Known b -> (
    if not (usable b) then Fails (Not_static reason)
    else
      let c = b.Sinterval.lo in
      let per_tb () = lift1 (fun a -> f a c) sa in
      match sa with
      | Affine a -> ( match closed a c with Some s -> s | None -> per_tb ())
      | Known _ | Fails _ | Varies _ -> per_tb ())
  | Affine _ | Varies _ ->
    Varies
      (fun cta tidx ->
        let b = run sb cta tidx in
        if usable b then f (run sa cta tidx) b.Sinterval.lo else raise (Not_static reason))

(* [div_const] of a shifted interval by [c] over TBs [\[0, n)]: a shift
   again when [c] divides the per-TB shift, else the floor-affine value
   whose endpoints are [floor ((e + coef * t) / |c|)], negated for
   [c < 0].  That needs one stride and one width class for every TB:
   [div_const] picks [stride / |c|] when TB t's low end is a multiple of
   [|c|], so a stride that [|c|] divides must be [|c|] itself; and a TB 0
   narrower than [|c|] gives results of width 0 or 1 by the low end's
   residue, which repeats with period [|c| / gcd(coef, |c|)]. *)
let div_affine ~n a c =
  if a.den <> 1 then None
  else if a.coef mod c = 0 then Some (affine (Sinterval.div_const a.base c) (a.coef / c))
  else
    let b = a.base and c' = abs c in
    let lo = b.Sinterval.lo and s = b.Sinterval.stride in
    let width = b.Sinterval.hi - lo in
    let residue x = x - (c' * fdiv x c') in
    let wide t = residue (lo + (a.coef * t)) >= c' - width in
    let period = min n (c' / gcd a.coef c') in
    let rec same t = t >= period || (wide t = wide 0 && same (t + 1)) in
    if (s = 0 || s mod c' <> 0 || s = c') && (width = 0 || width >= c' || same 1) then
      let base = Sinterval.div_const b c and lo_rem = residue lo and hi_rem = residue b.Sinterval.hi in
      Some
        (if c > 0 then floor_affine ~base ~coef:a.coef ~den:c' ~scale:1 ~lo_rem ~hi_rem
         else floor_affine ~base ~coef:a.coef ~den:c' ~scale:(-1) ~lo_rem:hi_rem ~hi_rem:lo_rem)
    else None

(* [rem_const] of a shifted interval is [Known] when every TB of
   [\[0, n)] gets TB 0's result, and TBs 1, n-2 and n-1 decide that.  The
   low end is monotone, so the negative branch holds on no TB or on all of
   them.  TBs that the in-range branch keeps as they are (high end below
   [|c|]) differ pairwise and form a prefix or a suffix, so at most one of
   them is at either end, and it is sampled.  The rest take the strided
   branch, whose result moves with the low end's residue modulo
   gcd(stride, |c|); a sampled pair of adjacent ones agrees only if the
   shift keeps that residue, and then all of them agree. *)
let rem_affine ~n a c =
  if a.den <> 1 then None
  else
    let r = Sinterval.rem_const a.base c in
    let agrees t = t <= 0 || t >= n || Sinterval.equal (Sinterval.rem_const (at a t) c) r in
    if List.for_all agrees [ 1; n - 2; n - 1 ] then Some (Known r) else None

(* A residual that reuses its last value while it is run for the same TB
   (the same ctaid and tid.x values, physically): the TB's accesses and
   guard bounds then evaluate a shared subexpression once. *)
let once_per_tb = function
  | Varies f ->
    let last_cta = ref { dx = -1; dy = -1; dz = -1 } in
    let last_tidx = ref (Sinterval.singleton 0) and last = ref (Sinterval.singleton 0) in
    Varies
      (fun cta tidx ->
        if cta == !last_cta && tidx == !last_tidx then !last
        else begin
          let v = f cta tidx in
          last_cta := cta;
          last_tidx := tidx;
          last := v;
          v
        end)
  | (Known _ | Affine _ | Fails _) as s -> s

(* A stager for one (result, launch): [eval] with everything that does not
   read the TB folded, each subexpression staged once, and on a 1-D grid
   [ctaid.x] kept in closed form through [add], [sub], [mul_const],
   [div_const] and a [rem_const] that is the same on every TB. *)
let stager (r : Symeval.result) launch ~tid_x =
  let env0 = { launch; cta = { dx = 0; dy = 0; dz = 0 }; result = r; tid_cap = None } in
  let one_d = launch.grid.dy = 1 && launch.grid.dz = 1 in
  (* One staged value per distinct subexpression, so the accesses of a
     kernel share their common subtrees and each residual runs once per
     TB. *)
  let memo = Hashtbl.create 32 in
  let n = tb_count launch in
  (* [min_] and [max_] of an affine interval of stride at most 1 and a
     known one are the affine one on every TB where each of its bounds
     stays on the kept side of the known one's; the bounds move
     monotonically, so the first and last TB decide. *)
  let clamp f ~keeps sa sb =
    let holds a (c : Sinterval.t) =
      a.base.Sinterval.stride <= 1
      && List.for_all
           (fun tb -> keeps (lo_at a tb) c.Sinterval.lo && keeps (hi_at a tb) c.Sinterval.hi)
           [ 0; n - 1 ]
    in
    match (sa, sb) with
    | Affine a, Known c when holds a c -> sa
    | Known c, Affine a when holds a c -> sb
    | _ -> lift2 f sa sb
  in
  let rec stage (e : Sym.t) =
    match Hashtbl.find_opt memo e with
    | Some s -> s
    | None ->
      let s = once_per_tb (stage_node e) in
      Hashtbl.add memo e s;
      s
  and stage_node (e : Sym.t) =
    match e with
    | Sym.Const n -> Known (Sinterval.singleton n)
    | Sym.Param p -> (
      match List.assoc_opt p launch.args with
      | Some v -> Known (Sinterval.singleton v)
      | None -> Fails (Not_static ("unbound parameter " ^ p)))
    | Sym.Special (Tid X) -> tid_x
    | Sym.Special (Ctaid X) when one_d -> affine (Sinterval.singleton 0) 1
    | Sym.Special (Ctaid (Y | Z)) when one_d -> Known (Sinterval.singleton 0)
    | Sym.Special (Ctaid a) -> Varies (fun cta _ -> Sinterval.singleton (axis_of cta a))
    | Sym.Special s -> Known (special_interval env0 s)
    | Sym.Counter cid -> stage_counter cid
    | Sym.Add (a, b) -> linear Sinterval.add ~sign:1 (stage a) (stage b)
    | Sym.Sub (a, b) -> linear Sinterval.sub ~sign:(-1) (stage a) (stage b)
    | Sym.Mul (a, b) -> mul_staged (stage a) (stage b)
    | Sym.Div (a, b) ->
      by_const ~closed:(div_affine ~n) ~ok:(fun k -> k <> 0) ~reason:"division by a non-constant"
        Sinterval.div_const (stage a) (stage b)
    | Sym.Rem (a, b) ->
      by_const ~closed:(rem_affine ~n) ~ok:(fun k -> k <> 0) ~reason:"remainder by a non-constant"
        Sinterval.rem_const (stage a) (stage b)
    | Sym.Shr (a, b) ->
      by_const ~ok:(fun k -> k >= 0) ~reason:"shift by a non-constant" Sinterval.shr (stage a)
        (stage b)
    | Sym.Min (a, b) -> clamp Sinterval.min_ ~keeps:(fun x y -> x <= y) (stage a) (stage b)
    | Sym.Max (a, b) -> clamp Sinterval.max_ ~keeps:(fun x y -> x >= y) (stage a) (stage b)
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
  else linear Sinterval.add ~sign:1 s (Known (Sinterval.make ~lo:0 ~hi:(a.abytes - 1) ~stride:1))

(* --- Affine summaries --------------------------------------------------- *)

let summary_tb s tb =
  if tb >= s.s_affine then s.s_tail.(tb - s.s_affine)
  else
    let side accs = Array.fold_right (fun a l -> at a tb :: l) accs [] in
    { freads = side s.s_reads; fwrites = side s.s_writes }

let materialize = function
  | Summary s -> Ok (Array.init s.s_tbs (summary_tb s))
  | Per_tb fps -> Ok fps
  | Conservative reason -> Error reason

(* How many leading TBs run with TB 0's x-thread range, and that range.
   On a 1-D grid whose guard bounds each fold to one value (or to an
   exception the cap ignores), the thread cap falls as ctaid.x grows, so
   those TBs come first and the clamped and fully guarded ones form one
   tail; when a guard already clamps TB 0, it is TB 0 alone.  Anywhere
   else, or when TB 0 runs no thread, the count is 0 and every TB takes
   the per-TB cap. *)
let leading launch ~bounds ~tid_cap ~full_tid_x =
  let n = tb_count launch in
  let monotone =
    launch.grid.dy = 1 && launch.grid.dz = 1 && launch.block.dx >= 0
    && List.for_all
         (function
           | Known _ | Fails (Not_static _ | Exit) -> true
           | Affine _ | Fails _ | Varies _ -> false)
         bounds
  in
  let range tb =
    match tid_cap { dx = tb; dy = 0; dz = 0 } with
    | None -> Some full_tid_x
    | Some c when c >= 0 -> Some (tid_x_range launch.block (Some c))
    | Some _ -> None
  in
  match if monotone && n > 0 then range 0 else None with
  | None -> (0, full_tid_x)
  | Some first ->
    let same tb = match range tb with Some r -> Sinterval.equal r first | None -> false in
    let lo = ref 1 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if same mid then lo := mid + 1 else hi := mid
    done;
    (!lo, first)

(* The staged accesses of one kind as affine parts, zero-trip drops left
   out; [None] if one of them is neither known nor affine. *)
let affine_side kinds staged kind =
  let rec go i acc =
    if i < 0 then Some (Array.of_list acc)
    else if kinds.(i) <> kind then go (i - 1) acc
    else
      match staged.(i) with
      | Known b -> go (i - 1) (shifted b 0 :: acc)
      | Affine a -> go (i - 1) (a :: acc)
      | Fails Exit -> go (i - 1) acc
      | Fails _ | Varies _ -> None
  in
  go (Array.length staged - 1) []

let of_result (r : Symeval.result) launch =
  match r.nonstatic_reason with
  | Some reason -> Conservative reason
  | None -> (
    let n = tb_count launch in
    let full_tid_x = tid_x_range launch.block None in
    let guards =
      List.filter (fun (g : Symeval.guard_constraint) -> is_global_index_x g.g_expr) r.guards
    in
    (* Guard bounds see the whole x-thread range, as in [tid_cap_of]. *)
    let stage_full = stager r launch ~tid_x:(Known full_tid_x) in
    let bounds = List.map (fun (g : Symeval.guard_constraint) -> stage_full g.g_bound) guards in
    let all = Array.of_list r.accesses in
    let kinds = Array.map (fun (a : Symeval.access) -> a.akind) all in
    let tid_cap cta =
      List.fold_left
        (fun acc s ->
          match run s cta full_tid_x with
          | b -> cap_of_bound launch cta acc b
          | exception Not_static _ -> acc
          | exception Exit -> acc)
        None bounds
    in
    let head, head_tid_x = leading launch ~bounds ~tid_cap ~full_tid_x in
    (* Staged only when the leading TBs exist or no guard clamps a TB. *)
    let head_accesses =
      lazy
        (let stage =
           if head_tid_x == full_tid_x then stage_full else stager r launch ~tid_x:(Known head_tid_x)
         in
         Array.map (stage_access stage) all)
    in
    (* One TB's access intervals, evaluated in instruction order so the
       first exception wins; [dropped] marks a zero-trip access. *)
    let dropped = Sinterval.singleton 0 in
    let values = Array.make (Array.length all) dropped in
    let footprint accesses cta tidx =
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
    (* The TBs past [head] each take their cap; tid.x varies by TB only
       when a guard can clamp it. *)
    let tail_accesses =
      lazy
        (match guards with
        | [] -> Lazy.force head_accesses
        | _ -> Array.map (stage_access (stager r launch ~tid_x:(Varies (fun _ tidx -> tidx)))) all)
    in
    let footprint_of tb =
      let cta = cta_of_tb launch tb in
      if tb < head then footprint (Lazy.force head_accesses) cta head_tid_x
      else
        match tid_cap cta with
        | Some c when c < 0 -> no_access
        | None -> footprint (Lazy.force tail_accesses) cta full_tid_x
        | Some _ as cap -> footprint (Lazy.force tail_accesses) cta (tid_x_range launch.block cap)
    in
    let affine =
      if head = 0 then None
      else
        let accesses = Lazy.force head_accesses in
        match (affine_side kinds accesses `Read, affine_side kinds accesses `Write) with
        | Some reads, Some writes -> Some (reads, writes)
        | _ -> None
    in
    (* TBs run in order, as in the reference, so the first exception wins;
       an all-affine head raises nothing. *)
    try
      match affine with
      | Some (s_reads, s_writes) ->
        Summary
          {
            s_tbs = n;
            s_affine = head;
            s_reads;
            s_writes;
            s_tail = Array.init (n - head) (fun i -> footprint_of (head + i));
          }
      | None -> Per_tb (Array.init n footprint_of)
    with Not_static reason -> Conservative reason)

let analyze kernel launch = of_result (Symeval.analyze kernel) launch

let overlaps ~writes ~reads =
  List.exists (fun w -> List.exists (fun r -> Sinterval.intersects w r) reads.freads) writes.fwrites

(* Per-access positional join of [first] and [per_tb.(from ..)]; footprints
   of all TBs of one kernel list accesses in the same order, and a TB whose
   list has another length (it dropped an access) is appended. *)
let join_from first per_tb ~from =
  let join_into acc len b =
    let lb = List.length b in
    if !len = lb then acc := List.map2 Sinterval.join !acc b
    else begin
      acc := !acc @ b;
      len := !len + lb
    end
  in
  let reads = ref first.freads and n_reads = ref (List.length first.freads) in
  let writes = ref first.fwrites and n_writes = ref (List.length first.fwrites) in
  for i = from to Array.length per_tb - 1 do
    join_into reads n_reads per_tb.(i).freads;
    join_into writes n_writes per_tb.(i).fwrites
  done;
  { freads = !reads; fwrites = !writes }

let whole per_tb =
  match Array.length per_tb with 0 -> no_access | _ -> join_from per_tb.(0) per_tb ~from:1

(* The join of [at a tb] over TBs [0, n).  Both endpoints are monotone in
   the TB, so TBs 0 and n-1 hold the extremes.  The running join settles to
   the gcd of the stride and of every low end's distance from TB 0's:
   [|scale|] times the gcd of the floor term's steps.  Each step is
   [q = floor (coef / den)] or [q + 1], so that gcd is [|q|] when no step
   is [q + 1], [|q + 1|] when all are, and 1 otherwise; the floor term's
   rise over the TBs counts the [q + 1] steps. *)
let span n a =
  if n = 1 || a.coef = 0 then a.base
  else
    let last = at a (n - 1) in
    let q = fdiv a.coef a.den in
    let ups = fdiv (a.lo_rem + (a.coef * (n - 1))) a.den - ((n - 1) * q) in
    let steps = if ups = 0 then abs q else if ups = n - 1 then abs (q + 1) else 1 in
    Sinterval.make
      ~lo:(min a.base.Sinterval.lo last.Sinterval.lo)
      ~hi:(max a.base.Sinterval.hi last.Sinterval.hi)
      ~stride:(gcd a.base.Sinterval.stride (abs a.scale * steps))

let whole_summary s =
  let side accs = Array.fold_right (fun a l -> span s.s_affine a :: l) accs [] in
  join_from { freads = side s.s_reads; fwrites = side s.s_writes } s.s_tail ~from:0

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

(* Both counts of one ctaid projection from a single trip vector, with the
   reference's arithmetic and order, so the floats match it bit for bit. *)
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
  for i = 0 to Array.length body - 1 do
    match body.(i) with Label _ -> () | I _ -> insts := !insts +. mult.(i)
  done;
  let mem =
    List.fold_left
      (fun acc (a : Symeval.access) -> acc +. List.fold_left (fun m cid -> m *. List.assoc cid trips) 1.0 a.aloops)
      0.0 r.accesses
  in
  (!insts, mem)

type counts = {
  c_radix : dim3;
  c_insts : float array;
  c_mem : float array;
}

let counts (r : Symeval.result) launch =
  match r.counters with
  | [] ->
    (* Every multiplier is 1.0 (an access's loops are counters), and a sum
       of 1.0s is exact: the counts are the kernel's instruction and
       access counts. *)
    {
      c_radix = dim3 1;
      c_insts = [| float_of_int (instr_count r.kernel.kbody) |];
      c_mem = [| float_of_int (List.length r.accesses) |];
    }
  | _ :: _ ->
    let ux, uy, uz = counter_ctaid_axes r in
    let g = launch.grid in
    (* The radix of an axis no counter reads is 1: row [key] is a mixed-radix
       index of the ctaid projected onto the axes read, evaluated with 0 on
       the others (their value reads no trip count). *)
    let rx = if ux then g.dx else 1 and ry = if uy then g.dy else 1 and rz = if uz then g.dz else 1 in
    let rows = rx * ry * rz in
    let insts = Array.make rows 0.0 and mem = Array.make rows 0.0 in
    for key = 0 to rows - 1 do
      let i, m = counts_at r launch { dx = key mod rx; dy = key / rx mod ry; dz = key / (rx * ry) } in
      insts.(key) <- i;
      mem.(key) <- m
    done;
    { c_radix = { dx = rx; dy = ry; dz = rz }; c_insts = insts; c_mem = mem }
