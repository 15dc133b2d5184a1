type t = { lo : int; hi : int; stride : int }

let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)

let make ~lo ~hi ~stride =
  if lo > hi then invalid_arg "Sinterval.make: lo > hi";
  if stride < 0 then invalid_arg "Sinterval.make: negative stride";
  if lo = hi || stride = 0 then { lo; hi = lo; stride = 0 }
  else
    let span = hi - lo in
    let hi = lo + (span / stride * stride) in
    (* A stride longer than the span leaves a single point; canonicalize it
       so every value set has exactly one representation ([make] is then a
       fixed point, which the disk store's decode round-trip relies on). *)
    if hi = lo then { lo; hi; stride = 0 } else { lo; hi; stride }

let singleton n = { lo = n; hi = n; stride = 0 }

let range lo hi = make ~lo ~hi ~stride:1

let mem n t =
  n >= t.lo && n <= t.hi && (t.stride = 0 || (n - t.lo) mod t.stride = 0)

let count t = if t.stride = 0 then 1 else ((t.hi - t.lo) / t.stride) + 1

let add a b =
  let stride =
    if a.stride = 0 then b.stride else if b.stride = 0 then a.stride else gcd a.stride b.stride
  in
  make ~lo:(a.lo + b.lo) ~hi:(a.hi + b.hi) ~stride

let shift t d = if d = 0 then t else { lo = t.lo + d; hi = t.hi + d; stride = t.stride }

let neg a =
  make ~lo:(-a.hi) ~hi:(-a.lo) ~stride:a.stride

let sub a b = add a (neg b)

let mul_const a c =
  if c = 0 then singleton 0
  else if c > 0 then make ~lo:(a.lo * c) ~hi:(a.hi * c) ~stride:(a.stride * c)
  else make ~lo:(a.hi * c) ~hi:(a.lo * c) ~stride:(a.stride * abs c)

let mul a b =
  if a.stride = 0 then mul_const b a.lo
  else if b.stride = 0 then mul_const a b.lo
  else begin
    (* Both proper ranges: take the corner extrema, collapse stride to the
       gcd of the cross terms (sound but coarse). *)
    let p1 = a.lo * b.lo and p2 = a.lo * b.hi and p3 = a.hi * b.lo and p4 = a.hi * b.hi in
    let lo = min (min p1 p2) (min p3 p4) and hi = max (max p1 p2) (max p3 p4) in
    let stride = gcd (gcd (a.stride * b.lo) (a.stride * b.stride)) (b.stride * a.lo) in
    let stride = if stride = 0 then 1 else abs stride in
    make ~lo ~hi ~stride
  end

let floor_div x y = if x >= 0 then x / y else -(((-x) + y - 1) / y)

let div_const a c =
  if c = 0 then invalid_arg "Sinterval.div_const: zero";
  let c' = abs c in
  let lo = floor_div a.lo c' and hi = floor_div a.hi c' in
  let stride = if a.stride mod c' = 0 && a.lo mod c' = 0 then a.stride / c' else 1 in
  let stride = if lo = hi then 0 else max stride 1 in
  let i = make ~lo ~hi ~stride:(if lo = hi then 0 else stride) in
  if c > 0 then i else neg i

let rem_const a c =
  if c = 0 then invalid_arg "Sinterval.rem_const: zero";
  let c' = abs c in
  if a.lo >= 0 && a.hi < c' then a
  else if a.lo >= 0 then begin
    (* Residues stay congruent to [a.lo] modulo gcd(stride, c'), so anchor
       the strided result at [a.lo mod g] rather than 0. *)
    let g = gcd a.stride c' in
    let g = if g = 0 then 1 else g in
    make ~lo:(a.lo mod g) ~hi:(c' - 1) ~stride:g
  end
  else make ~lo:(-(c' - 1)) ~hi:(c' - 1) ~stride:1

let shl a k = mul_const a (1 lsl k)

let shr a k =
  if a.lo >= 0 then div_const a (1 lsl k)
  else make ~lo:(floor_div a.lo (1 lsl k)) ~hi:(floor_div a.hi (1 lsl k)) ~stride:1

let join a b =
  if a.lo = b.lo && a.hi = b.hi && a.stride = b.stride then a
  else
    let lo = min a.lo b.lo and hi = max a.hi b.hi in
    let stride = gcd (gcd a.stride b.stride) (abs (a.lo - b.lo)) in
    let stride = if lo = hi then 0 else if stride = 0 then 1 else stride in
    make ~lo ~hi ~stride

let min_ a b =
  make ~lo:(min a.lo b.lo) ~hi:(min a.hi b.hi)
    ~stride:(if min a.lo b.lo = min a.hi b.hi then 0 else 1)

let max_ a b =
  make ~lo:(max a.lo b.lo) ~hi:(max a.hi b.hi)
    ~stride:(if max a.lo b.lo = max a.hi b.hi then 0 else 1)

(* Membership in [lo, hi] on the grid [lo + k * stride] ([stride = 0]: the
   point [lo]). *)
let on_grid x ~lo ~hi ~stride = x >= lo && x <= hi && (stride = 0 || (x - lo) mod stride = 0)

let meets ~lo ~hi ~stride b =
  lo <= hi
  &&
  (* [make ~lo ~hi ~stride]'s normal form, field by field. *)
  let hi = if stride = 0 then lo else lo + ((hi - lo) / stride * stride) in
  let stride = if hi = lo then 0 else stride in
  let lo' = max lo b.lo and hi' = min hi b.hi in
  if lo' > hi' then false
  else if stride = 0 then mem lo b
  else if b.stride = 0 then on_grid b.lo ~lo ~hi ~stride
  else begin
    (* Solve x ≡ lo (mod s1), x ≡ b.lo (mod s2), lo' <= x <= hi'.  The
       extended Euclid runs as a loop keeping only the coefficient [p] of
       [s1] in [p * s1 + q * s2 = g]: nothing is allocated. *)
    let s1 = stride and s2 = b.stride in
    let r0 = ref s1 and r1 = ref s2 and x0 = ref 1 and x1 = ref 0 in
    while !r1 <> 0 do
      let q = !r0 / !r1 in
      let r = !r0 - (q * !r1) and x = !x0 - (q * !x1) in
      r0 := !r1;
      r1 := r;
      x0 := !x1;
      x1 := x
    done;
    let g = !r0 and p = !x0 in
    let diff = b.lo - lo in
    if diff mod g <> 0 then false
    else begin
      let l = s1 / g * s2 in
      (* x0 = lo + s1 * ((diff/g * p) mod (s2/g)) is a solution. *)
      let m = s2 / g in
      let k = (diff / g * p) mod m in
      let k = if k < 0 then k + m else k in
      let x0 = lo + (s1 * k) in
      (* Smallest solution >= lo'. *)
      let delta = lo' - x0 in
      let steps = if delta <= 0 then 0 else (delta + l - 1) / l in
      let x = x0 + (steps * l) in
      x >= lo' && x <= hi' && on_grid x ~lo ~hi ~stride && mem x b
    end
  end

let intersects a b = meets ~lo:a.lo ~hi:a.hi ~stride:a.stride b

let subset a b =
  if a.lo < b.lo || a.hi > b.hi then false
  else if a.stride = 0 then mem a.lo b
  else if b.stride = 0 then a.lo = b.lo && a.hi = b.hi
  else mem a.lo b && a.stride mod b.stride = 0

let pp ppf t =
  if t.stride = 0 then Format.fprintf ppf "{%d}" t.lo
  else Format.fprintf ppf "[%d..%d /%d]" t.lo t.hi t.stride

let to_string t = Format.asprintf "%a" pp t

let equal a b = a.lo = b.lo && a.hi = b.hi && a.stride = b.stride
