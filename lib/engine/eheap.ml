(* Allocation-free binary min-heap over (float key, int seq) with an int
   payload.  The three parallel arrays only grow; stale slots need no
   clearing because ints and floats hold no pointers (the space-leak class
   fixed in Heap for boxed entries cannot occur here).

   Neither [insert] nor [pop_into] swaps entries: the entry being placed
   stays in locals while parents (on the way up) or children (on the way
   down) shift into the hole, so each array is written once per level and
   the entry itself once at the end. *)

type t = {
  mutable keys : float array;
  mutable seqs : int array;
  mutable evs : int array;
  mutable size : int;
  mutable next_seq : int;
}

let initial_capacity = 256

let create () =
  {
    keys = Array.make initial_capacity 0.0;
    seqs = Array.make initial_capacity 0;
    evs = Array.make initial_capacity 0;
    size = 0;
    next_seq = 0;
  }

let is_empty t = t.size = 0
let size t = t.size

let grow t =
  let cap = Array.length t.keys in
  let cap' = 2 * cap in
  let keys' = Array.make cap' 0.0 in
  let seqs' = Array.make cap' 0 in
  let evs' = Array.make cap' 0 in
  Array.blit t.keys 0 keys' 0 t.size;
  Array.blit t.seqs 0 seqs' 0 t.size;
  Array.blit t.evs 0 evs' 0 t.size;
  t.keys <- keys';
  t.seqs <- seqs';
  t.evs <- evs'

(* Move slot [src] into the hole at [dst]. *)
let[@inline] shift (keys : float array) (seqs : int array) (evs : int array) ~src ~dst =
  keys.(dst) <- keys.(src);
  seqs.(dst) <- seqs.(src);
  evs.(dst) <- evs.(src)

let[@inline] insert t key ev =
  if t.size = Array.length t.keys then grow t;
  let keys = t.keys and seqs = t.seqs and evs = t.evs in
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let i = ref t.size in
  t.size <- t.size + 1;
  (* [seq] is larger than every sequence number in the heap, so the new
     entry passes a parent only on a strictly smaller key. *)
  let rising = ref true in
  while !rising && !i > 0 do
    let p = (!i - 1) lsr 1 in
    if key < keys.(p) then begin
      shift keys seqs evs ~src:p ~dst:!i;
      i := p
    end
    else rising := false
  done;
  keys.(!i) <- key;
  seqs.(!i) <- seq;
  evs.(!i) <- ev

let push t key ev = insert t key ev
let push_at t at ev = insert t at.(0) ev

(* Floyd's bottom-up pop: sink the root's hole to a leaf along the smaller
   child (one comparison per level), then sift the former last entry up
   from there.  That entry is usually a late timestamp, so it rarely rises
   far, and the pop costs about half the comparisons of a top-down sift.

   While both children exist the smaller one is a computed index, not a
   data-dependent branch: at ~900 live events each level's choice is a
   coin flip a branch predictor loses.  Only equal keys, rare and well
   predicted, fall back to [seqs].  The choice is the same function of
   (key, seq) as [r] if [kr < kl || (kr = kl && sr < sl)], NaN and
   ±0.0 included.  A lone left child can occur only on the last level,
   so it is taken once, after the loop. *)
let pop_into t at =
  if t.size = 0 then invalid_arg "Eheap.pop_into: empty";
  let keys = t.keys and seqs = t.seqs and evs = t.evs in
  at.(0) <- keys.(0);
  let ev = evs.(0) in
  let last = t.size - 1 in
  t.size <- last;
  if last > 0 then begin
    let lk = keys.(last) and ls = seqs.(last) and le = evs.(last) in
    let i = ref 0 and l = ref 1 in
    while !l + 1 < last do
      let l0 = !l in
      let kl = keys.(l0) and kr = keys.(l0 + 1) in
      let m =
        if kr = kl then l0 + Bool.to_int (seqs.(l0 + 1) < seqs.(l0))
        else l0 + Bool.to_int (kr < kl)
      in
      shift keys seqs evs ~src:m ~dst:!i;
      i := m;
      l := (2 * m) + 1
    done;
    if !l < last then begin
      shift keys seqs evs ~src:!l ~dst:!i;
      i := !l
    end;
    let rising = ref true in
    while !rising && !i > 0 do
      let p = (!i - 1) lsr 1 in
      let kp = keys.(p) in
      if lk < kp || (lk = kp && ls < seqs.(p)) then begin
        shift keys seqs evs ~src:p ~dst:!i;
        i := p
      end
      else rising := false
    done;
    keys.(!i) <- lk;
    seqs.(!i) <- ls;
    evs.(!i) <- le
  end;
  ev
