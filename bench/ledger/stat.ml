(* Order statistics for the ledger and its comparison tool.

   Quartiles follow Python's [statistics.quantiles(xs, n=4)] (the default
   "exclusive" method) bit for bit, so a spread computed here and one
   computed by an external script over the same runs agree. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Linear interpolation between the closest ranks; [percentile 50.] is the
   median (the mean of the middle pair for an even count). *)
let percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stat.percentile: no samples";
  let r = p /. 100.0 *. float_of_int (n - 1) in
  let i = int_of_float (Float.floor r) in
  if i >= n - 1 then a.(n - 1) else a.(i) +. ((r -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = percentile 50.0 xs

let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld < 2 then invalid_arg "Stat.quartiles: needs at least two samples";
  let m = ld + 1 in
  let q i =
    let j = max 1 (min (ld - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
  in
  (q 1, q 2, q 3)

(* Interquartile distance as a share of the median: the run-to-run spread
   the comparison tool holds against each metric's bound.  A single run has
   no measured spread and reads as 0. *)
let spread xs =
  match xs with
  | [] | [ _ ] -> 0.0
  | _ ->
    let q1, _, q3 = quartiles xs in
    let m = median xs in
    if m = 0.0 then (if q3 = q1 then 0.0 else infinity) else Float.abs ((q3 -. q1) /. m)

(* The highest reportable tail percentile: at least ten samples must lie
   beyond it.  Candidates are in tenths of a percent so the test is exact
   integer arithmetic ([n * (1000 - p) >= 10 * 1000]). *)
let tail_candidates = [ 999; 990; 950; 900; 750; 500 ]

let reportable_percentile n =
  List.find_opt (fun p -> n * (1000 - p) >= 10_000) tail_candidates
  |> Option.map (fun p -> float_of_int p /. 10.0)

(* Metric names: a leading letter or digit, then letters, digits, '_', '.'
   and '-', at most 64 characters. *)
let valid_name s =
  let ok_char = function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false in
  let n = String.length s in
  n > 0 && n <= 64
  && (match s.[0] with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true | _ -> false)
  && String.for_all ok_char s
