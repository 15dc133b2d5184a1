(* Exact simulated outputs at the default seed: per-(app, mode)
   [Stats.total_us] as IEEE-754 bit patterns (reference.json).

   BENCH_0.json prints cycles with %.12g, so comparing against it can only
   ever be approximate; this file is the bit-exact reference the ledger
   checks outputs against, and [bench0_mismatches] ties it back to the
   committed trajectory to 1e-9 relative. *)

module Json = Bm_metrics.Json
module Jsonc = Bm_maestro.Jsonc

let schema = "bm.ledger.reference/1"

type entry = { app : string; mode : string; total_us : float }
type t = { seed : int; entries : entry list }

let find t ~app ~mode =
  List.find_map (fun e -> if e.app = app && e.mode = mode then Some e.total_us else None) t.entries

let to_json t =
  Json.Obj
    [
      ("schema", Json.Str schema);
      ("seed", Json.Num (float_of_int t.seed));
      ( "entries",
        Json.Arr
          (List.map
             (fun e ->
               Json.Obj
                 [
                   ("app", Json.Str e.app);
                   ("mode", Json.Str e.mode);
                   ("total_us", Jsonc.json_of_float e.total_us);
                   (* Display only; the bit pattern above is the reference. *)
                   ("approx_us", Json.Num e.total_us);
                 ])
             t.entries) );
    ]

let of_json j =
  let what = "reference" in
  match
    if Jsonc.str_field ~what "schema" j <> schema then Jsonc.bad "%s: unknown schema" what;
    let entries =
      List.map
        (fun e ->
          {
            app = Jsonc.str_field ~what "app" e;
            mode = Jsonc.str_field ~what "mode" e;
            total_us = Jsonc.float_of_json ~what:"total_us" (Jsonc.field ~what "total_us" e);
          })
        (Jsonc.list_of_json ~what (Jsonc.field ~what "entries" j))
    in
    { seed = Jsonc.int_field ~what "seed" j; entries }
  with
  | t -> Ok t
  | exception Jsonc.Bad msg -> Error msg

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> Ok s
  | exception Sys_error msg -> Error msg

let load path = Result.bind (read_file path) (fun s -> Result.bind (Json.of_string s) of_json)

let save path t =
  Out_channel.with_open_bin path (fun oc -> output_string oc (Json.to_string ~pretty:true (to_json t)))

(* Every (app, mode) cycle count in a BENCH trajectory file must be the
   reference's total_us converted exactly as Benchrun.cycles_of does. *)
let bench0_mismatches ~clock_ghz t bench =
  let num name j = Option.bind (Json.member name j) Json.to_float in
  let str name j = Option.bind (Json.member name j) Json.to_str in
  let list name j = Option.value ~default:[] (Option.bind (Json.member name j) Json.to_list) in
  List.concat_map
    (fun a ->
      let app = Option.value ~default:"?" (str "app" a) in
      List.filter_map
        (fun m ->
          let mode = Option.value ~default:"?" (str "mode" m) in
          match (num "cycles" m, find t ~app ~mode) with
          | None, _ -> Some (Printf.sprintf "%s/%s: no cycles field" app mode)
          | Some _, None -> Some (Printf.sprintf "%s/%s: not in the reference" app mode)
          | Some cycles, Some us ->
            let exact = us *. clock_ghz *. 1000.0 in
            if Float.abs (exact -. cycles) <= 1e-9 *. Float.abs cycles then None
            else Some (Printf.sprintf "%s/%s: %.12g cycles vs %.17g" app mode cycles exact))
        (list "modes" a))
    (list "apps" bench)
