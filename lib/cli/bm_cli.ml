open Blockmaestro
open Cmdliner

let exit_io_error = 2
let prog () = Filename.remove_extension (Filename.basename Sys.executable_name)

(* Plain decimal digits only: int_of_string also reads 0x10, 0b1, 1_4 and
   a sign. *)
let decimal s =
  if s <> "" && String.for_all (fun c -> c >= '0' && c <= '9') s then int_of_string_opt s
  else None

let int_conv ~min =
  let parse s =
    match decimal s with
    | Some n when n >= min -> Ok n
    | Some _ | None -> Error (`Msg (Printf.sprintf "expected a decimal integer >= %d, got %S" min s))
  in
  Arg.conv (parse, Format.pp_print_int)

(* Trimmed, so a list conv over it accepts "1500, 2000". *)
let deadline_conv =
  let parse s =
    match float_of_string_opt (String.trim s) with
    | Some d when Float.is_finite d && d > 0.0 -> Ok d
    | Some _ | None ->
      Error
        (`Msg (Printf.sprintf "a deadline must be a positive, finite number of microseconds, got %S" s))
  in
  Arg.conv (parse, Format.pp_print_float)

let jobs =
  let arg =
    Arg.(
      value
      & opt (some (int_conv ~min:1)) None
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Domain-pool width for independent tasks (default: $(b,BM_JOBS), else available cores \
             capped at 8).  Output is identical for any $(docv); 1 forces the sequential path.")
  in
  Term.(const (Option.iter Parallel.set_default_jobs) $ arg)

let mode_conv =
  let parse s =
    match Mode.of_string s with
    | Some m -> Ok m
    | None ->
      Error
        (`Msg
          (Printf.sprintf "unknown mode %S (try: %s)" s
             (String.concat ", " (List.map fst Mode.known))))
  in
  Arg.conv (parse, fun ppf m -> Format.pp_print_string ppf (Mode.name m))

let mode_info doc = Arg.info [ "m"; "mode" ] ~docv:"MODE" ~doc

let mode ?(doc = "Execution mode.") () =
  Arg.(value & opt mode_conv Mode.Producer_priority & mode_info doc)

let modes ?(doc = "Execution mode(s); repeat for a sweep (default: producer).") ~default () =
  Term.(
    const (function [] -> default | ms -> ms) $ Arg.(value & opt_all mode_conv [] & mode_info doc))

let write_file file data =
  match Out_channel.with_open_bin file (fun oc -> Out_channel.output_string oc data) with
  | () -> Printf.eprintf "wrote %s (%d bytes)\n" file (String.length data)
  | exception Sys_error msg ->
    Printf.eprintf "%s: cannot write: %s\n" (prog ()) msg;
    exit exit_io_error
