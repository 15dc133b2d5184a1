open Blockmaestro
open Cmdliner

let exit_io_error = 2
let prog () = Filename.remove_extension (Filename.basename Sys.executable_name)

let pos_int_conv flag =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | Some _ | None -> Error (`Msg (Printf.sprintf "%s expects a positive integer, got %S" flag s))
  in
  Arg.conv (parse, Format.pp_print_int)

let jobs =
  let arg =
    Arg.(
      value
      & opt (some (pos_int_conv "--jobs")) None
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Domain-pool width for independent tasks (default: $(b,BM_JOBS), else available cores \
             capped at 8).  Output is identical for any $(docv); 1 forces the sequential path.")
  in
  Term.(const (Option.iter Parallel.set_default_jobs) $ arg)

(* The directory is validated once up front (an unusable path is an I/O
   error); parallel tasks then open their own per-domain handles
   best-effort, so a directory that turns read-only mid-run degrades to
   write-error counters, never a crash. *)
let cache_dir_env =
  Cmd.Env.info "BM_CACHE_DIR" ~doc:"Default directory for the persistent analysis cache."

let check_cache_dir = function
  | None -> ()
  | Some dir -> (
    match Store.open_dir dir with
    | Ok _ -> ()
    | Error msg ->
      Printf.eprintf "%s: cannot open cache directory: %s\n" (prog ()) msg;
      exit exit_io_error)

let cache_dir =
  let arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache-dir" ] ~docv:"DIR" ~env:cache_dir_env
          ~doc:
            "Persist the launch-time analysis artifacts (footprints, cost profiles, rw-sets, \
             pair relations) under $(docv), keyed by structural kernel fingerprint, so later \
             runs — including other processes — start disk-warm.  Stale or corrupt entries \
             read as misses and are rewritten; results are always cycle-identical to a cold \
             run.  An unusable directory exits 2.")
  in
  Term.(const (fun dir -> check_cache_dir dir; dir) $ arg)

let backend =
  Arg.(
    value
    & opt (enum [ ("sim", `Sim); ("replay", `Replay) ]) `Sim
    & info [ "backend" ] ~docv:"BACKEND"
        ~doc:
          "Execution engine: $(b,sim) prepares and runs the command-queue simulator, \
           $(b,replay) captures the app into a compiled graph and replays it event-triggered. \
           Results, and therefore traces and attribution, are cycle-exact identical.")

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
