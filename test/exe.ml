(* The built front ends the integration tests shell out to.  Under [dune
   runtest] the cwd is the build context's test/ directory; under [dune
   exec test/test_main.exe] it is the workspace root. *)

let path rel = if Sys.file_exists ("../" ^ rel) then "../" ^ rel else "_build/default/" ^ rel

let bmctl_exe = path "bin/bmctl.exe"
let bench_exe = path "bench/main.exe"

(* Run [exe args] and return its exit status; stderr is discarded, and so
   is stdout unless [stdout] names a file. *)
let run exe ?(stdout = "/dev/null") args =
  Sys.command (Filename.quote_command exe ~stdout ~stderr:"/dev/null" args)

let bmctl ?stdout args = run bmctl_exe ?stdout args
let bench ?stdout args = run bench_exe ?stdout args

(* The words [exe args] allocates over its whole run, as the OCaml runtime
   reports them at exit under [OCAMLRUNPARAM=v=0x400]; [None] if the run
   fails or prints no count. *)
let allocated_words exe args =
  let err = Filename.temp_file "bm_alloc" ".txt" in
  let cmd = Filename.quote_command exe ~stdout:"/dev/null" ~stderr:err args in
  let status = Sys.command ("OCAMLRUNPARAM=v=0x400 " ^ cmd) in
  let words =
    In_channel.with_open_text err In_channel.input_all
    |> String.split_on_char '\n'
    |> List.find_map (fun l -> Scanf.sscanf_opt l "allocated_words: %d" Fun.id)
  in
  Sys.remove err;
  if status = 0 then words else None
