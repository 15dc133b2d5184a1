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
