type t =
  | Baseline
  | Ideal
  | Prelaunch_only
  | Producer_priority
  | Consumer_priority of int
  | Deadline_edf of int

type policy = Oldest_first | Newest_first | Edf

let window = function
  | Baseline | Ideal -> 1
  | Prelaunch_only | Producer_priority -> 2
  | Consumer_priority w | Deadline_edf w -> max 2 w

let fine_grain = function
  | Baseline | Ideal | Prelaunch_only -> false
  | Producer_priority | Consumer_priority _ | Deadline_edf _ -> true

let reorders = function
  | Baseline | Ideal -> false
  | Prelaunch_only | Producer_priority | Consumer_priority _ | Deadline_edf _ -> true

let by_class f =
  let plain = lazy (f ~reorder:false) and reordered = lazy (f ~reorder:true) in
  fun mode -> Lazy.force (if reorders mode then reordered else plain)

let serial_commands = function
  | Baseline | Ideal -> true
  | Prelaunch_only | Producer_priority | Consumer_priority _ | Deadline_edf _ -> false

let policy = function
  | Baseline | Ideal | Prelaunch_only | Producer_priority -> Oldest_first
  | Consumer_priority _ -> Newest_first
  | Deadline_edf _ -> Edf

let launch_overhead (cfg : Bm_gpu.Config.t) = function
  | Ideal -> 0.0
  | Baseline | Prelaunch_only | Producer_priority | Consumer_priority _ | Deadline_edf _ ->
    cfg.Bm_gpu.Config.kernel_launch_us

let name = function
  | Baseline -> "baseline"
  | Ideal -> "ideal"
  | Prelaunch_only -> "kernel-pre-launching"
  | Producer_priority -> "producer-priority"
  | Consumer_priority w -> Printf.sprintf "consumer-priority-%dk" w
  | Deadline_edf w -> Printf.sprintf "deadline-edf-%dk" w

(* Stable short names for command-line parsing, shared by bmctl and the
   bench harness so the two never drift. *)
let known =
  [
    ("baseline", Baseline);
    ("ideal", Ideal);
    ("prelaunch", Prelaunch_only);
    ("producer", Producer_priority);
    ("consumer2", Consumer_priority 2);
    ("consumer3", Consumer_priority 3);
    ("consumer4", Consumer_priority 4);
    ("edf2", Deadline_edf 2);
    ("edf3", Deadline_edf 3);
    ("edf4", Deadline_edf 4);
  ]

let short_name mode =
  match List.find_opt (fun (_, m) -> m = mode) known with Some (s, _) -> s | None -> name mode

let of_string s =
  match List.assoc_opt s known with
  | Some m -> Some m
  | None ->
    (* Also accept the long display names, so any mode string a tool ever
       printed parses back ([name] and the short table round-trip both
       ways). *)
    List.find_map (fun (_, m) -> if name m = s then Some m else None) known

let all_fig9 =
  [
    Baseline;
    Prelaunch_only;
    Producer_priority;
    Consumer_priority 2;
    Consumer_priority 3;
    Consumer_priority 4;
    Ideal;
  ]

let pp ppf t = Format.pp_print_string ppf (name t)
