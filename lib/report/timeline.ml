module Stats = Bm_gpu.Stats

type kernel_span = {
  ks_kernel : int;
  ks_first_start : float;
  ks_last_finish : float;
  ks_tbs : int;
}

(* A kernel with no TBs has no extent and gets no row. *)
let spans (s : Stats.t) =
  let rows = ref [] in
  for k = Array.length s.Stats.tb_start - 1 downto 0 do
    let starts = s.Stats.tb_start.(k) in
    if Array.length starts > 0 then
      rows :=
        {
          ks_kernel = k;
          ks_first_start = Array.fold_left min infinity starts;
          ks_last_finish = Array.fold_left max 0.0 s.Stats.tb_finish.(k);
          ks_tbs = Array.length starts;
        }
        :: !rows
  done;
  Array.of_list !rows

let ascii ?(width = 72) ?(max_rows = 24) (s : Stats.t) =
  let sp = spans s in
  let total = max s.Stats.total_us 1e-9 in
  let buf = Buffer.create 4096 in
  let col t = min (width - 1) (max 0 (int_of_float (t /. total *. float_of_int width))) in
  let n = Array.length sp in
  (* Select rows: all if they fit, else head and tail with an ellipsis. *)
  let rows =
    if n <= max_rows then Array.to_list (Array.mapi (fun i _ -> i) sp)
    else
      let head = max_rows / 2 and tail = max_rows - (max_rows / 2) - 1 in
      List.init head (fun i -> i) @ [ -1 ] @ List.init tail (fun i -> n - tail + i)
  in
  Buffer.add_string buf (Printf.sprintf "timeline: %.2f us total, %d kernels\n" total n);
  List.iter
    (fun i ->
      if i < 0 then Buffer.add_string buf (Printf.sprintf "  ...   |%s|\n" (String.make width ' '))
      else begin
        let k = sp.(i) in
        let line = Bytes.make width ' ' in
        let c0 = col k.ks_first_start and c1 = col k.ks_last_finish in
        for c = c0 to c1 do
          Bytes.set line c '#'
        done;
        Buffer.add_string buf
          (Printf.sprintf "k%-4d %5d TB |%s|\n" k.ks_kernel k.ks_tbs (Bytes.to_string line))
      end)
    rows;
  (* Occupancy track: running TB count per column, quantized to 0-9. *)
  let occupancy = Array.make width 0.0 in
  Array.iteri
    (fun k starts ->
      Array.iteri
        (fun tb start ->
          for c = col start to col s.Stats.tb_finish.(k).(tb) do
            occupancy.(c) <- occupancy.(c) +. 1.0
          done)
        starts)
    s.Stats.tb_start;
  let peak = Array.fold_left max 1.0 occupancy in
  let track =
    String.init width (fun c ->
        let level = int_of_float (occupancy.(c) /. peak *. 9.0) in
        if occupancy.(c) = 0.0 then ' ' else Char.chr (Char.code '0' + min 9 level))
  in
  Buffer.add_string buf
    (Printf.sprintf "TBs active per column (max %d)|%s|\n" (int_of_float peak) track);
  Buffer.contents buf

let csv (s : Stats.t) =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "kernel,tb,dep_ready,start,finish\n";
  Array.iteri
    (fun k starts ->
      Array.iteri
        (fun tb start ->
          Buffer.add_string buf
            (Printf.sprintf "%d,%d,%.4f,%.4f,%.4f\n" k tb s.Stats.tb_dep_ready.(k).(tb) start
               s.Stats.tb_finish.(k).(tb)))
        starts)
    s.Stats.tb_start;
  Buffer.contents buf
