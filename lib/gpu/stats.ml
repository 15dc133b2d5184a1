(* Structured simulation events.  The simulator emits these through an
   optional sink; the type lives here (not in bm_report) so both the
   simulator and the trace collector can see it without a dependency
   cycle. *)
type event =
  | Kernel_enqueue of { seq : int; stream : int; tbs : int }
  | Kernel_launched of { seq : int; stream : int }
  | Kernel_drained of { seq : int; stream : int }
  | Kernel_completed of { seq : int; stream : int }
  | Tb_dispatch of { seq : int; tb : int }
  | Tb_finish of { seq : int; tb : int }
  | Dep_satisfied of { seq : int; tb : int }
  | Copy_start of { cmd : int; bytes : int; d2h : bool; blocking : bool }
  | Copy_finish of { cmd : int; bytes : int; d2h : bool; blocking : bool }
  | Dlb_spill of { seq : int; needed : int; capacity : int }
  | Pcb_spill of { seq : int; needed : int; capacity : int }
  | Tb_columns of {
      seq : int;
      dep_ready : float array;
      start : float array;
      finish : float array;
      order : Bytes.t;
      order_at : int;
    }

type sink = float -> event -> unit

let event_name = function
  | Kernel_enqueue _ -> "kernel_enqueue"
  | Kernel_launched _ -> "kernel_launched"
  | Kernel_drained _ -> "kernel_drained"
  | Kernel_completed _ -> "kernel_completed"
  | Tb_dispatch _ -> "tb_dispatch"
  | Tb_finish _ -> "tb_finish"
  | Dep_satisfied _ -> "dep_satisfied"
  | Copy_start _ -> "copy_start"
  | Copy_finish _ -> "copy_finish"
  | Dlb_spill _ -> "dlb_spill"
  | Pcb_spill _ -> "pcb_spill"
  | Tb_columns _ -> "tb_columns"

type t = {
  total_us : float;
  busy_us : float;
  tb_dep_ready : float array array;
  tb_start : float array array;
  tb_finish : float array array;
  avg_concurrency : float;
  base_mem_requests : float;
  dep_mem_requests : float;
}

let tb_count t = Array.fold_left (fun acc col -> acc + Array.length col) 0 t.tb_start

let stall_fractions t =
  let out = Array.make (tb_count t) 0.0 and n = ref 0 in
  Array.iteri
    (fun k starts ->
      let finish = t.tb_finish.(k) and dep_ready = t.tb_dep_ready.(k) in
      for tb = 0 to Array.length starts - 1 do
        let dur = finish.(tb) -. starts.(tb) in
        if dur > 0.0 then begin
          out.(!n) <- max 0.0 (starts.(tb) -. dep_ready.(tb)) /. dur;
          incr n
        end
      done)
    t.tb_start;
  Array.sub out 0 !n

let speedup ~baseline t = baseline.total_us /. t.total_us

let mem_overhead_pct t =
  if t.base_mem_requests <= 0.0 then 0.0
  else 100.0 *. t.dep_mem_requests /. t.base_mem_requests

let busy_concurrency t =
  if t.busy_us <= 0.0 then 0.0 else t.avg_concurrency *. t.total_us /. t.busy_us
