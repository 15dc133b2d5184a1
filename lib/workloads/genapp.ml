module Rng = Bm_engine.Rng
module Command = Bm_gpu.Command

type body = Map | Stencil of { halo : int }

type kspec = {
  k_body : body;
  k_work : int;
  k_grid : int;
  k_sync_after : bool;
}

type spec = {
  g_name : string;
  g_block : int;
  g_chains : kspec list array;
}

(* The RNG draw order below reproduces the original test/test_trace.ml
   generator verbatim (streams; per stream the chain length; then per
   launch: grid, body coin, work, sync coin — in round-robin order), so
   seeds recorded before the promotion still replay the same apps. *)
let generate ?(max_streams = 2) ?(max_len = 5) ?(max_grid = 16) ?(block = 64) rng idx =
  let n_streams = 1 + Rng.int_below rng max_streams in
  let lens = Array.init n_streams (fun _ -> 1 + Rng.int_below rng max_len) in
  let chains = Array.map (fun _ -> ref []) lens in
  let next = Array.make n_streams 0 in
  let remaining = ref (Array.fold_left ( + ) 0 lens) in
  while !remaining > 0 do
    Array.iteri
      (fun s len ->
        if next.(s) < len then begin
          next.(s) <- next.(s) + 1;
          decr remaining;
          let grid = 1 + Rng.int_below rng max_grid in
          let body = if Rng.int_below rng 2 = 0 then Map else Stencil { halo = 1 } in
          let work = 1 + Rng.int_below rng 8 in
          let sync = Rng.int_below rng 5 = 0 in
          chains.(s) := { k_body = body; k_work = work; k_grid = grid; k_sync_after = sync }
                        :: !(chains.(s))
        end)
      lens
  done;
  {
    g_name = Printf.sprintf "rand%03d" idx;
    g_block = block;
    g_chains = Array.map (fun c -> List.rev !c) chains;
  }

let kernels spec = Array.fold_left (fun acc c -> acc + List.length c) 0 spec.g_chains

let kernel_of_kspec ~name ks =
  match ks.k_body with
  | Map -> Templates.map1 ~name ~work:ks.k_work
  | Stencil { halo } -> Templates.stencil1d ~name ~halo ~work:ks.k_work

let kname spec ~stream ~pos (ks : kspec) =
  let tag = match ks.k_body with Map -> "map" | Stencil _ -> "sten" in
  Printf.sprintf "%s_s%d_k%d_%s" spec.g_name stream pos tag

let build spec =
  let d = Dsl.create spec.g_name in
  let chains =
    Array.mapi
      (fun s chain ->
        let len = List.length chain in
        (* Each chain owns a ladder of len+1 disjoint buffers: kernel i
           reads bufs.(i), writes bufs.(i+1).  Buffers are sized for the
           chain's largest launch so every grid is in-bounds. *)
        let max_grid = List.fold_left (fun acc k -> max acc k.k_grid) 1 chain in
        let bufs = Array.init (len + 1) (fun _ -> Dsl.buffer d ~elems:(max_grid * spec.g_block)) in
        if len > 0 then Dsl.h2d d bufs.(0);
        (s, Array.of_list chain, bufs, ref 0))
      spec.g_chains
  in
  let remaining = ref (kernels spec) in
  while !remaining > 0 do
    Array.iter
      (fun (s, chain, bufs, next) ->
        if !next < Array.length chain then begin
          let i = !next in
          incr next;
          decr remaining;
          let ks = chain.(i) in
          let n = ks.k_grid * spec.g_block in
          let kernel = kernel_of_kspec ~name:(kname spec ~stream:s ~pos:i ks) ks in
          Dsl.launch d ~stream:s kernel ~grid:ks.k_grid ~block:spec.g_block
            ~args:
              [ ("n", Command.Int n); ("IN", Command.Buf bufs.(i)); ("OUT", Command.Buf bufs.(i + 1)) ];
          if ks.k_sync_after then Dsl.sync d
        end)
      chains
  done;
  Array.iter
    (fun (_, chain, bufs, _) ->
      if Array.length chain > 0 then Dsl.d2h d bufs.(Array.length chain))
    chains;
  Dsl.app d

type corun = {
  c_a : spec;
  c_b : spec;
  c_submission : [ `Fifo | `Round_robin | `Packed ];
  c_partition : (int * int) option;
}

let generate_corun ?(num_sms = 28) ?max_streams ?max_len ?(max_grid = 48) ?block rng idx =
  (* Two independent apps drawn back-to-back, then the co-run shape.  Draw
     order is part of the seed contract, like [generate].  The grid bound
     defaults higher than [generate]'s so small partitions (down to one SM
     = 32 TB slots) actually saturate their pools — slot contention is the
     behavior this axis exists to stress. *)
  let a = generate ?max_streams ?max_len ~max_grid ?block rng (2 * idx) in
  let b = generate ?max_streams ?max_len ~max_grid ?block rng ((2 * idx) + 1) in
  let a = { a with g_name = Printf.sprintf "corun%03da" idx } in
  let b = { b with g_name = Printf.sprintf "corun%03db" idx } in
  let c_submission =
    match Rng.int_below rng 3 with 0 -> `Fifo | 1 -> `Round_robin | _ -> `Packed
  in
  let c_partition =
    if Rng.int_below rng 2 = 0 then None
    else begin
      let sa = 1 + Rng.int_below rng (num_sms - 1) in
      Some (sa, num_sms - sa)
    end
  in
  { c_a = a; c_b = b; c_submission; c_partition }

(* ------------------------------------------------------------------ *)
(* Mixed-criticality deadline specs                                    *)
(* ------------------------------------------------------------------ *)

type criticality = Hard | Soft

type deadline_spec = {
  d_criticality : criticality;
  d_factor : float;
}

(* Deadlines are generated as {e factors} of the app's analytical
   minimum-makespan lower bound, not absolute ticks — this module never
   sees the cost model, so callers scale by
   [Bm_maestro.Deadline.min_makespan_us].  Hard specs are tight and may
   land below 1.0 (provably unmeetable, exercising admission rejection);
   soft specs are lax and should always be met. *)
let generate_deadline rng =
  if Rng.int_below rng 2 = 0 then
    { d_criticality = Hard; d_factor = 0.5 +. Rng.float_01 rng }
  else { d_criticality = Soft; d_factor = 2.0 +. (8.0 *. Rng.float_01 rng) }

type corun_deadlines = {
  cd_corun : corun;
  cd_a : deadline_spec;
  cd_b : deadline_spec;
}

(* The deadline draws come strictly after every [generate_corun] draw, so
   the co-run half of the seed contract is unchanged: for any seed,
   [cd_corun] is exactly what [generate_corun] alone would produce. *)
let generate_corun_deadlines ?num_sms ?max_streams ?max_len ?max_grid ?block rng idx =
  let c = generate_corun ?num_sms ?max_streams ?max_len ?max_grid ?block rng idx in
  let cd_a = generate_deadline rng in
  let cd_b = generate_deadline rng in
  { cd_corun = c; cd_a; cd_b }

let submission_tag = function `Fifo -> "fifo" | `Round_robin -> "rr" | `Packed -> "packed"

let kspec_to_string ks =
  Printf.sprintf "%s g%d w%d%s"
    (match ks.k_body with Map -> "map" | Stencil { halo } -> Printf.sprintf "sten%d" halo)
    ks.k_grid ks.k_work
    (if ks.k_sync_after then " +sync" else "")

let to_string spec =
  let chains =
    Array.to_list
      (Array.mapi
         (fun s c ->
           Printf.sprintf "s%d:[%s]" s (String.concat "; " (List.map kspec_to_string c)))
         spec.g_chains)
  in
  Printf.sprintf "%s block=%d %s" spec.g_name spec.g_block (String.concat " " chains)

let corun_to_string c =
  Printf.sprintf "%s %s | %s | %s"
    (match c.c_partition with
    | None -> "shared"
    | Some (sa, sb) -> Printf.sprintf "partitioned:%d+%d" sa sb)
    (submission_tag c.c_submission) (to_string c.c_a) (to_string c.c_b)

let to_ocaml spec =
  let b = Buffer.create 1024 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pf "(* %s *)\n" (to_string spec);
  pf "let app =\n";
  pf "  let d = Dsl.create %S in\n" spec.g_name;
  Array.iteri
    (fun s chain ->
      let len = List.length chain in
      let max_grid = List.fold_left (fun acc k -> max acc k.k_grid) 1 chain in
      pf "  (* stream %d: %d kernel(s) *)\n" s len;
      Array.iteri
        (fun i _ -> pf "  let b%d_%d = Dsl.buffer d ~elems:%d in\n" s i (max_grid * spec.g_block))
        (Array.make (len + 1) ());
      if len > 0 then pf "  Dsl.h2d d b%d_0;\n" s)
    spec.g_chains;
  let chains = Array.map Array.of_list spec.g_chains in
  let next = Array.make (Array.length chains) 0 in
  let remaining = ref (kernels spec) in
  while !remaining > 0 do
    Array.iteri
      (fun s chain ->
        if next.(s) < Array.length chain then begin
          let i = next.(s) in
          next.(s) <- next.(s) + 1;
          decr remaining;
          let ks = chain.(i) in
          let tmpl =
            match ks.k_body with
            | Map -> Printf.sprintf "Templates.map1 ~name:%S ~work:%d" (kname spec ~stream:s ~pos:i ks) ks.k_work
            | Stencil { halo } ->
              Printf.sprintf "Templates.stencil1d ~name:%S ~halo:%d ~work:%d"
                (kname spec ~stream:s ~pos:i ks) halo ks.k_work
          in
          pf "  Dsl.launch d ~stream:%d (%s) ~grid:%d ~block:%d\n" s tmpl ks.k_grid spec.g_block;
          pf "    ~args:[ (\"n\", Command.Int %d); (\"IN\", Command.Buf b%d_%d); (\"OUT\", Command.Buf b%d_%d) ];\n"
            (ks.k_grid * spec.g_block) s i s (i + 1);
          if ks.k_sync_after then pf "  Dsl.sync d;\n"
        end)
      chains
  done;
  Array.iteri
    (fun s chain ->
      if Array.length chain > 0 then pf "  Dsl.d2h d b%d_%d;\n" s (Array.length chain))
    chains;
  pf "  Dsl.app d\n";
  Buffer.contents b
