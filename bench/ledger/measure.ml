(* One ledger run: set up, warm up, measure untraced passes for the time
   budget, and (traced runs only) derive per-layer metrics from extra
   traced passes.

   Every timing is process CPU seconds: on a shared two-core box the wall
   clock of identical passes wanders far more than their CPU time.  Each
   pass starts from a full major collection, so no pass pays for garbage
   the previous one left behind.  CPU time still drifts with the host's
   load, so each set-up's and pass's times are divided by the host factor
   measured around it (see Host). *)

module Prof = Bm_metrics.Prof
module W = Workloads

type config = {
  seconds : float;  (* wall-clock budget for the measured passes *)
  min_passes : int;
  min_items : int;  (* enough item samples for p95 to have 10 beyond it *)
}

let default = { seconds = 10.0; min_passes = 3; min_items = 200 }

(* setup_s is the median over this many set-ups; per-layer metrics are the
   median over this many traced passes. *)
let setups = 3
let traced_passes = 3

type metric = { name : string; value : float; unit : string }

type result = {
  workload : string;
  seed : int;
  traced : bool;
  attempted : int;
  failed : int;
  failures : string list;
  passes : int;
  items : int;
  end_to_end : metric list;
  per_layer : metric list;  (* empty unless traced *)
  folded : string;          (* Prof.to_folded of the traced passes, or "" *)
  notes : string list;      (* human-readable extras: sample counts, overhead *)
}

let end_to_end_names = [ "setup_s"; "pass_s"; "item_p50_ms"; "item_p95_ms"; "heap_live_mb" ]

let per_layer_names =
  List.concat_map (fun l -> [ l ^ ".self_ms"; l ^ ".calls"; l ^ ".minor_kw" ]) Layers.names
  @ List.map (fun f -> "cache." ^ f ^ ".hit_ratio") W.cache_families
  @ [ "store.hit_ratio"; "store.write_kb"; "trace.overhead_pct" ]

type tally = { mutable t_attempted : int; mutable t_failed : int; mutable t_failures : string list }

let absorb tally (ctx : W.ctx) =
  tally.t_attempted <- tally.t_attempted + ctx.W.attempted;
  tally.t_failed <- tally.t_failed + ctx.W.failed;
  tally.t_failures <- tally.t_failures @ List.rev ctx.W.failures

(* Run [f] as one timed region: after a full major collection, so it does
   not pay for its predecessor's garbage, and between two host probes.
   Returns [f]'s result and the two probe times. *)
let region f =
  Gc.full_major ();
  let before = Host.probe () in
  let r = f () in
  let after = Host.probe () in
  (r, [ before; after ])

(* A pass and its host factor, which also counts the probes the pass took
   between its items. *)
let run_pass ?prof tally (inst : W.instance) =
  let ctx, ends =
    region (fun () ->
        let ctx = W.new_ctx ?prof () in
        inst.W.pass ctx;
        if prof <> None then inst.W.store_ops ctx;
        ctx)
  in
  absorb tally ctx;
  (ctx, Host.factor (ends @ ctx.W.probes))

let pass_seconds (ctx : W.ctx) = List.fold_left ( +. ) 0.0 ctx.W.samples

let ratio hits misses = if hits + misses = 0 then 0.0 else float_of_int hits /. float_of_int (hits + misses)

let ratios (ctx : W.ctx) =
  List.mapi
    (fun i f -> ("cache." ^ f ^ ".hit_ratio", ratio ctx.W.cache_hits.(i) ctx.W.cache_misses.(i)))
    W.cache_families
  @ [
      ("store.hit_ratio", ratio ctx.W.disk_hits ctx.W.disk_misses);
      ("store.write_kb", float_of_int ctx.W.disk_written /. 1024.0);
    ]

let unit_of name =
  let ends s = String.ends_with ~suffix:s name in
  if ends ".self_ms" then "ms"
  else if ends ".calls" then "count"
  else if ends ".minor_kw" then "kword"
  else if ends ".hit_ratio" then "ratio"
  else if ends "_kb" then "KiB"
  else if ends "_pct" then "%"
  else if ends "_ms" then "ms"
  else if ends "_mb" then "MiB"
  else "s"

let metric name value = { name; value; unit = unit_of name }

let mib words = float_of_int (words * (Sys.word_size / 8)) /. 1048576.0

(* Per-layer values of one traced pass: self time and calls on the CPU
   clock, minor words on the allocation clock.  Graph capture runs only in
   simulate-sweep's set-up, so its row is read from a traced set-up.  Self
   times are divided by the host factor of the region they were timed in. *)
let layer_metrics ~cpu:(cpu, host) ~words ~setup_cpu:(setup_cpu, setup_host) ~setup_words =
  List.concat_map
    (fun l ->
      let (cpu, host), words =
        if l = "graph.capture" then ((setup_cpu, setup_host), setup_words) else ((cpu, host), words)
      in
      let c = Layers.usage cpu l and w = Layers.usage words l in
      [
        (l ^ ".self_ms", c.Layers.self *. 1e3 /. host);
        (l ^ ".calls", float_of_int c.Layers.calls);
        (l ^ ".minor_kw", w.Layers.self /. 1e3);
      ])
    Layers.names

let median_by_name runs =
  match runs with
  | [] -> []
  | first :: _ -> List.map (fun (name, _) -> (name, Stat.median (List.map (List.assoc name) runs))) first

let run ?(config = default) ~traced ~seed (w : W.t) (env : W.env) =
  let tally = { t_attempted = 0; t_failed = 0; t_failures = [] } in
  let inst = ref None in
  let cleanup () = Option.iter (fun (i : W.instance) -> i.W.cleanup ()) !inst in
  Fun.protect ~finally:cleanup (fun () ->
      Host.ready ();
      let timed_setup ?prof () =
        region (fun () ->
            let t0 = Layers.cpu_seconds () in
            let i = w.W.setup ?prof env in
            (i, Layers.cpu_seconds () -. t0))
      in
      let setup_s =
        List.init setups (fun _ ->
            cleanup ();
            inst := None;
            let (i, dt), ends = timed_setup () in
            inst := Some i;
            (dt, Host.factor ends))
      in
      let i = Option.get !inst in
      let pctx = W.new_ctx () in
      List.iter (fun (label, r) -> W.record pctx label r) (i.W.prime ());
      absorb tally pctx;
      ignore (run_pass tally i);
      let start = Unix.gettimeofday () in
      (* Memory is read after a fixed number of passes, so it does not
         depend on how many passes the time budget allowed.  The live heap
         after a full collection is exact; the peak heap size is not a
         metric, because it moves by several percent when an allocation a
         few words long shifts when the collector runs. *)
      let live = ref nan and top = ref nan in
      let rec loop acc n_items =
        let n = List.length acc in
        if n = config.min_passes then begin
          Gc.full_major ();
          live := mib (Gc.stat ()).Gc.live_words;
          top := mib (Gc.quick_stat ()).Gc.top_heap_words
        end;
        if
          n >= config.min_passes && n_items >= config.min_items
          && Unix.gettimeofday () -. start >= config.seconds
        then List.rev acc
        else
          let ((ctx, _) as pass) = run_pass tally i in
          loop (pass :: acc) (n_items + List.length ctx.W.samples)
      in
      let measured = loop [] 0 in
      let n = List.fold_left (fun a ((c : W.ctx), _) -> a + List.length c.W.samples) 0 measured in
      (* Each pass's times are divided by its own host factor; item
         percentiles are taken per pass and then the median over passes:
         every pass runs the same items, and a pass the host slowed down
         moves one value rather than the pooled tail. *)
      let per_pass f = Stat.median (List.map (fun ((c : W.ctx), host) -> f c /. host) measured) in
      let raw_per_pass f = Stat.median (List.map (fun ((c : W.ctx), _) -> f c) measured) in
      let item p (c : W.ctx) = Stat.percentile p c.W.samples *. 1e3 in
      let host = Stat.median (List.map snd measured) in
      let end_to_end =
        [
          metric "setup_s" (Stat.median (List.map (fun (dt, h) -> dt /. h) setup_s));
          metric "pass_s" (per_pass pass_seconds);
          metric "item_p50_ms" (per_pass (item 50.0));
          metric "item_p95_ms" (per_pass (item 95.0));
          metric "heap_live_mb" !live;
        ]
      in
      let notes =
        [
          Printf.sprintf "passes %d, items %d (%d per pass), set-ups %d" (List.length measured) n
            (n / max 1 (List.length measured)) setups;
          Printf.sprintf "host factor %.4f: median over passes of the mean probe time, over %.0f ms" host
            Host.reference_ms;
          Printf.sprintf "raw CPU times: setup_s %.6g, pass_s %.6g, item_p50_ms %.6g, item_p95_ms %.6g"
            (Stat.median (List.map fst setup_s))
            (raw_per_pass pass_seconds) (raw_per_pass (item 50.0)) (raw_per_pass (item 95.0));
          Printf.sprintf "peak major heap %.1f MiB" !top;
          (match Stat.reportable_percentile n with
          | Some p -> Printf.sprintf "highest percentile with >= 10 samples beyond it: p%g" p
          | None -> "fewer than 20 item samples: no percentile has 10 samples beyond it");
        ]
      in
      let per_layer, folded, notes =
        if not traced then ([], "", notes)
        else begin
          let cpu_passes =
            List.init traced_passes (fun _ ->
                let prof = Prof.create ~clock:Layers.cpu_seconds () in
                let ctx, host = run_pass ~prof tally i in
                (prof, host, ctx))
          in
          let words = Prof.create ~clock:Gc.minor_words () in
          ignore (run_pass ~prof:words tally i);
          cleanup ();
          inst := None;
          let traced_setup clock =
            let prof = Prof.create ~clock () in
            let (i, _), ends = timed_setup ~prof () in
            i.W.cleanup ();
            (prof, Host.factor ends)
          in
          let setup_cpu = traced_setup Layers.cpu_seconds in
          let setup_words, _ = traced_setup Gc.minor_words in
          let rows =
            List.map
              (fun (prof, host, ctx) ->
                layer_metrics ~cpu:(prof, host) ~words ~setup_cpu ~setup_words @ ratios ctx)
              cpu_passes
          in
          let traced_s = Stat.median (List.map (fun (_, host, c) -> pass_seconds c /. host) cpu_passes) in
          let untraced_s = per_pass pass_seconds in
          let overhead = ((traced_s /. untraced_s) -. 1.0) *. 100.0 in
          let merged = Prof.create () in
          List.iter (fun (p, _, _) -> Prof.merge ~into:merged p) cpu_passes;
          ( List.map (fun (name, v) -> metric name v) (median_by_name rows)
            @ [ metric "trace.overhead_pct" overhead ],
            Prof.to_folded ~prefix:w.W.name merged,
            notes
            @ [
                Printf.sprintf "tracing overhead %+.1f%% (traced pass %.4f s vs untraced %.4f s)" overhead traced_s
                  untraced_s;
              ] )
        end
      in
      {
        workload = w.W.name;
        seed;
        traced;
        attempted = tally.t_attempted;
        failed = tally.t_failed;
        failures = tally.t_failures;
        passes = List.length measured;
        items = n;
        end_to_end;
        per_layer;
        folded;
        notes;
      })
