module Config = Bm_gpu.Config
module Stats = Bm_gpu.Stats
module Mode = Bm_maestro.Mode
module Prep = Bm_maestro.Prep
module Sim = Bm_maestro.Sim
module Multi = Bm_maestro.Multi

type mismatch = {
  mm_mode : Mode.t;
  mm_details : string list;
}

let fdiff name a b acc =
  if a = b then acc else Printf.sprintf "%s: sim=%.9g ref=%.9g" name a b :: acc

let diff_stats (s : Stats.t) (r : Stats.t) =
  let acc = [] in
  let acc = fdiff "total_us" s.Stats.total_us r.Stats.total_us acc in
  let acc = fdiff "busy_us" s.Stats.busy_us r.Stats.busy_us acc in
  let acc = fdiff "avg_concurrency" s.Stats.avg_concurrency r.Stats.avg_concurrency acc in
  let acc = fdiff "base_mem_requests" s.Stats.base_mem_requests r.Stats.base_mem_requests acc in
  let acc = fdiff "dep_mem_requests" s.Stats.dep_mem_requests r.Stats.dep_mem_requests acc in
  let shape (st : Stats.t) = Array.map Array.length st.Stats.tb_start in
  let acc =
    if shape s <> shape r then
      Printf.sprintf "TB columns: sim has %d TBs in %d kernels, ref has %d in %d" (Stats.tb_count s)
        (Array.length s.Stats.tb_start) (Stats.tb_count r) (Array.length r.Stats.tb_start)
      :: acc
    else begin
      let diffs = ref [] and shown = ref 0 in
      Array.iteri
        (fun k starts ->
          let sd = s.Stats.tb_dep_ready.(k) and sf = s.Stats.tb_finish.(k) in
          let rd = r.Stats.tb_dep_ready.(k) and rs = r.Stats.tb_start.(k) in
          let rf = r.Stats.tb_finish.(k) in
          for tb = 0 to Array.length starts - 1 do
            if (sd.(tb) <> rd.(tb) || starts.(tb) <> rs.(tb) || sf.(tb) <> rf.(tb)) && !shown < 5
            then begin
              incr shown;
              diffs :=
                Printf.sprintf "k%d tb%d: sim dep/start/finish=%.6g/%.6g/%.6g ref=%.6g/%.6g/%.6g" k
                  tb sd.(tb) starts.(tb) sf.(tb) rd.(tb) rs.(tb) rf.(tb)
                :: !diffs
            end
          done)
        s.Stats.tb_start;
      List.rev_append !diffs acc
    end
  in
  List.rev acc

let check ?(cfg = Config.titan_x_pascal) ?(modes = List.map snd Mode.known) ?cache ?window_bug app
    =
  (* The two reorder classes share one preparation each, like Runner. *)
  let prep = Mode.by_class (fun ~reorder -> Prep.prepare ~reorder ?cache cfg app) in
  let mms =
    List.filter_map
      (fun mode ->
        let prep = prep mode in
        let ref_ = (Refsched.run ?window_bug cfg mode [| prep |]).(0) in
        match diff_stats (Sim.run cfg mode prep) ref_ with
        | [] -> None
        | details -> Some { mm_mode = mode; mm_details = details })
      modes
  in
  if mms = [] then Ok () else Error mms

let pp_mismatch ppf mm =
  Format.fprintf ppf "@[<v 2>mode %s:@,%a@]" (Mode.name mm.mm_mode)
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut Format.pp_print_string)
    mm.mm_details

type corun_mismatch = {
  cm_mode : Mode.t;
  cm_submission : Multi.submission;
  cm_spatial : Multi.spatial;
  cm_app : int;
  cm_details : string list;
}

let check_corun ?(cfg = Config.titan_x_pascal) ?(modes = List.map snd Mode.known) ?submissions
    ?spatials ?cache ?slots_bug (apps : Bm_gpu.Command.app array) =
  let napps = Array.length apps in
  if napps < 1 then invalid_arg "Diff.check_corun: no apps";
  let submissions =
    match submissions with
    | Some s -> s
    | None -> [ Multi.Fifo; Multi.Round_robin; Multi.Packed ]
  in
  let spatials =
    match spatials with
    | Some s -> s
    | None ->
      (* Shared plus an even split of the machine (when it divides into at
         least one SM per app). *)
      let share = cfg.Config.num_sms / napps in
      if share >= 1 then [ Multi.Shared; Multi.Partitioned (Array.make napps share) ]
      else [ Multi.Shared ]
  in
  (* Preparation never reads the SM count, so one preparation per reorder
     class serves every spatial policy. *)
  let preps = Mode.by_class (fun ~reorder -> Array.map (Prep.prepare ~reorder ?cache cfg) apps) in
  let mms =
    List.concat_map
      (fun mode ->
        let preps = preps mode in
        List.concat_map
          (fun spatial ->
            (* Partitioned slices never contend for admission, so one
               submission policy covers them. *)
            let subs =
              match spatial with
              | Multi.Partitioned _ -> [ List.hd submissions ]
              | Multi.Shared -> submissions
            in
            List.concat_map
              (fun submission ->
                let subject = Multi.run ~submission ~spatial cfg mode preps in
                let ref_ = Refsched.run ~submission ~spatial ?slots_bug cfg mode preps in
                List.filter_map
                  (fun a ->
                    match diff_stats subject.Multi.mr_stats.(a) ref_.(a) with
                    | [] -> None
                    | details ->
                      Some
                        {
                          cm_mode = mode;
                          cm_submission = submission;
                          cm_spatial = spatial;
                          cm_app = a;
                          cm_details = details;
                        })
                  (List.init napps Fun.id))
              subs)
          spatials)
      modes
  in
  if mms = [] then Ok () else Error mms

let pp_corun_mismatch ppf cm =
  Format.fprintf ppf "@[<v 2>mode %s (%s, %s) app %d:@,%a@]" (Mode.name cm.cm_mode)
    (Multi.submission_name cm.cm_submission)
    (Multi.spatial_name cm.cm_spatial) cm.cm_app
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut Format.pp_print_string)
    cm.cm_details
