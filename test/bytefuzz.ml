(* Byte-mutation fuzzing shared by the graph-file and PTX-text fuzzers: a
   mutant is one corpus entry plus 1-3 byte edits (replace, insert,
   delete). *)

(* Entry index below [corpus], then the edits.  Positions are uniform over
   the text (taken mod its length); [nat] would crowd them into the
   header.  Edit bytes are any byte or one of [alphabet], the characters
   the format uses, so that more mutants still parse. *)
let gen ~corpus ~alphabet =
  QCheck2.Gen.(
    pair (int_bound (corpus - 1))
      (list_size (int_range 1 3)
         (triple (int_bound 2)
            (int_bound ((1 lsl 30) - 2))
            (oneof [ char; oneofl (List.of_seq (String.to_seq alphabet)) ]))))

let mutate text edits =
  List.fold_left
    (fun s (op, pos, c) ->
      let n = String.length s in
      let i = pos mod n in
      match op with
      | 0 -> String.mapi (fun k x -> if k = i then c else x) s
      | 1 -> String.sub s 0 i ^ String.make 1 c ^ String.sub s i (n - i)
      | _ -> String.sub s 0 i ^ String.sub s (i + 1) (n - i - 1))
    text edits

let print ~what (k, edits) =
  String.concat "; "
    (List.map (fun (op, pos, c) -> Printf.sprintf "%s %d op %d at %d byte %C" what k op pos c) edits)
