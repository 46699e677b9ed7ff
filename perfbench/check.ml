(* Output checks shared by the workloads: a canonical rendering of a
   clean report (the bytes compared and digested), its internal
   consistency, and a per-seed digest record that catches a report
   changing between runs of the same checkout. *)

module Cleaner = Framework.Cleaner

exception Failed of string

let fail fmt = Printf.ksprintf (fun s -> raise (Failed s)) fmt

let outcome_tag = function
  | Cleaner.Complete -> "complete"
  | Cleaner.Completed_by_topk -> "topk"
  | Cleaner.Still_incomplete -> "incomplete"
  | Cleaner.Not_church_rosser rule -> "not-church-rosser " ^ rule
  | Cleaner.Quarantined e -> "quarantined " ^ Robust.Error.to_string e

(* The cleaned relation as CSV, every entity's outcome, and the
   report's counters: everything a report says, as bytes. *)
let render (r : Cleaner.report) =
  let b = Buffer.create 65536 in
  Buffer.add_string b
    (Relational.Csv.render (Relational.Csv.relation_to_rows r.cleaned));
  List.iter
    (fun (idx, o) -> Printf.bprintf b "%d %s\n" idx (outcome_tag o))
    r.outcomes;
  Buffer.add_string b (Format.asprintf "%a@." Cleaner.pp_report r);
  Buffer.contents b

let digest r = Digest.to_hex (Digest.string (render r))

let consistent (r : Cleaner.report) =
  r.entities = List.length r.outcomes
  && r.entities = Relational.Relation.size r.cleaned
  && r.entities
     = r.complete + r.completed_by_topk + r.still_incomplete + r.rejected
       + r.quarantined
  && r.quarantined = List.length r.errors

let same_report ~what a b =
  if not (String.equal (render a) (render b)) then
    fail "%s: the reports differ" what

(* The first run of a (workload, seed) in a checkout records its
   report digest; every later run must reproduce it. *)
let record_digest ~dir ~key d =
  let path = Filename.concat dir (key ^ ".digest") in
  match open_in path with
  | ic ->
      let have = try input_line ic with End_of_file -> "" in
      close_in_noerr ic;
      if not (String.equal have d) then
        fail "%s: report digest %s differs from the recorded %s" key d have
  | exception Sys_error _ ->
      let oc = open_out path in
      output_string oc (d ^ "\n");
      close_out oc
