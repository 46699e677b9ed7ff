(* Diff the work counters of a fresh bench run against the committed
   baselines:

     bench/diff.exe BASELINE_DIR FRESH_DIR

   For BENCH_chase.json, BENCH_ground.json, BENCH_topk.json,
   BENCH_truth.json, BENCH_clean.json, BENCH_er.json and
   BENCH_load.json, every compared row must carry exactly the counters
   of the same-named row on the other side; for BENCH_update.json, the
   update-tuple-1000 and update-mixed rows must carry the same
   [touched] and [recleaned], so the mixed feed pins the work of master
   fixes and rule cycles as well as tuple updates; for
   BENCH_serve.json, every row must carry the same [requests] and
   [violations], so the service's load and its contract checks are
   pinned (the row run at the host's domain count,
   [serve-med16-jobsN-auto], is compared whatever N is). A counter
   absent from a row reads 0; a row present on one side only is a
   difference. Wall times, latencies, throughput, the ok/degraded/shed
   split (which follows the host's timing) and minor-heap words are
   host-dependent and are not compared.
   Prints each difference and exits 1 if there is any, 2 on a missing
   or malformed file. *)

module Json = Service.Json

exception Bad of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

let int_of ~path ~name k v =
  match Json.to_int v with
  | Some n -> (k, n)
  | None -> bad "%s: %s.%s is not an integer" path name k

(* A kernel row's work counters: its "counters" object. *)
let counters ~path ~name row =
  match Json.member "counters" row with
  | Some (Json.Obj kv) -> List.map (fun (k, v) -> int_of ~path ~name k v) kv
  | None -> []
  | Some _ -> bad "%s: %s has malformed counters" path name

(* Named integer fields of a row that keeps its counts at top level. *)
let fields keys ~path ~name row =
  List.filter_map
    (fun k -> Option.map (int_of ~path ~name k) (Json.member k row))
    keys

(* Each baseline file with the rows it gates and the counts it reads
   from them. [make bench-smoke] runs every suite here at full size
   except the ground suite's master10k row: RELACC_GROUND_IM shrinks
   its master (10,000 rows in the baseline, 500 in the smoke run), and
   its counters scale with it, so it is written but not compared. Of the update suite's size series, the smoke run repeats
   only the 1,000-entity row at full size; the mixed row always runs
   at 1,000 entities. The serve suite runs at full size. *)
let suites =
  (* The name a gated row is compared under, [None] for a row that is
     not gated. *)
  let all name = Some name in
  let only p name = if p name then Some name else None in
  let serve name =
    if String.starts_with ~prefix:"serve-med16-jobs" name && String.ends_with ~suffix:"-auto" name
    then Some "serve-med16-jobsN-auto"
    else Some name
  in
  [
    ("BENCH_chase.json", all, counters);
    ( "BENCH_ground.json",
      only (fun name -> name <> "ground-master10k"),
      counters );
    ("BENCH_topk.json", all, counters);
    ("BENCH_truth.json", all, counters);
    ("BENCH_clean.json", all, counters);
    ("BENCH_er.json", all, counters);
    ("BENCH_load.json", all, counters);
    ( "BENCH_update.json",
      only (fun name -> name = "update-tuple-1000" || name = "update-mixed"),
      fields [ "touched"; "recleaned" ] );
    ("BENCH_serve.json", serve, fields [ "requests"; "violations" ]);
  ]

(* (row name, (counter, value) list) per result row, in file order. *)
let rows path read =
  let text =
    match In_channel.with_open_bin path In_channel.input_all with
    | s -> s
    | exception Sys_error e -> bad "%s" e
  in
  let doc = match Json.parse text with Ok d -> d | Error e -> bad "%s: %s" path e in
  let results =
    match Json.member "results" doc with
    | Some (Json.Arr l) -> l
    | _ -> bad "%s: no results array" path
  in
  List.map
    (fun row ->
      let name =
        match Option.bind (Json.member "name" row) Json.to_str with
        | Some n -> n
        | None -> bad "%s: a result row has no name" path
      in
      (name, read ~path ~name row))
    results

let diff_suite ~base ~fresh (file, gated, read) =
  let rows dir =
    List.filter_map
      (fun (name, c) -> Option.map (fun key -> (key, c)) (gated name))
      (rows (Filename.concat dir file) read)
  in
  let b = rows base and f = rows fresh in
  let n = ref 0 in
  let report fmt =
    incr n;
    Printf.printf ("%s: " ^^ fmt ^^ "\n") file
  in
  let names = List.sort_uniq compare (List.map fst b @ List.map fst f) in
  List.iter
    (fun name ->
      match (List.assoc_opt name b, List.assoc_opt name f) with
      | Some cb, Some cf ->
          let get c k = Option.value ~default:0 (List.assoc_opt k c) in
          List.iter
            (fun k ->
              let vb = get cb k and vf = get cf k in
              if vb <> vf then report "%s %s: baseline %d, fresh %d" name k vb vf)
            (List.sort_uniq compare (List.map fst cb @ List.map fst cf))
      | Some _, None -> report "%s: missing from the fresh run" name
      | None, Some _ -> report "%s: no baseline row" name
      | None, None -> ())
    names;
  !n

let () =
  match Array.to_list Sys.argv with
  | [ _; base; fresh ] -> (
      match List.fold_left (fun acc file -> acc + diff_suite ~base ~fresh file) 0 suites with
      | 0 -> print_endline "bench diff: every work counter matches the baselines"
      | n ->
          Printf.printf "bench diff: %d counter difference(s)\n" n;
          exit 1
      | exception Bad msg ->
          prerr_endline ("bench diff: " ^ msg);
          exit 2)
  | _ ->
      prerr_endline "usage: diff.exe BASELINE_DIR FRESH_DIR";
      exit 2
