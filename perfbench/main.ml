(* The benchmark command:

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   runs one workload (see README.md) and prints, as its last line of
   standard output, one JSON object:
   {"correct":..,"attempted":..,"failed":..,"metrics":{NAME:{"value":..,"unit":..}}}.
   The metric names and units come from BENCHMARK.json: its
   [end_to_end] list with --trace 0, its [per_layer] list with
   --trace 1 (a layer a workload does not exercise reads 0). A failed
   output check prints [correct: false] and exits 1. *)

module Json = Service.Json

let workloads =
  [
    ("batch-med2700", (Batch.run, Batch.trace));
    ("session-med1k", (Feed.run, Feed.trace));
    ("serve-med32", (Serve.run, Serve.trace));
  ]

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1";
  exit 2

let args () =
  let rec go acc = function
    | flag :: v :: rest when String.length flag > 2 && String.sub flag 0 2 = "--"
      ->
        go ((String.sub flag 2 (String.length flag - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let kv = go [] (List.tl (Array.to_list Sys.argv)) in
  let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  (get "workload", int "seed", int "seconds", int "trace")

(* One list of BENCHMARK.json, e.g. its workloads or end_to_end
   metrics. *)
let declared list =
  let text =
    try In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all
    with Sys_error e -> Check.fail "BENCHMARK.json: %s" e
  in
  match Json.parse text with
  | Error e -> Check.fail "BENCHMARK.json: %s" e
  | Ok j -> (
      match Json.member list j with
      | Some (Json.Arr items) -> items
      | _ -> Check.fail "BENCHMARK.json: no %s list" list)

let field k j =
  match Option.bind (Json.member k j) Json.to_str with
  | Some s -> s
  | None -> Check.fail "BENCHMARK.json: an entry without %S" k

(* [(name, unit, value)] to print. A workload BENCHMARK.json names
   prints exactly the declared list: a layer it does not exercise reads
   0, and a missing end-to-end metric is a fault. serve-med32, which
   BENCHMARK.json does not name, prints what it measured. *)
let select ~workload ~trace (o : Ctx.outcome) =
  if not (List.mem workload (List.map (field "name") (declared "workloads")))
  then List.map (fun (n, v) -> (n, Serve.unit_of n, v)) o.metrics
  else
    List.map
      (fun m ->
        let name = field "name" m in
        match List.assoc_opt name o.metrics with
        | Some v -> (name, field "unit" m, v)
        | None when trace = 1 -> (name, field "unit" m, 0.0)
        | None -> Check.fail "%s reports no %s" workload name)
      (declared (if trace = 1 then "per_layer" else "end_to_end"))

let rec remove_tree path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let mkdir_p path =
  let rec go p =
    if not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      Sys.mkdir p 0o755
    end
  in
  go path

let result ~correct ~attempted ~failed metrics =
  let metric (name, unit, value) =
    if not (Float.is_finite value) then Check.fail "%s is not finite" name;
    (name, Json.Obj [ ("value", Json.Num value); ("unit", Json.Str unit) ])
  in
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool correct);
         ("attempted", Json.int (max 1 attempted));
         ("failed", Json.int failed);
         ("metrics", Json.Obj (List.map metric metrics));
       ])

let () =
  let workload, seed, seconds, trace = args () in
  let run, traced =
    match List.assoc_opt workload workloads with
    | Some w -> w
    | None ->
        prerr_endline ("unknown workload " ^ workload);
        exit 2
  in
  (* Relative to the checkout root, which is the working directory:
     the server child shares it, and socket paths stay short. *)
  let base = ".perfbench" in
  let dir =
    Filename.concat base
      (Printf.sprintf "%s-%d-%d" workload seed (Unix.getpid ()))
  in
  let record_dir = Filename.concat base "digests" in
  mkdir_p dir;
  mkdir_p record_dir;
  let ctx = { Ctx.seed; seconds = float_of_int seconds; dir; record_dir } in
  let outcome =
    match
      let o = (if trace = 1 then traced else run) ctx in
      result ~correct:true ~attempted:o.attempted ~failed:o.failed
        (select ~workload ~trace o)
    with
    | line -> Ok line
    | exception Check.Failed msg ->
        prerr_endline ("perfbench: check failed: " ^ msg);
        Error (Some (result ~correct:false ~attempted:1 ~failed:1 []))
    | exception e ->
        prerr_endline ("perfbench: " ^ Printexc.to_string e);
        Error None
  in
  remove_tree dir;
  match outcome with
  | Ok line ->
      print_endline line;
      exit 0
  | Error line ->
      Option.iter print_endline line;
      exit 1
