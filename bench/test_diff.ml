(* bench/diff.exe, the CI gate over the committed BENCH_*.json files:
   each case writes a baseline and a fresh directory, runs the gate on
   them and checks its exit code and what it prints. *)

(* A baseline that covers every suite the gate reads: (file, rows),
   each row a JSON object. *)
let baseline =
  let kernel name counters =
    Printf.sprintf "{\"name\":\"%s\",\"ms\":1.0,\"minor_words\":64,\"counters\":{%s}}" name
      (String.concat "," (List.map (fun (k, v) -> Printf.sprintf "\"%s\":%d" k v) counters))
  in
  let update name touched = Printf.sprintf "{\"name\":\"%s\",\"touched\":%d,\"recleaned\":7}" name touched in
  let serve name requests = Printf.sprintf "{\"name\":\"%s\",\"requests\":%d,\"violations\":0}" name requests in
  [
    ("BENCH_chase.json", [ kernel "iscr-mj" [ ("chase_steps_fired_total", 61) ] ]);
    ( "BENCH_ground.json",
      [
        kernel "ground-mj" [ ("instantiation_form1_steps_total", 128) ];
        kernel "ground-master10k" [ ("instantiation_steps_deferred_total", 80000) ];
      ] );
    ( "BENCH_topk.json",
      [
        kernel "topkct-med-k15" [ ("topk_checks_total", 9) ];
        kernel "brodal-insert-pop" [ ("pqueue_brodal_links_total", 999) ];
        kernel "binary-insert-pop" [];
      ] );
    ("BENCH_truth.json", [ kernel "copycef-120rest" [ ("truth_copycef_iterations_total", 8) ] ]);
    ("BENCH_clean.json", [ kernel "clean-med60-jobs1" [ ("cleaner_entities_total", 60) ] ]);
    ("BENCH_er.json", [ kernel "er-med-1k" [ ("er_pairs_scored_total", 5723) ] ]);
    ("BENCH_load.json", [ kernel "load-med2700" [ ("csv_rows_total", 10809) ] ]);
    ( "BENCH_update.json",
      [ update "update-tuple-1000" 352; update "update-tuple-8000" 352; update "update-mixed" 2912 ] );
    ("BENCH_serve.json", [ serve "serve-med16-jobs1" 240; serve "serve-med16-jobs2-auto" 240 ]);
  ]

let write_dir dir files =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  List.iter
    (fun (file, text) -> Out_channel.with_open_bin (Filename.concat dir file) (fun oc -> output_string oc text))
    files

let render files =
  List.map
    (fun (file, rows) ->
      ( file,
        Printf.sprintf "{\"suite\":\"x\",\"best_of\":5,\"host_domains\":2,\"commit\":\"unknown\",\"results\":[\n%s\n]}\n"
          (String.concat ",\n" rows) ))
    files

(* Runs the gate on [baseline] against [fresh], a (file, text) list;
   returns its exit code and its stdout and stderr together. *)
let run_gate fresh =
  write_dir "diff_base" (render baseline);
  write_dir "diff_fresh" fresh;
  let code = Sys.command "./diff.exe diff_base diff_fresh > diff_out.txt 2>&1" in
  (code, In_channel.with_open_bin "diff_out.txt" In_channel.input_all)

(* The baseline with [file]'s row list replaced by [f rows]. *)
let edit file f = List.map (fun (file', rows) -> if file' = file then (file', f rows) else (file', rows)) baseline

let contains s sub =
  let n = String.length sub in
  let rec scan i = i + n <= String.length s && (String.sub s i n = sub || scan (i + 1)) in
  scan 0

let check_run ~code ~says (got_code, out) =
  Alcotest.(check int) ("exit code; output: " ^ out) code got_code;
  List.iter (fun sub -> Alcotest.(check bool) (Printf.sprintf "output names %S" sub) true (contains out sub)) says

let identical () =
  check_run ~code:0 ~says:[ "every work counter matches the baselines" ] (run_gate (render baseline))

let changed_counter () =
  let fresh =
    edit "BENCH_chase.json" (List.map (fun _ -> {|{"name":"iscr-mj","counters":{"chase_steps_fired_total":62}}|}))
  in
  check_run ~code:1 ~says:[ "iscr-mj"; "chase_steps_fired_total"; "baseline 61, fresh 62" ] (run_gate (render fresh))

(* The truth and ablation-queue kernels are gated on their work, not
   just on their rows existing. *)
let changed_work () =
  let fresh =
    edit "BENCH_truth.json"
      (List.map (fun _ -> {|{"name":"copycef-120rest","counters":{"truth_copycef_iterations_total":16}}|}))
  in
  check_run ~code:1 ~says:[ "copycef-120rest truth_copycef_iterations_total: baseline 8, fresh 16" ]
    (run_gate (render fresh));
  let fresh =
    edit "BENCH_topk.json"
      (List.map (fun r ->
           if contains r "brodal" then {|{"name":"brodal-insert-pop","counters":{"pqueue_brodal_links_total":1998}}|}
           else r))
  in
  check_run ~code:1 ~says:[ "brodal-insert-pop pqueue_brodal_links_total: baseline 999, fresh 1998" ]
    (run_gate (render fresh))

let one_sided_row () =
  let extra = edit "BENCH_truth.json" (fun rows -> rows @ [ {|{"name":"voting-med-entity","counters":{}}|} ]) in
  check_run ~code:1 ~says:[ "voting-med-entity: no baseline row" ] (run_gate (render extra));
  let dropped = edit "BENCH_topk.json" (List.filter (fun r -> not (contains r "binary-insert-pop"))) in
  check_run ~code:1 ~says:[ "binary-insert-pop: missing from the fresh run" ] (run_gate (render dropped))

let missing_or_malformed () =
  let fresh = render baseline in
  check_run ~code:2 ~says:[ "BENCH_truth.json" ]
    (run_gate (List.filter (fun (file, _) -> file <> "BENCH_truth.json") fresh));
  check_run ~code:2 ~says:[ "BENCH_er.json" ]
    (run_gate (List.map (fun (file, text) -> (file, if file = "BENCH_er.json" then "{" else text)) fresh));
  check_run ~code:2 ~says:[ "not an integer" ]
    (run_gate
       (render (edit "BENCH_load.json" (fun _ -> [ {|{"name":"load-med2700","counters":{"csv_rows_total":"x"}}|} ]))))

let master10k_not_compared () =
  let shrunk =
    edit "BENCH_ground.json"
      (List.map (fun r ->
           if contains r "ground-master10k" then
             {|{"name":"ground-master10k","counters":{"instantiation_steps_deferred_total":4000}}|}
           else r))
  in
  check_run ~code:0 ~says:[ "every work counter matches the baselines" ] (run_gate (render shrunk));
  let other_sizes = edit "BENCH_update.json" (List.filter (fun r -> not (contains r "update-tuple-8000"))) in
  check_run ~code:0 ~says:[] (run_gate (render other_sizes))

let serve_auto_any_n () =
  let auto n requests =
    edit "BENCH_serve.json"
      (List.map (fun r ->
           if contains r "-auto" then
             Printf.sprintf "{\"name\":\"serve-med16-jobs%d-auto\",\"requests\":%d,\"violations\":0}" n requests
           else r))
  in
  check_run ~code:0 ~says:[ "every work counter matches the baselines" ] (run_gate (render (auto 8 240)));
  check_run ~code:1 ~says:[ "serve-med16-jobsN-auto requests: baseline 240, fresh 239" ]
    (run_gate (render (auto 1 239)))

let () =
  Alcotest.run "bench-diff"
    [
      ( "bench-diff",
        [
          Alcotest.test_case "identical counters pass" `Quick identical;
          Alcotest.test_case "a changed counter fails and is named" `Quick changed_counter;
          Alcotest.test_case "truth and queue work is gated" `Quick changed_work;
          Alcotest.test_case "a row on one side only fails" `Quick one_sided_row;
          Alcotest.test_case "a missing or malformed file is exit 2" `Quick missing_or_malformed;
          Alcotest.test_case "ground-master10k rows are not compared" `Quick master10k_not_compared;
          Alcotest.test_case "the serve auto row is compared whatever N" `Quick serve_auto_any_n;
        ] );
    ]
