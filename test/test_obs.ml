(* Observability layer: registry semantics, span nesting, the
   disabled no-op contract, exporters, and two integration checks —
   the instrumented chase actually moves the counters, and
   Pipeline.run agrees with the engine called directly. *)

module Obs = Obs
module Mj = Datagen.Mj
module Value = Relational.Value

(* Every test runs against the same process-wide registry, so each
   starts from a clean, enabled slate and leaves collection off. *)
let with_obs f () =
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled false) f

(* ---------------------------------------------------------------- *)
(* Registry                                                         *)
(* ---------------------------------------------------------------- *)

let test_counter_basics () =
  let c = Obs.Counter.make "test_counter_basics_total" in
  Alcotest.(check int) "starts at zero" 0 (Obs.Counter.value c);
  Obs.Counter.incr c;
  Obs.Counter.add c 4;
  Alcotest.(check int) "incr + add" 5 (Obs.Counter.value c);
  Alcotest.check_raises "negative add" (Invalid_argument
    "Obs.Counter.add: negative increment") (fun () -> Obs.Counter.add c (-1));
  Obs.reset ();
  Alcotest.(check int) "reset zeroes" 0 (Obs.Counter.value c)

let test_registration_idempotent () =
  let a = Obs.Counter.make "test_idempotent_total" in
  let b = Obs.Counter.make "test_idempotent_total" in
  Obs.Counter.incr a;
  Obs.Counter.incr b;
  Alcotest.(check int) "same underlying counter" 2 (Obs.Counter.value a);
  (* A name registered as one kind cannot re-register as another. *)
  match Obs.Gauge.make "test_idempotent_total" with
  | _ -> Alcotest.fail "kind mismatch should raise"
  | exception Invalid_argument _ -> ()

let test_gauge_observe_max () =
  let g = Obs.Gauge.make "test_gauge_hwm" in
  Obs.Gauge.observe_max g 3.0;
  Obs.Gauge.observe_max g 7.0;
  Obs.Gauge.observe_max g 5.0;
  Alcotest.(check (float 0.0)) "high-water mark" 7.0 (Obs.Gauge.value g)

let test_histogram_buckets () =
  let h =
    Obs.Histogram.make ~buckets:[| 1.0; 10.0; 100.0 |] "test_hist_ms"
  in
  List.iter (Obs.Histogram.observe h) [ 0.5; 5.0; 50.0; 500.0 ];
  Alcotest.(check int) "count" 4 (Obs.Histogram.count h);
  Alcotest.(check (float 1e-9)) "sum" 555.5 (Obs.Histogram.sum h);
  (* Cumulative, Prometheus-style, +inf last. *)
  Alcotest.(check (list (pair (float 0.0) int)))
    "cumulative buckets"
    [ (1.0, 1); (10.0, 2); (100.0, 3); (infinity, 4) ]
    (Obs.Histogram.bucket_counts h)

let test_snapshot_sorted () =
  ignore (Obs.Counter.make "test_zzz_total");
  ignore (Obs.Counter.make "test_aaa_total");
  let names = List.map fst (Obs.snapshot ()) in
  Alcotest.(check (list string)) "sorted" (List.sort compare names) names

(* ---------------------------------------------------------------- *)
(* Spans                                                            *)
(* ---------------------------------------------------------------- *)

let test_span_nesting () =
  let r =
    Obs.Span.with_ ~name:"outer" @@ fun () ->
    Obs.Span.with_ ~name:"inner" (fun () -> ()) ;
    42
  in
  Alcotest.(check int) "value returned" 42 r;
  (* Completed spans come back in start order: outer first. *)
  match Obs.Span.events () with
  | [ outer; inner ] when outer.Obs.Span.name = "outer" ->
      Alcotest.(check int) "outer depth" 0 outer.Obs.Span.depth;
      Alcotest.(check int) "inner depth" 1 inner.Obs.Span.depth;
      Alcotest.(check string) "inner name" "inner" inner.Obs.Span.name;
      (* Each span feeds its duration histogram. *)
      (match Obs.find "span_outer_ms" with
      | Some (Obs.Histogram { count; _ }) ->
          Alcotest.(check int) "outer histogram observed" 1 count
      | _ -> Alcotest.fail "span_outer_ms histogram missing")
  | evs ->
      Alcotest.failf "expected 2 spans, got %d" (List.length evs)

let test_span_exception_safe () =
  (try
     Obs.Span.with_ ~name:"boom" (fun () -> raise Exit)
   with Exit -> ());
  Alcotest.(check int) "span closed despite exception" 1
    (List.length (Obs.Span.events ()))

let test_disabled_no_op () =
  Obs.set_enabled false;
  let c = Obs.Counter.make "test_disabled_total" in
  Obs.Counter.incr c;
  Obs.Counter.add c 10;
  let g = Obs.Gauge.make "test_disabled_gauge" in
  Obs.Gauge.observe_max g 5.0;
  let r = Obs.Span.with_ ~name:"disabled" (fun () -> 7) in
  Obs.set_enabled true;
  Alcotest.(check int) "thunk still runs" 7 r;
  Alcotest.(check int) "counter untouched" 0 (Obs.Counter.value c);
  Alcotest.(check (float 0.0)) "gauge untouched" 0.0 (Obs.Gauge.value g);
  Alcotest.(check int) "no span recorded" 0 (List.length (Obs.Span.events ()))

(* ---------------------------------------------------------------- *)
(* Exporters                                                        *)
(* ---------------------------------------------------------------- *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_exporters () =
  let c = Obs.Counter.make "test_export_total" in
  Obs.Counter.add c 3;
  let h = Obs.Histogram.make ~buckets:[| 1.0 |] "test_export_ms" in
  Obs.Histogram.observe h 0.5;
  let json = Obs.Export.to_json_lines () in
  Alcotest.(check bool) "json counter line" true
    (contains json "{\"type\":\"counter\",\"name\":\"test_export_total\",\"value\":3}");
  Alcotest.(check bool) "json histogram inf" true (contains json "\"inf\"");
  let prom = Obs.Export.to_prometheus () in
  Alcotest.(check bool) "prometheus type comment" true
    (contains prom "# TYPE test_export_total counter");
  Alcotest.(check bool) "prometheus bucket series" true
    (contains prom "test_export_ms_bucket{le=\"1\"} 1");
  Alcotest.(check bool) "prometheus +inf bucket" true
    (contains prom "test_export_ms_bucket{le=\"+Inf\"} 1");
  let table = Obs.Export.to_table () in
  Alcotest.(check bool) "table mentions the counter" true
    (contains table "test_export_total")

(* ---------------------------------------------------------------- *)
(* Integration: the engines move the counters                       *)
(* ---------------------------------------------------------------- *)

let counter_value name =
  match Obs.find name with Some (Obs.Counter v) -> v | _ -> 0

let test_chase_moves_counters () =
  (match Core.Is_cr.run Mj.specification with
  | Core.Is_cr.Church_rosser _ -> ()
  | Core.Is_cr.Not_church_rosser _ -> Alcotest.fail "MJ must be CR");
  Alcotest.(check bool) "chase steps fired" true
    (counter_value "chase_steps_fired_total" > 0);
  Alcotest.(check bool) "instantiation steps counted" true
    (counter_value "instantiation_form1_steps_total" > 0);
  Alcotest.(check int) "no conflicts on CR spec" 0
    (counter_value "chase_conflicts_total")

let test_conflict_counter () =
  (match Core.Is_cr.run Mj.non_cr_specification with
  | Core.Is_cr.Not_church_rosser _ -> ()
  | Core.Is_cr.Church_rosser _ -> Alcotest.fail "phi12 spec must not be CR");
  Alcotest.(check bool) "conflict counted" true
    (counter_value "chase_conflicts_total" > 0)

(* ---------------------------------------------------------------- *)
(* Integration: Pipeline.run = the engine called directly           *)
(* ---------------------------------------------------------------- *)

let write_mj_fixture dir =
  let csv name rel =
    let path = Filename.concat dir (name ^ ".csv") in
    Relational.Csv.write_file path (Relational.Csv.relation_to_rows rel);
    path
  in
  let entity = csv "stat" Mj.stat in
  let master = csv "nba" Mj.nba in
  let rules = Filename.concat dir "rules.txt" in
  let oc = open_out rules in
  output_string oc Mj.rules_text;
  close_out oc;
  (entity, master, rules)

let with_tmpdir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "relacc_obs_%d" (Unix.getpid ()))
  in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> Sys.remove (Filename.concat dir f))
        (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

let test_pipeline_matches_engine () =
  with_tmpdir @@ fun dir ->
  let entity, master, rules = write_mj_fixture dir in
  let cfg =
    Framework.Pipeline.config ~master ~entity ~rules Framework.Pipeline.Chase
  in
  match Framework.Pipeline.run cfg with
  | Error e -> Alcotest.failf "pipeline: %s" (Robust.Error.to_string e)
  | Ok { outcome = Framework.Pipeline.Chased (Deduced { te; complete }); _ } ->
      Alcotest.(check bool) "complete" true complete;
      Alcotest.(check bool) "equals the engine's deduced target" true
        (Array.for_all2 Value.equal Mj.expected_target te)
  | Ok _ -> Alcotest.fail "expected a deduced target"

let test_pipeline_topk_conflict_is_error () =
  (* Same fixture, but the conflicting phi12 rule appended: for the
     Topk task a non-CR spec has no target to complete, so the
     pipeline reports the typed order conflict (exit code 2's
     class) rather than a verdict. *)
  with_tmpdir @@ fun dir ->
  let entity, master, _ = write_mj_fixture dir in
  let rules = Filename.concat dir "rules_conflict.txt" in
  let oc = open_out rules in
  output_string oc (Mj.rules_text ^ "\n" ^ Mj.phi12_text);
  close_out oc;
  let cfg =
    Framework.Pipeline.config ~master ~entity ~rules
      (Framework.Pipeline.Topk { k = 3; algo = `Ct })
  in
  match Framework.Pipeline.run cfg with
  | Error (Robust.Error.Order_conflict _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Robust.Error.to_string e)
  | Ok _ -> Alcotest.fail "conflicting rules must not rank"

(* A top-k task drains the base chase once: the pipeline's own drain
   is the state top-k resumes. Against the same calls made one by one —
   a from-scratch run, then a solve that drains its own base — the
   answers are equal and the pipeline fires the solve's steps alone.
   Deduction's first round fires what one such solve fires. *)
let test_pipeline_topk_drains_base_once () =
  let ruleset = Rules.Ruleset.remove (Rules.Ruleset.remove Mj.ruleset "phi11") "phi6#2" in
  let spec = Core.Specification.with_ruleset Mj.specification ruleset in
  let fired () = counter_value "chase_steps_fired_total" in
  let f0 = fired () in
  let targets =
    match Framework.Pipeline.execute spec (Framework.Pipeline.Topk { k = 3; algo = `Ct }) with
    | Ok { outcome = Framework.Pipeline.Ranked { result; _ }; _ } -> result.Topk.targets
    | Ok _ -> Alcotest.fail "expected a ranked outcome"
    | Error e -> Alcotest.failf "pipeline: %s" (Robust.Error.to_string e)
  in
  let pipeline_fired = fired () - f0 in
  let compiled = Core.Is_cr.compile spec in
  let f1 = fired () in
  let te =
    match Core.Is_cr.run_compiled compiled with
    | Core.Is_cr.Church_rosser inst -> Core.Instance.te inst
    | Core.Is_cr.Not_church_rosser _ -> Alcotest.fail "the spec must be CR"
  in
  let base = fired () - f1 in
  let pref = Topk.Preference.of_occurrences (Core.Specification.entity spec) in
  let reference =
    match Topk.solve ~algo:`Ct ~k:3 ~pref compiled te with
    | Ok o -> o.Topk.targets
    | Error e -> Alcotest.failf "solve: %s" (Robust.Error.to_string e)
  in
  let solve_fired = fired () - f1 - base in
  Alcotest.(check int) "same number of targets" (List.length reference) (List.length targets);
  Alcotest.(check bool) "same targets" true
    (List.for_all2 (Array.for_all2 Value.equal) reference targets);
  Alcotest.(check bool) "the base chase fires steps" true (base > 0);
  Alcotest.(check int) "one base drain" solve_fired pipeline_fired;
  (* Deduction's first round, before any fill, resumes its own drain
     the same way. *)
  let f2 = fired () in
  ignore
    (Framework.Deduction.run ~k:3 ~pref ~user:(fun _ -> Framework.Deduction.Give_up) spec
      : Framework.Deduction.outcome);
  let deduction_fired = fired () - f2 in
  let f3 = fired () in
  ignore (Topk.solve ~algo:`Ct ~max_pops:2_000 ~k:3 ~pref compiled te : _ result);
  Alcotest.(check int) "one base drain in deduction's first round" (fired () - f3)
    deduction_fired

(* A top-k task drains its base chase under the request's limits, as
   a chase task does: a one-step budget fires one step and reports the
   chase's exhausted outcome, not a ranking. *)
let test_pipeline_topk_base_chase_budgeted () =
  with_tmpdir @@ fun dir ->
  let entity, master, rules = write_mj_fixture dir in
  let cfg =
    Framework.Pipeline.config ~master ~entity ~rules
      ~limits:(Robust.Budget.limits ~max_steps:1 ())
      (Framework.Pipeline.Topk { k = 3; algo = `Ct })
  in
  let f0 = counter_value "chase_steps_fired_total" in
  (match Framework.Pipeline.run cfg with
  | Ok { outcome = Framework.Pipeline.Chased (Chase_exhausted { fired; trip; _ }); _ } ->
      Alcotest.(check int) "one step reported" 1 fired;
      Alcotest.(check bool) "the step cap tripped" true (trip = Robust.Error.Steps)
  | Ok _ -> Alcotest.fail "expected the chase's exhausted outcome"
  | Error e -> Alcotest.failf "pipeline: %s" (Robust.Error.to_string e));
  Alcotest.(check int) "one chase step fired" 1
    (counter_value "chase_steps_fired_total" - f0)

let test_pipeline_spans_recorded () =
  with_tmpdir @@ fun dir ->
  let entity, master, rules = write_mj_fixture dir in
  let cfg =
    Framework.Pipeline.config ~master ~entity ~rules Framework.Pipeline.Chase
  in
  (match Framework.Pipeline.run cfg with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "pipeline: %s" (Robust.Error.to_string e));
  let names = List.map (fun e -> e.Obs.Span.name) (Obs.Span.events ()) in
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " span present") true (List.mem n names))
    [ "pipeline.load"; "pipeline.chase" ]

(* The pipeline's clean opens a session, and the session's initial
   clean publishes the worker count as the batch clean does. *)
let test_pipeline_clean_sets_jobs () =
  match
    Framework.Pipeline.execute Mj.specification
      (Framework.Pipeline.Clean { key_attrs = [ "FN" ]; threshold = 0.8; retries = 1; jobs = 2 })
  with
  | Error e -> Alcotest.failf "pipeline: %s" (Robust.Error.to_string e)
  | Ok _ -> (
      match Obs.find "cleaner_jobs" with
      | Some (Obs.Gauge v) -> Alcotest.(check (float 0.0)) "cleaner_jobs" 2.0 v
      | _ -> Alcotest.fail "cleaner_jobs is not a gauge")

let () =
  Alcotest.run "obs"
    [
      ( "registry",
        [
          Alcotest.test_case "counter" `Quick (with_obs test_counter_basics);
          Alcotest.test_case "idempotent" `Quick
            (with_obs test_registration_idempotent);
          Alcotest.test_case "gauge-hwm" `Quick (with_obs test_gauge_observe_max);
          Alcotest.test_case "histogram" `Quick (with_obs test_histogram_buckets);
          Alcotest.test_case "snapshot-sorted" `Quick
            (with_obs test_snapshot_sorted);
        ] );
      ( "spans",
        [
          Alcotest.test_case "nesting" `Quick (with_obs test_span_nesting);
          Alcotest.test_case "exception-safe" `Quick
            (with_obs test_span_exception_safe);
          Alcotest.test_case "disabled-no-op" `Quick
            (with_obs test_disabled_no_op);
        ] );
      ( "exporters",
        [ Alcotest.test_case "formats" `Quick (with_obs test_exporters) ] );
      ( "integration",
        [
          Alcotest.test_case "chase-counters" `Quick
            (with_obs test_chase_moves_counters);
          Alcotest.test_case "conflict-counter" `Quick
            (with_obs test_conflict_counter);
          Alcotest.test_case "pipeline-vs-engine" `Quick
            (with_obs test_pipeline_matches_engine);
          Alcotest.test_case "pipeline-topk-conflict" `Quick
            (with_obs test_pipeline_topk_conflict_is_error);
          Alcotest.test_case "pipeline-topk-single-drain" `Quick
            (with_obs test_pipeline_topk_drains_base_once);
          Alcotest.test_case "pipeline-topk-base-budgeted" `Quick
            (with_obs test_pipeline_topk_base_chase_budgeted);
          Alcotest.test_case "pipeline-spans" `Quick
            (with_obs test_pipeline_spans_recorded);
          Alcotest.test_case "pipeline-clean-jobs-gauge" `Quick
            (with_obs test_pipeline_clean_sets_jobs);
        ] );
    ]
