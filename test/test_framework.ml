(* Tests for the interactive deduction framework (Fig. 3). *)

module Value = Relational.Value
module Schema = Relational.Schema
module Deduction = Framework.Deduction
module Mj = Datagen.Mj

let check = Alcotest.check
let value_testable = Alcotest.testable Value.pp Value.equal

let pref = Topk.Preference.of_occurrences Mj.stat

(* Example 9's incomplete setting: φ11 and the team half of φ6
   removed; te.team and te.arena are null after the chase. *)
let incomplete_spec =
  let rs = Rules.Ruleset.remove (Rules.Ruleset.remove Mj.ruleset "phi11") "phi6#2" in
  Core.Specification.with_ruleset Mj.specification rs

let test_complete_spec_resolves_in_zero_rounds () =
  let user _ = Alcotest.fail "user must not be consulted" in
  match Deduction.run ~pref ~user Mj.specification with
  | Deduction.Resolved { target; rounds } ->
      check Alcotest.int "zero rounds" 0 rounds;
      check (Alcotest.array value_testable) "target" Mj.expected_target target
  | _ -> Alcotest.fail "expected resolution"

let test_oracle_accepts_listed_target () =
  let user = Deduction.oracle_user ~truth:Mj.expected_target () in
  match Deduction.run ~k:10 ~pref ~user incomplete_spec with
  | Deduction.Resolved { target; rounds } ->
      check (Alcotest.array value_testable) "truth accepted" Mj.expected_target target;
      check Alcotest.int "one round suffices (truth in top-10)" 1 rounds
  | _ -> Alcotest.fail "expected resolution"

let test_oracle_fills_when_not_listed () =
  (* k = 1 and a preference that puts the truth out of the top
     candidate: the oracle must fill a null attribute instead. *)
  let arena = Schema.index Mj.stat_schema "arena" in
  let anti_pref =
    Topk.Preference.override pref
      [ (arena, Value.String "United Center", -5.0) ]
  in
  let consults = ref 0 in
  let oracle = Deduction.oracle_user ~truth:Mj.expected_target () in
  let user view =
    incr consults;
    oracle view
  in
  match Deduction.run ~k:1 ~pref:anti_pref ~user incomplete_spec with
  | Deduction.Resolved { target; rounds } ->
      check (Alcotest.array value_testable) "still reaches truth" Mj.expected_target
        target;
      check Alcotest.bool "needed >= 2 rounds" true (rounds >= 2);
      check Alcotest.bool "user consulted each round" true (!consults >= 2)
  | _ -> Alcotest.fail "expected resolution"

let test_user_fill_drives_chase () =
  (* Filling team lets axiom φ8 + φ11-free rules resolve... here we
     fill both nulls explicitly and expect immediate completion. *)
  let team = Schema.index Mj.stat_schema "team" in
  let arena = Schema.index Mj.stat_schema "arena" in
  let user view =
    match view.Deduction.null_attrs with
    | [] -> Alcotest.fail "no nulls left but user consulted"
    | attrs ->
        Deduction.Fill
          (List.map
             (fun a ->
               if a = team then (a, Value.String "Chicago Bulls")
               else if a = arena then (a, Value.String "United Center")
               else Alcotest.fail "unexpected null attr")
             attrs)
  in
  match Deduction.run ~pref ~user incomplete_spec with
  | Deduction.Resolved { target; rounds } ->
      check Alcotest.int "one round" 1 rounds;
      check (Alcotest.array value_testable) "filled target" Mj.expected_target target
  | _ -> Alcotest.fail "expected resolution"

let test_give_up () =
  let user _ = Deduction.Give_up in
  match Deduction.run ~pref ~user incomplete_spec with
  | Deduction.Unresolved { te; rounds } ->
      check Alcotest.int "zero completed rounds" 0 rounds;
      check Alcotest.bool "te has nulls" true (Array.exists Value.is_null te)
  | _ -> Alcotest.fail "expected Unresolved"

let test_max_rounds () =
  (* a user who always fills nothing useful cannot loop forever *)
  let rounds_seen = ref 0 in
  let user view =
    incr rounds_seen;
    match view.Deduction.null_attrs with
    | a :: _ -> Deduction.Fill [ (a, Value.String "<junk>") ]
    | [] -> Deduction.Give_up
  in
  match Deduction.run ~max_rounds:3 ~pref ~user incomplete_spec with
  | Deduction.Resolved _ -> () (* junk may still complete the tuple *)
  | Deduction.Unresolved _ -> check Alcotest.bool "bounded" true (!rounds_seen <= 3)
  | Deduction.Rejected _ -> () (* junk fills may break Church-Rosser *)

let test_rejected_on_non_cr () =
  let user _ = Alcotest.fail "never consulted" in
  match Deduction.run ~pref ~user Mj.non_cr_specification with
  | Deduction.Rejected _ -> ()
  | _ -> Alcotest.fail "expected Rejected"

let test_fill_non_null_rejected () =
  let fn = Schema.index Mj.stat_schema "FN" in
  let user _ = Deduction.Fill [ (fn, Value.String "Mike") ] in
  Alcotest.check_raises "cannot fill deduced attr"
    (Invalid_argument "Deduction.run: user filled a non-null attribute") (fun () ->
      ignore (Deduction.run ~pref ~user incomplete_spec))

let test_algorithms_all_work () =
  List.iter
    (fun algorithm ->
      let user = Deduction.oracle_user ~truth:Mj.expected_target () in
      match Deduction.run ~algorithm ~k:10 ~pref ~user incomplete_spec with
      | Deduction.Resolved { target; _ } ->
          check (Alcotest.array value_testable) "resolved" Mj.expected_target target
      | _ -> Alcotest.fail "expected resolution")
    [ `Ct; `Ct_h; `Rank_join ]

(* ------------------------------------------------------------------ *)
(* Revision (the Fig. 3 "No" branch)                                  *)
(* ------------------------------------------------------------------ *)

let test_revision_finds_phi12 () =
  match Framework.Revision.suggest Mj.non_cr_specification with
  | None -> Alcotest.fail "a culprit set must exist"
  | Some { drop; spec } ->
      check Alcotest.(list string) "exactly phi12" [ "phi12" ] drop;
      check Alcotest.bool "revised spec is CR" true
        (match Core.Is_cr.run spec with
        | Core.Is_cr.Church_rosser _ -> true
        | Core.Is_cr.Not_church_rosser _ -> false)

let test_revision_none_for_cr_spec () =
  check Alcotest.bool "no suggestion for a CR spec" true
    (Framework.Revision.suggest Mj.specification = None)

(* A Church-Rosser spec is answered from one IsCR run: the search
   does not deepen through [max_drops] rounds of re-running it. *)
let test_revision_cr_spec_one_run () =
  let fired f =
    let was = Obs.enabled () in
    Obs.set_enabled true;
    Obs.reset ();
    Fun.protect ~finally:(fun () -> Obs.set_enabled was) (fun () ->
        f ();
        match Obs.find "chase_steps_fired_total" with
        | Some (Obs.Counter n) -> n
        | _ -> Alcotest.fail "chase_steps_fired_total is not registered")
  in
  let one_run = fired (fun () -> ignore (Core.Is_cr.run Mj.specification : Core.Is_cr.verdict)) in
  check Alcotest.bool "the run fires steps" true (one_run > 0);
  check Alcotest.int "suggest fires one run's steps" one_run
    (fired (fun () ->
         ignore (Framework.Revision.suggest Mj.specification : Framework.Revision.outcome option)))

let test_revision_is_culprit_set () =
  check Alcotest.bool "phi12 is a culprit set" true
    (Framework.Revision.is_culprit_set Mj.non_cr_specification [ "phi12" ]);
  check Alcotest.bool "empty set is not" false
    (Framework.Revision.is_culprit_set Mj.non_cr_specification []);
  (* dropping an unrelated rule does not help *)
  check Alcotest.bool "phi1 alone is not" false
    (Framework.Revision.is_culprit_set Mj.non_cr_specification [ "phi1" ])

let test_revision_minimal () =
  (* adding a second, independent conflict: a master rule that
     contradicts phi12's direction as well — the suggester must drop
     a minimal set that restores CR, and the set must be irredundant *)
  match Framework.Revision.suggest Mj.non_cr_specification with
  | Some { drop; _ } ->
      List.iter
        (fun name ->
          check Alcotest.bool ("irredundant: " ^ name) false
            (Framework.Revision.is_culprit_set Mj.non_cr_specification
               (List.filter (fun n -> n <> name) drop)))
        drop
  | None -> Alcotest.fail "suggestion expected"

(* ------------------------------------------------------------------ *)
(* Cleaner (whole-relation pipeline)                                  *)
(* ------------------------------------------------------------------ *)

(* A dataset's entities as one flat relation, with the ground-truth
   clustering (ER is tested separately). *)
let flat_and_clusters (ds : Datagen.Entity_gen.dataset) =
  let flat =
    Relational.Relation.make ds.schema
      (List.concat_map
         (fun (e : Datagen.Entity_gen.entity) ->
           Relational.Relation.tuples e.instance)
         ds.entities)
  in
  let clusters, _ =
    List.fold_left
      (fun (acc, offset) (e : Datagen.Entity_gen.entity) ->
        let n = Relational.Relation.size e.instance in
        (List.init n (fun i -> offset + i) :: acc, offset + n))
      ([], 0) ds.entities
  in
  (flat, List.rev clusters)

let test_cleaner_on_med () =
  let ds = Datagen.Med_gen.dataset ~entities:30 ~seed:2024 () in
  let flat, clusters = flat_and_clusters ds in
  let report =
    Framework.Cleaner.clean ~clusters ~master:ds.master ds.ruleset flat
  in
  check Alcotest.int "one output tuple per entity" 30
    (Relational.Relation.size report.cleaned);
  check Alcotest.int "entity count" 30 report.entities;
  check Alcotest.int "outcome accounting" 30
    (report.complete + report.completed_by_topk + report.still_incomplete
   + report.rejected);
  check Alcotest.int "no rejected (generator is CR)" 0 report.rejected;
  check Alcotest.bool "most entities fully cleaned" true
    (report.complete + report.completed_by_topk >= 24);
  (* cleaned values should usually match ground truth *)
  let matches = ref 0.0 in
  List.iteri
    (fun i (e : Datagen.Entity_gen.entity) ->
      matches :=
        !matches
        +. Truth.Metrics.attribute_match_rate ~truth:e.truth
             (Relational.Tuple.values (Relational.Relation.tuple report.cleaned i)))
    ds.entities;
  check Alcotest.bool "cleaned relation close to truth" true
    (!matches /. 30.0 > 0.6)

(* A limited budget that never trips cleans exactly like no budget:
   the same report and the same chase steps fired. Top-1 completion
   resumes the state the budgeted chase drained, so no entity's base
   fixpoint is chased a second time. *)
let test_untripped_budget_fires_unlimited_steps () =
  let ds = Datagen.Med_gen.dataset ~entities:30 ~seed:2024 () in
  let flat, clusters = flat_and_clusters ds in
  let clean budget =
    let was = Obs.enabled () in
    Obs.set_enabled true;
    Obs.reset ();
    Fun.protect ~finally:(fun () -> Obs.set_enabled was) (fun () ->
        let r = Framework.Cleaner.clean ~clusters ~master:ds.master ?budget ds.ruleset flat in
        match Obs.find "chase_steps_fired_total" with
        | Some (Obs.Counter n) -> (r, n)
        | _ -> Alcotest.fail "no chase_steps_fired_total")
  in
  let free, free_fired = clean None in
  let limited, limited_fired =
    clean (Some (Robust.Budget.limits ~max_steps:1_000_000 ()))
  in
  check Alcotest.bool "some entity completed by top-1" true (free.completed_by_topk > 0);
  check Alcotest.int "the budget never tripped" 0 limited.retries_used;
  check Alcotest.int "same chase steps fired" free_fired limited_fired;
  let render r = Format.asprintf "%a" Framework.Cleaner.pp_report r in
  check Alcotest.string "same report" (render free) (render limited);
  check Alcotest.bool "same outcomes" true (free.outcomes = limited.outcomes);
  check Alcotest.bool "same cleaned rows" true
    (List.for_all2 Relational.Tuple.equal_values
       (Relational.Relation.tuples free.cleaned)
       (Relational.Relation.tuples limited.cleaned))

let test_cleaner_idempotent_on_complete () =
  (* Re-cleaning the fully-cleaned tuples (as singleton entities)
     must be a fixpoint: every entity is already its own target. *)
  let ds = Datagen.Med_gen.dataset ~entities:20 ~seed:808 () in
  let flat =
    Relational.Relation.make ds.schema
      (List.concat_map
         (fun (e : Datagen.Entity_gen.entity) ->
           Relational.Relation.tuples e.instance)
         ds.entities)
  in
  let clusters, _ =
    List.fold_left
      (fun (acc, offset) (e : Datagen.Entity_gen.entity) ->
        let n = Relational.Relation.size e.instance in
        (List.init n (fun i -> offset + i) :: acc, offset + n))
      ([], 0) ds.entities
  in
  let first =
    Framework.Cleaner.clean ~clusters:(List.rev clusters) ~master:ds.master
      ds.ruleset flat
  in
  (* keep only the entities that cleaned completely *)
  let complete_rows =
    List.filteri
      (fun i _ ->
        match List.assoc i first.outcomes with
        | Framework.Cleaner.Complete | Framework.Cleaner.Completed_by_topk -> true
        | _ -> false)
      (Relational.Relation.tuples first.cleaned)
  in
  check Alcotest.bool "some complete rows" true (complete_rows <> []);
  let clean_relation = Relational.Relation.make ds.schema complete_rows in
  let singletons = List.mapi (fun i _ -> [ i ]) complete_rows in
  let second =
    Framework.Cleaner.clean ~clusters:singletons ~master:ds.master ds.ruleset
      clean_relation
  in
  check Alcotest.int "all entities stay complete"
    (List.length complete_rows)
    (second.complete + second.completed_by_topk);
  List.iter2
    (fun a b ->
      check Alcotest.bool "fixpoint" true (Relational.Tuple.equal_values a b))
    (Relational.Relation.tuples clean_relation)
    (Relational.Relation.tuples second.cleaned)

let test_cleaner_argument_validation () =
  let ds = Datagen.Med_gen.dataset ~entities:2 ~seed:3 () in
  let flat =
    Relational.Relation.make ds.schema
      (List.concat_map
         (fun (e : Datagen.Entity_gen.entity) ->
           Relational.Relation.tuples e.instance)
         ds.entities)
  in
  (match Framework.Cleaner.clean ds.ruleset flat with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "must require a grouping");
  let er =
    Er.Resolver.default_config ~key_attrs:[ 0 ] ~compare_attrs:[ (0, 1.0) ]
  in
  match Framework.Cleaner.clean ~er ~clusters:[ [ 0 ] ] ds.ruleset flat with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "must reject both groupings"

(* ------------------------------------------------------------------ *)
(* Compile cache                                                      *)
(* ------------------------------------------------------------------ *)

let test_compile_cache_reuses_artifacts () =
  let module Cache = Framework.Compile_cache in
  let module Spec = Core.Specification in
  let counter name =
    match Obs.find name with
    | Some (Obs.Counter n) -> n
    | _ -> Alcotest.failf "counter %s not registered" name
  in
  let was = Obs.enabled () in
  Obs.set_enabled true;
  Obs.reset ();
  Fun.protect ~finally:(fun () ->
      Obs.set_enabled was;
      Cache.clear ())
  @@ fun () ->
  Cache.clear ();
  check Alcotest.int "cache empty after clear" 0 (Cache.size ());
  let c1 = Cache.compile Mj.specification in
  let c2 = Cache.compile Mj.specification in
  check Alcotest.bool "same spec returns the same artifact" true (c1 == c2);
  (* The key is the specification's identity: one rebuilt from fresh
     tuple arrays (same values, same ruleset and master) is another
     specification, with an artifact of its own. *)
  let rebuilt =
    let entity = Spec.entity Mj.specification in
    Spec.make_exn
      ~template:(Spec.template Mj.specification)
      ~entity:
        (Relational.Relation.make
           (Relational.Relation.schema entity)
           (List.map
              (fun t ->
                Relational.Tuple.make
                  (Array.copy (Relational.Tuple.values t)))
              (Relational.Relation.tuples entity)))
      ?master:(Spec.master Mj.specification)
      (Spec.ruleset Mj.specification)
  in
  let c3 = Cache.compile rebuilt in
  check Alcotest.bool "content-equal rebuilt spec misses" true (not (c1 == c3));
  check Alcotest.bool "its artifact is then reused" true (c3 == Cache.compile rebuilt);
  check Alcotest.int "two artifacts cached" 2 (Cache.size ());
  check Alcotest.int "two hits" 2 (counter "compile_cache_hits_total");
  check Alcotest.int "two misses" 2 (counter "compile_cache_misses_total");
  (* A different template is a different artifact. *)
  let template = Array.copy (Spec.template Mj.specification) in
  template.(Schema.index Mj.stat_schema "league") <- Value.String "SL";
  let c4 = Cache.compile (Spec.with_template Mj.specification template) in
  check Alcotest.bool "different template misses" true (not (c1 == c4));
  Cache.clear ();
  check Alcotest.int "clear empties the cache" 0 (Cache.size ())

(* An artifact lives as long as its specification: once nothing else
   holds the specification, a major collection drops both. *)
let test_compile_cache_artifact_dies_with_spec () =
  let module Cache = Framework.Compile_cache in
  Fun.protect ~finally:Cache.clear @@ fun () ->
  Cache.clear ();
  let compile_tiny () =
    let schema = Schema.make "tiny" [ "a" ] in
    let ruleset = Rules.Ruleset.make_exn ~include_axioms:false ~schema [] in
    let entity =
      Relational.Relation.make schema [ Relational.Tuple.make [| Value.Int 1 |] ]
    in
    ignore
      (Cache.compile (Core.Specification.make_exn ~entity ruleset)
        : Core.Is_cr.compiled)
  in
  (Sys.opaque_identity compile_tiny) ();
  check Alcotest.int "cached while the spec may be live" 1 (Cache.size ());
  Gc.full_major ();
  check Alcotest.int "collected with its spec" 0 (Cache.size ());
  (* A spec still held keeps its artifact through the collection. *)
  ignore (Cache.compile Mj.specification : Core.Is_cr.compiled);
  Gc.full_major ();
  check Alcotest.int "a live spec keeps its artifact" 1 (Cache.size ())

(* Cleaning compiles each entity directly: a batch clean (serial and
   on worker domains) and a session's open and updates leave the
   process-wide cache empty, while a repeated whole-spec chase task
   still hits it. *)
let test_cleaning_retains_nothing () =
  let module Cache = Framework.Compile_cache in
  Fun.protect ~finally:Cache.clear @@ fun () ->
  Cache.clear ();
  let ds = Datagen.Med_gen.dataset ~entities:12 ~seed:77 () in
  let flat = Datagen.Update_gen.flatten ds in
  let er =
    {
      (Er.Resolver.default_config ~key_attrs:ds.config.keys
         ~compare_attrs:(List.map (fun a -> (a, 1.0)) ds.config.keys))
      with
      use_soundex = true;
      threshold = 0.72;
    }
  in
  List.iter
    (fun jobs ->
      ignore
        (Framework.Cleaner.clean ~er ~master:ds.master ~jobs ds.ruleset flat
          : Framework.Cleaner.report);
      check Alcotest.int (Printf.sprintf "clean at jobs %d caches nothing" jobs) 0
        (Cache.size ()))
    [ 1; 2 ];
  let session = Framework.Session.create ~er ~master:ds.master ds.ruleset flat in
  List.iter
    (fun u ->
      match Framework.Session.update session u with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "update rejected: %s" (Robust.Error.to_string e))
    (Datagen.Update_gen.generate ~n:6 ~seed:5 ds);
  check Alcotest.int "session open and updates cache nothing" 0 (Cache.size ());
  let chase () =
    match Framework.Pipeline.execute Mj.specification Framework.Pipeline.Chase with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "chase failed: %s" (Robust.Error.to_string e)
  in
  let hits0 = (Cache.stats ()).hits in
  chase ();
  chase ();
  check Alcotest.int "a repeated chase task hits" 1 ((Cache.stats ()).hits - hits0);
  check Alcotest.int "one artifact cached" 1 (Cache.size ())

(* ------------------------------------------------------------------ *)
(* Facade-level graceful degradation (QCheck)                         *)
(* ------------------------------------------------------------------ *)

(* A small Med corpus on disk, shared by every property iteration:
   the facade consumes file paths, so this is the full load→execute
   path — exactly what the service's budget-relax retry runs. *)
let relax_corpus =
  lazy
    (let dir = Filename.temp_file "relacc_relax" "" in
     Sys.remove dir;
     Sys.mkdir dir 0o755;
     let ds = Datagen.Med_gen.dataset ~entities:16 ~seed:42 () in
     let ( / ) = Filename.concat in
     Relational.Csv.write_file (dir / "master.csv")
       (Relational.Csv.relation_to_rows ds.Datagen.Entity_gen.master);
     let oc = open_out (dir / "rules.txt") in
     output_string oc
       (Rules.Parser.to_string ~schema:ds.schema ~master:ds.master_schema
          (Rules.Ruleset.user_rules ds.ruleset));
     close_out oc;
     let entity_files =
       List.mapi
         (fun i (e : Datagen.Entity_gen.entity) ->
           let path = dir / Printf.sprintf "e%d.csv" i in
           Relational.Csv.write_file path
             (Relational.Csv.relation_to_rows e.instance);
           path)
         ds.entities
     in
     (Array.of_list entity_files, dir / "master.csv", dir / "rules.txt"))

(* Canonical rendering of an outcome, for whole-report equality. *)
let chase_fingerprint (report : Framework.Pipeline.report) =
  match report.outcome with
  | Chased (Deduced { te; complete }) ->
      Printf.sprintf "deduced/%b/%s" complete
        (String.concat "|" (Array.to_list (Array.map Value.to_string te)))
  | Chased (Not_church_rosser { rule; _ }) -> "ncr/" ^ rule
  | Chased (Chase_exhausted _) -> "exhausted"
  | Ranked _ | Cleaned _ -> "other"

(* The service's degradation ladder, at the facade: arm a budget that
   trips, then retry under [Budget.relax] until the chase finishes.
   The property is soundness of the ladder — wherever it lands, the
   report is the one an unlimited run produces. *)
let relax_retry_reaches_unlimited_report =
  QCheck.Test.make ~count:25 ~name:"relax-retry converges to the unlimited report"
    QCheck.(pair (int_range 0 15) (int_range 1 6))
    (fun (ei, steps0) ->
      let entity_files, master, rules = Lazy.force relax_corpus in
      let entity = entity_files.(ei) in
      let run limits =
        Framework.Pipeline.run
          (Framework.Pipeline.config ~master ~limits ~entity ~rules
             Framework.Pipeline.Chase)
      in
      let reference =
        match run Robust.Budget.unlimited with
        | Ok r -> chase_fingerprint r
        | Error e ->
            QCheck.Test.fail_reportf "unlimited run failed: %s"
              (Robust.Error.to_string e)
      in
      let rec ladder limits rounds =
        if rounds > 20 then
          QCheck.Test.fail_reportf "no convergence after %d relaxations" rounds
        else
          match run limits with
          | Ok { outcome = Chased (Chase_exhausted _); _ } ->
              ladder (Robust.Budget.relax limits) (rounds + 1)
          | Ok r -> chase_fingerprint r
          | Error e ->
              QCheck.Test.fail_reportf "budgeted run failed: %s"
                (Robust.Error.to_string e)
      in
      let final = ladder (Robust.Budget.limits ~max_steps:steps0 ()) 0 in
      if String.equal final reference then true
      else
        QCheck.Test.fail_reportf "ladder landed on %s, unlimited says %s" final
          reference)

let () =
  Alcotest.run "framework"
    [
      ( "deduction",
        [
          Alcotest.test_case "complete spec, zero rounds" `Quick
            test_complete_spec_resolves_in_zero_rounds;
          Alcotest.test_case "oracle accepts listed target" `Quick
            test_oracle_accepts_listed_target;
          Alcotest.test_case "oracle fills when unlisted" `Quick
            test_oracle_fills_when_not_listed;
          Alcotest.test_case "user fills drive the chase" `Quick
            test_user_fill_drives_chase;
          Alcotest.test_case "give up" `Quick test_give_up;
          Alcotest.test_case "max rounds" `Quick test_max_rounds;
          Alcotest.test_case "rejected on non-CR" `Quick test_rejected_on_non_cr;
          Alcotest.test_case "fill non-null rejected" `Quick
            test_fill_non_null_rejected;
          Alcotest.test_case "all algorithms" `Quick test_algorithms_all_work;
        ] );
      ( "cleaner",
        [
          Alcotest.test_case "cleans Med" `Quick test_cleaner_on_med;
          Alcotest.test_case "an untripped budget fires the unlimited steps" `Quick
            test_untripped_budget_fires_unlimited_steps;
          Alcotest.test_case "idempotent on complete output" `Quick
            test_cleaner_idempotent_on_complete;
          Alcotest.test_case "argument validation" `Quick
            test_cleaner_argument_validation;
        ] );
      ( "compile-cache",
        [
          Alcotest.test_case "reuses artifacts" `Quick
            test_compile_cache_reuses_artifacts;
          Alcotest.test_case "artifact dies with its spec" `Quick
            test_compile_cache_artifact_dies_with_spec;
          Alcotest.test_case "cleaning retains nothing" `Quick
            test_cleaning_retains_nothing;
        ] );
      ( "degradation",
        [ QCheck_alcotest.to_alcotest relax_retry_reaches_unlimited_report ] );
      ( "revision",
        [
          Alcotest.test_case "finds phi12" `Quick test_revision_finds_phi12;
          Alcotest.test_case "none for CR spec" `Quick test_revision_none_for_cr_spec;
          Alcotest.test_case "culprit sets" `Quick test_revision_is_culprit_set;
          Alcotest.test_case "minimality" `Quick test_revision_minimal;
          Alcotest.test_case "a CR spec costs one run" `Quick test_revision_cr_spec_one_run;
        ] );
    ]
