(* Tests for the dataset generators: determinism, paper-statistics
   conformance, the Church-Rosser-by-construction guarantee, the
   annotator, and the Rest/Syn structure. *)

module Value = Relational.Value
module Schema = Relational.Schema
module Relation = Relational.Relation
module Entity_gen = Datagen.Entity_gen
module Med = Datagen.Med_gen
module Cfp = Datagen.Cfp_gen
module Rest = Datagen.Rest_gen
module Syn = Datagen.Syn_gen

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Generic generator                                                  *)
(* ------------------------------------------------------------------ *)

let small_med () = Med.dataset ~entities:60 ~seed:77 ()

let test_determinism () =
  let a = small_med () and b = small_med () in
  List.iter2
    (fun (x : Entity_gen.entity) (y : Entity_gen.entity) ->
      check Alcotest.int "same size" (Relation.size x.instance) (Relation.size y.instance);
      List.iter2
        (fun tx ty ->
          check Alcotest.bool "same tuples" true (Relational.Tuple.equal_values tx ty))
        (Relation.tuples x.instance) (Relation.tuples y.instance))
    a.entities b.entities

let test_seed_changes_data () =
  let a = Med.dataset ~entities:20 ~seed:1 () in
  let b = Med.dataset ~entities:20 ~seed:2 () in
  let flat ds =
    List.concat_map
      (fun (e : Entity_gen.entity) ->
        List.map
          (fun t -> Array.to_list (Relational.Tuple.values t))
          (Relation.tuples e.instance))
      ds.Entity_gen.entities
  in
  check Alcotest.bool "different seeds differ" true (flat a <> flat b)

let test_med_statistics () =
  let ds = small_med () in
  check Alcotest.int "30 attributes" 30 (Schema.arity ds.schema);
  check Alcotest.int "form1 rules" 95 (Rules.Ruleset.form1_count ds.ruleset);
  check Alcotest.int "form2 rules" 15 (Rules.Ruleset.form2_count ds.ruleset);
  check Alcotest.int "master arity 5" 5 (Schema.arity ds.master_schema);
  (* coverage ~ 2400/2700 *)
  let cover = float_of_int (Relation.size ds.master) /. 60.0 in
  check Alcotest.bool "master coverage ~0.89" true (cover > 0.8 && cover < 0.95)

let test_cfp_statistics () =
  let ds = Cfp.dataset ~seed:3 () in
  check Alcotest.int "22 attributes" 22 (Schema.arity ds.schema);
  check Alcotest.int "17-col master" 17 (Schema.arity ds.master_schema);
  check Alcotest.int "form2 = 15" 15 (Rules.Ruleset.form2_count ds.ruleset);
  check Alcotest.int "100 entities" 100 (List.length ds.entities);
  let tuples =
    List.fold_left
      (fun acc (e : Entity_gen.entity) -> acc + Relation.size e.instance)
      0 ds.entities
  in
  check Alcotest.bool "±40% of 503 tuples" true (tuples > 300 && tuples < 700)

let test_generated_specs_are_church_rosser () =
  (* The DESIGN.md §5 guarantee, sampled. *)
  List.iter
    (fun (ds : Entity_gen.dataset) ->
      List.iter
        (fun e ->
          match Core.Is_cr.run (Entity_gen.spec_for ds e) with
          | Core.Is_cr.Church_rosser _ -> ()
          | Core.Is_cr.Not_church_rosser { rule; reason } ->
              Alcotest.failf "entity %d not CR (%s: %s)" e.Entity_gen.id rule reason)
        ds.entities)
    [ small_med (); Cfp.dataset ~seed:13 () ]

let cr_random_seeds =
  QCheck.Test.make ~count:12 ~name:"generated Med specs are Church-Rosser (any seed)"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let ds = Med.dataset ~entities:8 ~seed () in
      List.for_all
        (fun e ->
          match Core.Is_cr.run (Entity_gen.spec_for ds e) with
          | Core.Is_cr.Church_rosser _ -> true
          | Core.Is_cr.Not_church_rosser _ -> false)
        ds.entities)

let test_validate_config_errors () =
  let c = Med.config ~entities:5 () in
  check Alcotest.bool "valid" true (Result.is_ok (Entity_gen.validate_config c));
  let bad = { c with keys = [ 0; 5 ] } in
  (* attr 5 is a chain counter in the Med layout: two roles *)
  check Alcotest.bool "two roles rejected" true
    (Result.is_error (Entity_gen.validate_config bad))

let test_with_master_size () =
  let ds = small_med () in
  let t = Entity_gen.with_master_size ds 10 in
  check Alcotest.int "truncated" 10 (Relation.size t.Entity_gen.master);
  let z = Entity_gen.with_master_size ds 0 in
  check Alcotest.int "empty" 0 (Relation.size z.Entity_gen.master)

let test_restrict_rules () =
  let ds = small_med () in
  let f1 = Entity_gen.restrict_rules ds `Form1_only in
  check Alcotest.int "no form2 left" 0 (Rules.Ruleset.form2_count f1.Entity_gen.ruleset);
  let f2 = Entity_gen.restrict_rules ds `Form2_only in
  check Alcotest.int "no form1 left" 0 (Rules.Ruleset.form1_count f2.Entity_gen.ruleset)

let test_annotate_reachable_and_truth_biased () =
  let ds = small_med () in
  List.iter
    (fun (e : Entity_gen.entity) ->
      let annotated = Entity_gen.annotate ds e in
      Array.iteri
        (fun a v ->
          if not (Value.is_null v) then begin
            (* every annotated value is observable: in the instance
               column or in master *)
            let in_column =
              Array.exists (fun w -> Value.equal v w) (Relation.column e.instance a)
            in
            let in_master =
              List.exists
                (fun row ->
                  List.exists
                    (fun i -> Value.equal (Relational.Tuple.get row i) v)
                    (List.init (Schema.arity ds.master_schema) Fun.id))
                (Relation.tuples ds.master)
            in
            if not (in_column || in_master) then
              Alcotest.failf "annotated value %s unobservable" (Value.to_string v)
          end)
        annotated)
    ds.entities

let test_annotate_matches_truth_often () =
  let ds = small_med () in
  let agree = ref 0.0 in
  List.iter
    (fun (e : Entity_gen.entity) ->
      agree :=
        !agree
        +. Truth.Metrics.attribute_match_rate ~truth:e.truth (Entity_gen.annotate ds e))
    ds.entities;
  let rate = !agree /. float_of_int (List.length ds.entities) in
  check Alcotest.bool "annotation mostly equals truth" true (rate > 0.6)

(* The annotator's majority counts [Value.equal] classes: [String "5"]
   and [Int 5] are two values, so neither pair outvotes three [Int 6]s
   (a vote keyed by the rendering "5" counted four). *)
let test_annotate_majority_by_value () =
  let ds = small_med () in
  let a = List.hd (Entity_gen.plains ds.config) in
  let arity = Schema.arity ds.schema in
  let row v = Relational.Tuple.make (Array.init arity (fun b -> if b = a then v else Value.Null)) in
  let cells = Value.[ String "5"; String "5"; Int 5; Int 5; Int 6; Int 6; Int 6 ] in
  let e = { (List.hd ds.entities) with instance = Relation.make ds.schema (List.map row cells) } in
  check (Alcotest.testable Value.pp Value.equal) "majority" (Value.Int 6) (Entity_gen.annotate ds e).(a)

(* ------------------------------------------------------------------ *)
(* Rest                                                               *)
(* ------------------------------------------------------------------ *)

let rest_ds () = Rest.generate (Rest.default_config ~restaurants:40 ~seed:5 ())

let test_rest_structure () =
  let ds = rest_ds () in
  check Alcotest.int "40 restaurants" 40 (List.length ds.restaurants);
  check Alcotest.int "132 rules" 132 (Rules.Ruleset.size ds.ruleset);
  check Alcotest.bool "all form 1" true (Rules.Ruleset.form2_count ds.ruleset = 0)

let test_rest_monotone_reports () =
  (* per source, closed? never flips back to open *)
  let ds = rest_ds () in
  let closed = Rest.closed_attr ds in
  List.iter
    (fun (r : Rest.restaurant) ->
      let by_source = Hashtbl.create 12 in
      List.iter
        (fun t ->
          let s = Relational.Tuple.source t in
          let w = Relational.Tuple.snapshot t in
          let b =
            match Relational.Tuple.get t closed with
            | Value.Bool b -> b
            | _ -> Alcotest.fail "closed must be boolean"
          in
          Hashtbl.replace by_source s ((w, b) :: Option.value ~default:[] (Hashtbl.find_opt by_source s)))
        (Relation.tuples r.instance);
      Hashtbl.iter
        (fun _ claims ->
          let sorted = List.sort compare claims in
          let rec monotone = function
            | (_, true) :: (_, false) :: _ -> false
            | _ :: rest -> monotone rest
            | [] -> true
          in
          if not (monotone sorted) then Alcotest.fail "non-monotone source")
        by_source)
    ds.restaurants

let test_rest_specs_church_rosser_and_sound () =
  let ds = rest_ds () in
  let closed = Rest.closed_attr ds in
  List.iter
    (fun (r : Rest.restaurant) ->
      match Core.Is_cr.run (Rest.spec_for ds r) with
      | Core.Is_cr.Not_church_rosser _ -> Alcotest.fail "rest spec must be CR"
      | Core.Is_cr.Church_rosser inst -> (
          (* a chase-certain closed=true requires a flip, and flips
             for genuinely open restaurants exist only for the rare
             biased mid-crawl starts *)
          match Core.Instance.te_value inst closed with
          | Value.Bool true when not r.closed_truth -> () (* rare but legal *)
          | _ -> ()))
    ds.restaurants

let test_rest_claims_cover_observations () =
  let ds = rest_ds () in
  let claims = Rest.claims ds in
  let tuples =
    List.fold_left (fun acc (r : Rest.restaurant) -> acc + Relation.size r.instance) 0
      ds.restaurants
  in
  check Alcotest.int "one claim per observation" tuples (List.length claims)

(* ------------------------------------------------------------------ *)
(* Syn                                                                *)
(* ------------------------------------------------------------------ *)

let test_syn_structure () =
  let ds = Syn.dataset ~ie:120 ~im:40 ~sigma:40 ~seed:9 () in
  check Alcotest.int "20 attributes" 20 (Schema.arity ds.schema);
  let rs = Core.Specification.ruleset ds.spec in
  check Alcotest.int "sigma honoured" 40 (Rules.Ruleset.size rs);
  check Alcotest.int "75/25 split (form1)" 30 (Rules.Ruleset.form1_count rs);
  check Alcotest.int "75/25 split (form2)" 10 (Rules.Ruleset.form2_count rs);
  check Alcotest.int "ie honoured" 120
    (Relation.size (Core.Specification.entity ds.spec));
  match Core.Specification.master ds.spec with
  | Some m -> check Alcotest.int "im honoured" 40 (Relation.size m)
  | None -> Alcotest.fail "master expected"

let test_syn_null_attrs_as_designed () =
  let ds = Syn.dataset ~ie:150 ~im:50 ~sigma:60 ~seed:10 () in
  match Core.Is_cr.run ds.spec with
  | Core.Is_cr.Not_church_rosser _ -> Alcotest.fail "syn must be CR"
  | Core.Is_cr.Church_rosser inst ->
      let nulls =
        List.filter
          (fun a -> Value.is_null (Core.Instance.te_value inst a))
          (List.init 20 Fun.id)
      in
      check Alcotest.(list int) "plains stay null" ds.null_attrs_expected nulls

let test_syn_sigma_bounds () =
  check Alcotest.bool "pool size sane" true (Syn.rule_pool_size () >= 100);
  Alcotest.check_raises "sigma too large"
    (Invalid_argument "Syn_gen: sigma exceeds the rule pool") (fun () ->
      ignore (Syn.dataset ~sigma:10_000 ()))

let test_syn_compat_rule_constrains () =
  (* a candidate pairing arena x0 with the wrong coach must fail
     check when the pairing is declared in master *)
  let ds = Syn.dataset ~ie:150 ~im:50 ~sigma:60 ~seed:10 () in
  let compiled = Core.Is_cr.compile ds.spec in
  match Core.Is_cr.run_compiled compiled with
  | Core.Is_cr.Not_church_rosser _ -> Alcotest.fail "CR expected"
  | Core.Is_cr.Church_rosser inst ->
      let te = Core.Instance.te inst in
      let candidate = Array.copy te in
      candidate.(17) <- Value.String "syn_a17_x0";
      candidate.(18) <- Value.String "syn_a18_x0";
      candidate.(19) <- Value.String "syn_a19_x1";
      check Alcotest.bool "compatible pair accepted" true
        (Core.Is_cr.check compiled candidate);
      candidate.(18) <- Value.String "syn_a18_x2";
      check Alcotest.bool "incompatible pair rejected" false
        (Core.Is_cr.check compiled candidate)

let () =
  Alcotest.run "datagen"
    [
      ( "entity-gen",
        [
          Alcotest.test_case "deterministic in seed" `Quick test_determinism;
          Alcotest.test_case "seed changes data" `Quick test_seed_changes_data;
          Alcotest.test_case "Med statistics" `Quick test_med_statistics;
          Alcotest.test_case "CFP statistics" `Quick test_cfp_statistics;
          Alcotest.test_case "Church-Rosser by construction" `Slow
            test_generated_specs_are_church_rosser;
          Alcotest.test_case "config validation" `Quick test_validate_config_errors;
          Alcotest.test_case "master truncation" `Quick test_with_master_size;
          Alcotest.test_case "rule-form restriction" `Quick test_restrict_rules;
          Alcotest.test_case "annotate is observable" `Quick
            test_annotate_reachable_and_truth_biased;
          Alcotest.test_case "annotate ~ truth" `Quick test_annotate_matches_truth_often;
          Alcotest.test_case "annotate majority by value" `Quick
            test_annotate_majority_by_value;
          QCheck_alcotest.to_alcotest cr_random_seeds;
        ] );
      ( "rest",
        [
          Alcotest.test_case "structure" `Quick test_rest_structure;
          Alcotest.test_case "monotone reports" `Quick test_rest_monotone_reports;
          Alcotest.test_case "specs CR" `Slow test_rest_specs_church_rosser_and_sound;
          Alcotest.test_case "claims cover observations" `Quick
            test_rest_claims_cover_observations;
        ] );
      ( "syn",
        [
          Alcotest.test_case "structure" `Quick test_syn_structure;
          Alcotest.test_case "null attrs" `Quick test_syn_null_attrs_as_designed;
          Alcotest.test_case "sigma bounds" `Quick test_syn_sigma_bounds;
          Alcotest.test_case "compat rule constrains" `Quick
            test_syn_compat_rule_constrains;
        ] );
    ]
