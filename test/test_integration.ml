(* Cross-module integration tests: the full pipelines a user of the
   library would run, plus smoke tests of the experiment drivers. *)

module Value = Relational.Value
module Schema = Relational.Schema
module Relation = Relational.Relation
module Mj = Datagen.Mj

let check = Alcotest.check
let value_testable = Alcotest.testable Value.pp Value.equal

(* ------------------------------------------------------------------ *)
(* CSV → rules text → chase → top-k, all through serialized forms     *)
(* ------------------------------------------------------------------ *)

let test_serialized_pipeline () =
  (* Serialize the MJ fixture through CSV and rule text, reload, and
     re-deduce: the result must be identical to the in-memory run. *)
  let stat_rows = Relational.Csv.relation_to_rows Mj.stat in
  let nba_rows = Relational.Csv.relation_to_rows Mj.nba in
  let stat2 =
    Relational.Csv.relation_of_rows ~name:"stat"
      (Relational.Csv.parse_string (Relational.Csv.render stat_rows))
  in
  let nba2 =
    Relational.Csv.relation_of_rows ~name:"nba"
      (Relational.Csv.parse_string (Relational.Csv.render nba_rows))
  in
  let schema = Relation.schema stat2 in
  let master_schema = Relation.schema nba2 in
  let rules_text =
    Rules.Parser.to_string ~schema:Mj.stat_schema ~master:Mj.nba_schema
      (Rules.Ruleset.user_rules Mj.ruleset)
  in
  let rules = Rules.Parser.parse_exn ~schema ~master:master_schema rules_text in
  let rs = Rules.Ruleset.make_exn ~schema ~master:master_schema rules in
  let spec = Core.Specification.make_exn ~entity:stat2 ~master:nba2 rs in
  match Core.Is_cr.run spec with
  | Core.Is_cr.Church_rosser inst ->
      check (Alcotest.array value_testable) "same deduction after roundtrip"
        Mj.expected_target (Core.Instance.te inst)
  | Core.Is_cr.Not_church_rosser _ -> Alcotest.fail "roundtripped spec must be CR"

(* ------------------------------------------------------------------ *)
(* ER → chase: resolve entities from a flat file, then deduce         *)
(* ------------------------------------------------------------------ *)

let test_er_then_chase () =
  let ds = Datagen.Med_gen.dataset ~entities:25 ~seed:123 () in
  let flat =
    Relation.make ds.schema
      (List.concat_map
         (fun (e : Datagen.Entity_gen.entity) -> Relation.tuples e.instance)
         ds.entities)
  in
  let config =
    {
      (Er.Resolver.default_config
         ~key_attrs:[ Schema.index ds.schema "name" ]
         ~compare_attrs:[ (Schema.index ds.schema "name", 1.0) ])
      with
      use_soundex = true;
      threshold = 0.72;
    }
  in
  let clusters = Er.Resolver.cluster config flat in
  let complete = ref 0 in
  List.iter
    (fun members ->
      let instance = Relation.make ds.schema (List.map (Relation.tuple flat) members) in
      let spec =
        Core.Specification.make_exn ~entity:instance ~master:ds.master ds.ruleset
      in
      match Core.Is_cr.run spec with
      | Core.Is_cr.Church_rosser inst ->
          if Core.Instance.te_complete inst then incr complete
      | Core.Is_cr.Not_church_rosser _ -> ())
    clusters;
  check Alcotest.bool "pipeline deduces complete targets" true (!complete > 0)

(* ------------------------------------------------------------------ *)
(* Mined rules feed the chase                                         *)
(* ------------------------------------------------------------------ *)

let test_mined_rules_deduce () =
  let ds = Datagen.Med_gen.dataset ~entities:40 ~seed:55 () in
  let examples =
    List.map
      (fun (e : Datagen.Entity_gen.entity) ->
        { Discovery.Miner.instance = e.instance; target = e.truth })
      ds.entities
  in
  let mined = Discovery.Miner.discover ds.schema examples in
  check Alcotest.bool "rules mined" true (List.length mined > 10);
  let rs =
    Rules.Ruleset.make_exn ~schema:ds.schema
      (List.map (fun (m : Discovery.Miner.mined) -> m.rule) mined)
  in
  (* Mined rule sets are not guaranteed Church-Rosser; measure how
     far they get on fresh entities. *)
  let fresh = Datagen.Med_gen.dataset ~entities:15 ~seed:56 () in
  let deduced = ref 0 and total = ref 0 in
  List.iter
    (fun (e : Datagen.Entity_gen.entity) ->
      let spec = Core.Specification.make_exn ~entity:e.instance rs in
      match Core.Is_cr.run spec with
      | Core.Is_cr.Church_rosser inst ->
          Array.iter
            (fun v ->
              incr total;
              if not (Value.is_null v) then incr deduced)
            (Core.Instance.te inst)
      | Core.Is_cr.Not_church_rosser _ -> ())
    fresh.entities;
  check Alcotest.bool "mined rules deduce a majority of attributes" true
    (!total > 0 && float_of_int !deduced /. float_of_int !total > 0.5)

(* ------------------------------------------------------------------ *)
(* Permutation invariance (grounding + Church-Rosser, end to end)     *)
(* ------------------------------------------------------------------ *)

(* Shuffling the tuples of Ie or the rules of Σ must not change the
   deduced target of a Church-Rosser specification: this exercises
   the signature-based grounding, the event index, and the chase all
   at once. *)
let permutation_invariance =
  QCheck.Test.make ~count:25 ~name:"deduction invariant under tuple/rule shuffles"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let ds = Datagen.Med_gen.dataset ~entities:2 ~seed () in
      List.for_all
        (fun (e : Datagen.Entity_gen.entity) ->
          let baseline =
            match Core.Is_cr.run (Datagen.Entity_gen.spec_for ds e) with
            | Core.Is_cr.Church_rosser inst -> Core.Instance.te inst
            | Core.Is_cr.Not_church_rosser _ -> [||]
          in
          baseline <> [||]
          &&
          let g = Util.Prng.create (seed + 7) in
          let shuffled_tuples =
            let arr = Array.of_list (Relation.tuples e.instance) in
            Util.Prng.shuffle g arr;
            Relation.make ds.schema (Array.to_list arr)
          in
          let shuffled_rules =
            let arr =
              Array.of_list (Rules.Ruleset.user_rules ds.ruleset)
            in
            Util.Prng.shuffle g arr;
            Rules.Ruleset.make_exn ~schema:ds.schema
              ~master:ds.master_schema (Array.to_list arr)
          in
          let spec =
            Core.Specification.make_exn ~entity:shuffled_tuples
              ~master:ds.master shuffled_rules
          in
          match Core.Is_cr.run spec with
          | Core.Is_cr.Church_rosser inst ->
              Array.for_all2 Value.equal baseline (Core.Instance.te inst)
          | Core.Is_cr.Not_church_rosser _ -> false)
        ds.entities)

(* ------------------------------------------------------------------ *)
(* Experiment drivers smoke                                           *)
(* ------------------------------------------------------------------ *)

let test_registry_complete () =
  check Alcotest.int "16 experiments" 16 (List.length Experiments.Registry.ids);
  List.iter
    (fun id ->
      check Alcotest.bool (id ^ " described") true
        (Experiments.Registry.describe id <> None))
    Experiments.Registry.ids;
  check Alcotest.bool "unknown id" true (Experiments.Registry.run "nope" = None)

let test_exp1_smoke () =
  let r = Experiments.Exp1.complete_targets ~entities:40 ~seed:2 () in
  check Alcotest.int "two rows" 2 (List.length (Experiments.Report.rows r));
  List.iter
    (fun (_, values) ->
      match values with
      | [ complete; non_cr ] ->
          check (Alcotest.float 1e-9) "no non-CR" 0.0 non_cr;
          check Alcotest.bool "percentage range" true
            (complete >= 0.0 && complete <= 100.0)
      | _ -> Alcotest.fail "two columns")
    (Experiments.Report.rows r)

let test_exp5_cfp_smoke () =
  let r = Experiments.Exp5.cfp_truth ~seed:4217 () in
  match Experiments.Report.rows r with
  | [ ("voting", [ v ]); ("DeduceOrder", [ d ]); ("TopKCT", [ t ]) ] ->
      check Alcotest.bool "TopKCT wins" true (t > v && t > d);
      check Alcotest.bool "DeduceOrder worst" true (d < v)
  | _ -> Alcotest.fail "unexpected report shape"

let test_rest_table4_ordering () =
  let r = Experiments.Exp5.rest_table4 ~restaurants:250 ~seed:7321 () in
  let f1 name =
    match List.assoc_opt name (Experiments.Report.rows r) with
    | Some [ _; _; f1 ] -> f1
    | _ -> Alcotest.fail ("missing row " ^ name)
  in
  (* The paper's Table 4 ranking. *)
  check Alcotest.bool "DeduceOrder worst F1" true (f1 "DeduceOrder" < f1 "voting");
  check Alcotest.bool "TopKCT(cef) best F1" true
    (f1 "TopKCT (copyCEF pref)" >= f1 "copyCEF");
  check Alcotest.bool "TopKCT(voting) beats voting" true
    (f1 "TopKCT (voting pref)" >= f1 "voting");
  (* DeduceOrder's perfect precision *)
  (match List.assoc_opt "DeduceOrder" (Experiments.Report.rows r) with
  | Some [ p; _; _ ] -> check (Alcotest.float 1e-9) "P=1" 1.0 p
  | _ -> Alcotest.fail "missing DeduceOrder row")

(* Exp-3 pinned at quick scale: [Framework.Deduction] is the one
   consumer of the kept-fill path, so these figures move if a kept
   fill stops equalling a fresh run with the enlarged template. The
   rows and footnote are what [relacc experiment fig6d fig6h]
   prints. *)
let test_exp3_pinned () =
  let pinned id rows note =
    match Experiments.Registry.run id with
    | None -> Alcotest.fail ("missing experiment " ^ id)
    | Some r ->
        check
          Alcotest.(list (pair string (list (float 1e-9))))
          (id ^ " rows")
          (List.mapi (fun h v -> (string_of_int (h + 1), [ v ])) rows)
          (Experiments.Report.rows r);
        check Alcotest.bool (id ^ " note") true
          (Astring_contains.contains (Experiments.Report.to_string r) note)
  in
  pinned "fig6d" [ 90.8; 92.0; 92.0; 92.0 ] "18/250 entities never resolve";
  pinned "fig6h" [ 97.0; 97.0; 98.0; 98.0; 98.0 ] "2/100 entities never resolve"

let test_report_csv () =
  let r =
    Experiments.Report.make ~id:"csvt" ~title:"T" ~x_label:"x" ~columns:[ "a" ]
  in
  Experiments.Report.add_row r ~x:"p" [ 1.5 ];
  check
    Alcotest.(list (list string))
    "csv rows"
    [ [ "x"; "a" ]; [ "p"; "1.5000" ] ]
    (Experiments.Report.to_csv r)

let test_report_formatting () =
  let r =
    Experiments.Report.make ~id:"t" ~title:"T" ~x_label:"x" ~columns:[ "a"; "b" ]
  in
  Experiments.Report.add_row r ~x:"row1" [ 1.0; 2.5 ];
  Experiments.Report.set_paper r ~x:"row1" ~column:"a" 3.0;
  Experiments.Report.note r "a note";
  let s = Experiments.Report.to_string r in
  check Alcotest.bool "contains measured" true
    (Astring_contains.contains s "1 (paper 3)");
  check Alcotest.bool "contains float" true (Astring_contains.contains s "2.50");
  check Alcotest.bool "contains note" true (Astring_contains.contains s "a note")

let () =
  Alcotest.run "integration"
    [
      ( "pipelines",
        [
          Alcotest.test_case "serialized roundtrip pipeline" `Quick
            test_serialized_pipeline;
          Alcotest.test_case "ER then chase" `Quick test_er_then_chase;
          Alcotest.test_case "mined rules deduce" `Quick test_mined_rules_deduce;
          QCheck_alcotest.to_alcotest permutation_invariance;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "registry complete" `Quick test_registry_complete;
          Alcotest.test_case "exp1 smoke" `Quick test_exp1_smoke;
          Alcotest.test_case "exp5 cfp smoke" `Slow test_exp5_cfp_smoke;
          Alcotest.test_case "table 4 ordering" `Slow test_rest_table4_ordering;
          Alcotest.test_case "report formatting" `Quick test_report_formatting;
          Alcotest.test_case "report csv" `Quick test_report_csv;
          Alcotest.test_case "exp3 rounds pinned" `Quick test_exp3_pinned;
        ] );
    ]
