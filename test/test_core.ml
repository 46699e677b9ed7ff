(* Tests for the core chase engine: the running example end-to-end,
   Church-Rosser detection (Example 6), instance semantics (λ,
   validity), compile/replay, candidate checking, and a differential
   property against the naive reference chase. *)

module Value = Relational.Value
module Schema = Relational.Schema
module Tuple = Relational.Tuple
module Relation = Relational.Relation
module Spec = Core.Specification
module Instance = Core.Instance
module Is_cr = Core.Is_cr
module Chase = Oracle.Chase
module Mj = Datagen.Mj

let check = Alcotest.check
let value_testable = Alcotest.testable Value.pp Value.equal

(* ------------------------------------------------------------------ *)
(* The running example                                                *)
(* ------------------------------------------------------------------ *)

let test_mj_example5 () =
  match Is_cr.run Mj.specification with
  | Is_cr.Not_church_rosser { rule; reason } ->
      Alcotest.failf "S must be Church-Rosser (%s: %s)" rule reason
  | Is_cr.Church_rosser inst ->
      check Alcotest.bool "complete" true (Instance.te_complete inst);
      check (Alcotest.array value_testable) "Example 5 target" Mj.expected_target
        (Instance.te inst)

let test_mj_example6_not_cr () =
  match Is_cr.run Mj.non_cr_specification with
  | Is_cr.Not_church_rosser _ -> ()
  | Is_cr.Church_rosser _ -> Alcotest.fail "S' with φ12 must not be Church-Rosser"

let test_mj_partial_without_master () =
  (* Without nba, φ6 never fires and φ4 has no league order to
     propagate: t4's rnds (127) stays incomparable, so rnds/totalPts
     lose their greatest value. J# is still decided (45 ⪯ 23 follows
     from the NBA-internal rounds already), MN from φ7, and league/
     team stay null. Exactly the paper's point that master data
     helps but "is not a must". *)
  let rs = Rules.Ruleset.make_exn ~schema:Mj.stat_schema ~master:Mj.nba_schema
      (Rules.Ruleset.user_rules Mj.ruleset) in
  let spec =
    Spec.make_exn ~entity:Mj.stat
      ~master:(Relation.make Mj.nba_schema [])
      rs
  in
  match Is_cr.run spec with
  | Is_cr.Not_church_rosser _ -> Alcotest.fail "still Church-Rosser"
  | Is_cr.Church_rosser inst ->
      let te = Instance.te inst in
      let attr name = Schema.index Mj.stat_schema name in
      check value_testable "J# still deduced" (Value.Int 23) te.(attr "J#");
      check value_testable "MN still deduced" (Value.String "Jeffrey") te.(attr "MN");
      check value_testable "rnds now null (127 incomparable)" Value.Null
        te.(attr "rnds");
      check value_testable "league now null" Value.Null te.(attr "league");
      check value_testable "team now null" Value.Null te.(attr "team");
      check Alcotest.bool "incomplete" false (Instance.te_complete inst)

let test_mj_trace_is_terminal_sequence () =
  let steps = ref 0 in
  (match Is_cr.run ~trace:(fun _ -> incr steps) Mj.specification with
  | Is_cr.Church_rosser _ -> ()
  | Is_cr.Not_church_rosser _ -> Alcotest.fail "CR expected");
  check Alcotest.bool "non-trivial chase" true (!steps >= 9)

(* ------------------------------------------------------------------ *)
(* Specification validation                                           *)
(* ------------------------------------------------------------------ *)

let test_spec_validation () =
  let other = Schema.make "other" [ "x" ] in
  let bad_entity = Relation.make other [ Tuple.make [| Value.Int 1 |] ] in
  check Alcotest.bool "schema mismatch rejected" true
    (Result.is_error (Spec.make ~entity:bad_entity ~master:Mj.nba Mj.ruleset));
  check Alcotest.bool "template arity checked" true
    (Result.is_error
       (Spec.make ~template:[| Value.Null |] ~entity:Mj.stat ~master:Mj.nba
          Mj.ruleset))

let test_spec_template_roundtrip () =
  let spec = Spec.with_template Mj.specification Mj.expected_target in
  check (Alcotest.array value_testable) "template stored" Mj.expected_target
    (Spec.template spec)

(* ------------------------------------------------------------------ *)
(* Instance semantics                                                 *)
(* ------------------------------------------------------------------ *)

let simple_schema = Schema.make "s" [ "a"; "b" ]

let simple_spec values =
  let tuples = List.map (fun row -> Tuple.make row) values in
  let rs = Rules.Ruleset.make_exn ~schema:simple_schema [] in
  Spec.make_exn ~entity:(Relation.make simple_schema tuples) rs

let test_instance_lambda_sets_te () =
  let spec = simple_spec [ [| Value.Int 1; Value.Null |]; [| Value.Int 2; Value.Null |] ] in
  let inst = Instance.init spec in
  (* assert t1 ⪯a t2 via classes: greatest appears, λ fires *)
  let o = Instance.order inst 0 in
  let c1 = Ordering.Attr_order.class_of_tuple o 0 in
  let c2 = Ordering.Attr_order.class_of_tuple o 1 in
  (match Instance.apply inst (Rules.Ground.Add_order { attr = 0; c1; c2 }) with
  | Instance.Changed events ->
      check Alcotest.bool "edge + te_set events" true (List.length events = 2)
  | _ -> Alcotest.fail "expected change");
  check value_testable "te set to greatest" (Value.Int 2) (Instance.te_value inst 0)

let test_instance_lambda_conflict_is_invalid () =
  let spec = simple_spec [ [| Value.Int 1; Value.Null |]; [| Value.Int 2; Value.Null |] ] in
  let spec = Spec.with_template spec [| Value.Int 1; Value.Null |] in
  let inst = Instance.init spec in
  let o = Instance.order inst 0 in
  let c1 = Ordering.Attr_order.class_of_tuple o 0 in
  let c2 = Ordering.Attr_order.class_of_tuple o 1 in
  match Instance.apply inst (Rules.Ground.Add_order { attr = 0; c1; c2 }) with
  | Instance.Invalid _ -> ()
  | _ -> Alcotest.fail "λ overwriting a non-null te must be invalid"

let test_instance_assign_semantics () =
  let spec = simple_spec [ [| Value.Int 1; Value.Null |] ] in
  let inst = Instance.init spec in
  (match Instance.apply inst (Rules.Ground.Assign { attr = 1; value = Value.Int 9 }) with
  | Instance.Changed [ Instance.Te_set { attr = 1; _ } ] -> ()
  | _ -> Alcotest.fail "assign should set te");
  (match Instance.apply inst (Rules.Ground.Assign { attr = 1; value = Value.Int 9 }) with
  | Instance.Unchanged -> ()
  | _ -> Alcotest.fail "same assign is a no-op");
  match Instance.apply inst (Rules.Ground.Assign { attr = 1; value = Value.Int 8 }) with
  | Instance.Invalid _ -> ()
  | _ -> Alcotest.fail "conflicting assign must be invalid"

let test_instance_refresh_single_class () =
  let spec = simple_spec [ [| Value.Int 1; Value.String "x" |] ] in
  let inst = Instance.init spec in
  (match Instance.apply inst (Rules.Ground.Refresh 1) with
  | Instance.Changed [ Instance.Te_set { attr = 1; value; _ } ] ->
      check value_testable "single class value" (Value.String "x") value
  | _ -> Alcotest.fail "refresh should instantiate te");
  match Instance.apply inst (Rules.Ground.Refresh 1) with
  | Instance.Unchanged -> ()
  | _ -> Alcotest.fail "second refresh is a no-op"

let test_instance_order_conflict_invalid () =
  let spec =
    simple_spec [ [| Value.Int 1; Value.Null |]; [| Value.Int 2; Value.Null |] ]
  in
  let inst = Instance.init spec in
  let o = Instance.order inst 0 in
  let c1 = Ordering.Attr_order.class_of_tuple o 0 in
  let c2 = Ordering.Attr_order.class_of_tuple o 1 in
  ignore (Instance.apply inst (Rules.Ground.Add_order { attr = 0; c1; c2 }));
  match Instance.apply inst (Rules.Ground.Add_order { attr = 0; c1 = c2; c2 = c1 }) with
  | Instance.Invalid _ -> ()
  | _ -> Alcotest.fail "cycle must be invalid"

(* ------------------------------------------------------------------ *)
(* Compile / replay / check                                           *)
(* ------------------------------------------------------------------ *)

let test_compiled_replay_deterministic () =
  let compiled = Is_cr.compile Mj.specification in
  let t1 =
    match Is_cr.run_compiled compiled with
    | Is_cr.Church_rosser i -> Instance.te i
    | _ -> Alcotest.fail "CR"
  in
  let t2 =
    match Is_cr.run_compiled compiled with
    | Is_cr.Church_rosser i -> Instance.te i
    | _ -> Alcotest.fail "CR"
  in
  check (Alcotest.array value_testable) "replay equal" t1 t2

let test_check_accepts_target_rejects_wrong () =
  let compiled = Is_cr.compile Mj.specification in
  check Alcotest.bool "deduced target checks" true
    (Is_cr.check compiled Mj.expected_target);
  let wrong = Array.copy Mj.expected_target in
  wrong.(Schema.index Mj.stat_schema "rnds") <- Value.Int 1;
  check Alcotest.bool "stale rnds rejected" false (Is_cr.check compiled wrong);
  let wrong2 = Array.copy Mj.expected_target in
  wrong2.(Schema.index Mj.stat_schema "league") <- Value.String "SL";
  check Alcotest.bool "wrong league rejected" false (Is_cr.check compiled wrong2)

let test_check_requires_complete () =
  let compiled = Is_cr.compile Mj.specification in
  let incomplete = Array.copy Mj.expected_target in
  incomplete.(0) <- Value.Null;
  Alcotest.check_raises "null attr rejected"
    (Invalid_argument "Is_cr.check: candidate target has a null attribute")
    (fun () -> ignore (Is_cr.check compiled incomplete))

(* ------------------------------------------------------------------ *)
(* Degenerate instances                                               *)
(* ------------------------------------------------------------------ *)

let test_empty_instance () =
  (* Zero observed tuples: only master data can say anything. *)
  let schema = Schema.make "d" [ "k"; "v" ] in
  let mschema = Schema.make "dm" [ "mv" ] in
  let master =
    Relation.make mschema [ Tuple.make [| Value.String "from-master" |] ]
  in
  let rule =
    (* unconditional master rule *)
    Rules.Ar.Form2 { f2_name = "m"; f2_lhs = []; f2_te_attr = 1; f2_tm_attr = 0 }
  in
  let rs = Rules.Ruleset.make_exn ~schema ~master:mschema [ rule ] in
  let spec = Spec.make_exn ~entity:(Relation.make schema []) ~master rs in
  match Is_cr.run spec with
  | Is_cr.Church_rosser inst ->
      check value_testable "v from master" (Value.String "from-master")
        (Instance.te_value inst 1);
      check value_testable "k undeducible" Value.Null (Instance.te_value inst 0)
  | Is_cr.Not_church_rosser _ -> Alcotest.fail "empty instance must chase fine"

let test_singleton_instance () =
  (* One tuple: axiom φ9 makes every non-null value the target's. *)
  let schema = Schema.make "s1" [ "a"; "b" ] in
  let rs = Rules.Ruleset.make_exn ~schema [] in
  let spec =
    Spec.make_exn
      ~entity:(Relation.make schema [ Tuple.make [| Value.Int 7; Value.Null |] ])
      rs
  in
  match Is_cr.run spec with
  | Is_cr.Church_rosser inst ->
      check value_testable "a copied" (Value.Int 7) (Instance.te_value inst 0);
      check value_testable "b stays null" Value.Null (Instance.te_value inst 1)
  | Is_cr.Not_church_rosser _ -> Alcotest.fail "singleton must chase fine"

let test_conflicting_master_rows () =
  (* Two master rows matching the same key with different values:
     the second assignment conflicts — not Church-Rosser. *)
  let schema = Schema.make "c" [ "k"; "v" ] in
  let mschema = Schema.make "cm" [ "mk"; "mv" ] in
  let master =
    Relation.make mschema
      [
        Tuple.make [| Value.String "id"; Value.String "x" |];
        Tuple.make [| Value.String "id"; Value.String "y" |];
      ]
  in
  let rule =
    Rules.Ar.Form2
      {
        f2_name = "m";
        f2_lhs = [ Rules.Ar.Te_master (0, 0) ];
        f2_te_attr = 1;
        f2_tm_attr = 1;
      }
  in
  let rs = Rules.Ruleset.make_exn ~schema ~master:mschema [ rule ] in
  let spec =
    Spec.make_exn
      ~entity:
        (Relation.make schema [ Tuple.make [| Value.String "id"; Value.Null |] ])
      ~master rs
  in
  match Is_cr.run spec with
  | Is_cr.Not_church_rosser _ -> ()
  | Is_cr.Church_rosser _ ->
      Alcotest.fail "ambiguous master data must break Church-Rosser"

(* ------------------------------------------------------------------ *)
(* Kept fills on a resumable state (the Fig. 3 loop)                 *)
(* ------------------------------------------------------------------ *)

(* A started state that must be Church-Rosser. *)
let start_cr ?template compiled =
  let state = Is_cr.start ?template compiled in
  (match Is_cr.conflict state with
  | Some (rule, reason) -> Alcotest.failf "state must start CR (%s: %s)" rule reason
  | None -> ());
  state

let example9_compiled () =
  let rs = Rules.Ruleset.remove (Rules.Ruleset.remove Mj.ruleset "phi11") "phi6#2" in
  Is_cr.compile (Spec.with_ruleset Mj.specification rs)

let test_session_fill_equals_scratch () =
  let compiled = example9_compiled () in
  let team = Schema.index Mj.stat_schema "team" in
  let state = start_cr compiled in
  check Alcotest.bool "incomplete at start" true
    (Array.exists Value.is_null (Is_cr.te state));
  (match Is_cr.fill state [ (team, Value.String "Chicago Bulls") ] with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "fill must succeed");
  (* from-scratch with the same template *)
  let template = Array.make (Schema.arity Mj.stat_schema) Value.Null in
  template.(team) <- Value.String "Chicago Bulls";
  let scratch =
    match Is_cr.run_compiled ~template compiled with
    | Is_cr.Church_rosser inst -> Instance.te inst
    | Is_cr.Not_church_rosser _ -> Alcotest.fail "scratch run must be CR"
  in
  check (Alcotest.array value_testable) "incremental = from-scratch" scratch
    (Is_cr.te state)

(* A rule whose steps carry [te[team] = "Chicago Bulls" ∧ te[team] ≠
   null] while te[team] is still null — the φ8 shape whose implied
   [≠ null] slot is folded (satisfied from the start, no watcher).
   The kept state must carry that fold: the later fill then fires the
   steps, which order arena towards United Center and deduce
   te[arena]. *)
let test_session_fill_fires_folded_slot () =
  let base = example9_compiled () in
  let team = Schema.index Mj.stat_schema "team" in
  let arena = Schema.index Mj.stat_schema "arena" in
  let bulls = Value.String "Chicago Bulls" and uc = Value.String "United Center" in
  let rule =
    Rules.Ar.Form1
      {
        f1_name = "bulls_play_at_uc";
        f1_lhs =
          Rules.Ar.
            [
              Cmp (Target_attr team, Eq, Const bulls);
              Cmp (Target_attr team, Neq, Const Value.Null);
              Cmp (Tuple_attr (T2, arena), Eq, Const uc);
              Cmp (Tuple_attr (T1, arena), Neq, Const uc);
            ];
        f1_rhs = { strict = false; left = T1; right = T2; attr = arena };
      }
  in
  let rs =
    match Rules.Ruleset.add (Spec.ruleset (Is_cr.compiled_spec base)) rule with
    | Ok rs -> rs
    | Error reason -> Alcotest.fail reason
  in
  let compiled = Is_cr.compile (Spec.with_ruleset (Is_cr.compiled_spec base) rs) in
  let state = start_cr compiled in
  check value_testable "team still null" Value.Null (Is_cr.te state).(team);
  check value_testable "arena undecided before the fill" Value.Null
    (Is_cr.te state).(arena);
  (match Is_cr.fill state [ (team, bulls) ] with
  | Ok () -> ()
  | Error (_, reason) -> Alcotest.fail reason);
  check value_testable "the folded steps fired" uc (Is_cr.te state).(arena);
  let template = Array.make (Schema.arity Mj.stat_schema) Value.Null in
  template.(team) <- bulls;
  match Is_cr.run_compiled ~template compiled with
  | Is_cr.Church_rosser inst ->
      check (Alcotest.array value_testable) "kept fill = from-scratch"
        (Instance.te inst) (Is_cr.te state)
  | Is_cr.Not_church_rosser _ -> Alcotest.fail "scratch run must be CR"

let test_session_conflicting_fill () =
  let state = start_cr (Is_cr.compile Mj.specification) in
  (* league is already deduced NBA; filling is impossible *)
  let league = Schema.index Mj.stat_schema "league" in
  match Is_cr.fill state [ (league, Value.String "SL") ] with
  | Error conflict -> (
      check Alcotest.bool "the state records the conflict" true
        (Is_cr.conflict state = Some conflict);
      check Alcotest.bool "every trial is rejected now" false
        (Is_cr.trial state Mj.expected_target);
      match Is_cr.fill state [] with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "a conflicting state must refuse further fills")
  | Ok () -> Alcotest.fail "conflicting fill must fail"

let test_session_null_fill_rejected () =
  let state = start_cr (example9_compiled ()) in
  match Is_cr.fill state [ (0, Value.Null) ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "null fill must be rejected"

(* A rejected fill list is validated whole before anything applies:
   [(team, v); (arena, null)] raises, and afterwards [te] and a
   following fill behave exactly as if the call had never been made.
   Example 9's spec leaves team null and derives arena from it, so a
   half-applied team fill would show in both. *)
let test_session_rejected_fill_list_leaves_no_trace () =
  let compiled = example9_compiled () in
  let team = Schema.index Mj.stat_schema "team" in
  let arena = Schema.index Mj.stat_schema "arena" in
  let bulls = Value.String "Chicago Bulls" and knicks = Value.String "New York Knicks" in
  let state = start_cr compiled in
  let before = Is_cr.te state in
  List.iter
    (fun fills ->
      match Is_cr.fill state fills with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "an invalid fill list must raise")
    [ [ (team, bulls); (arena, Value.Null) ]; [ (team, bulls); (99, bulls) ] ];
  check (Alcotest.array value_testable) "te untouched" before (Is_cr.te state);
  check Alcotest.bool "no conflict recorded" true (Is_cr.conflict state = None);
  (* A different team now must go through as on a fresh state. *)
  let fresh = start_cr compiled in
  let outcome s = Result.is_ok (Is_cr.fill s [ (team, knicks) ]) in
  check Alcotest.bool "following fill = on a fresh state" (outcome fresh) (outcome state);
  check (Alcotest.array value_testable) "te after the following fill" (Is_cr.te fresh)
    (Is_cr.te state)

let session_incremental_property =
  QCheck.Test.make ~count:20
    ~name:"incremental fills equal from-scratch runs (random Med entities)"
    QCheck.(int_bound 50_000)
    (fun seed ->
      let ds = Datagen.Med_gen.dataset ~entities:3 ~seed () in
      List.for_all
        (fun (e : Datagen.Entity_gen.entity) ->
          let compiled = Is_cr.compile (Datagen.Entity_gen.spec_for ds e) in
          let state = Is_cr.start compiled in
          Is_cr.conflict state = None
          &&
          match
            List.filter
              (fun a -> Value.is_null (Is_cr.te state).(a))
              (List.init (Array.length e.truth) Fun.id)
          with
          | [] -> true
          | attr :: _ -> (
              let v = e.truth.(attr) in
              if Value.is_null v then true
              else
                match Is_cr.fill state [ (attr, v) ] with
                | Error _ ->
                    (* must then also fail from scratch *)
                    let template =
                      Array.make (Array.length e.truth) Value.Null
                    in
                    template.(attr) <- v;
                    not
                      (match Is_cr.run_compiled ~template compiled with
                      | Is_cr.Church_rosser _ -> true
                      | Is_cr.Not_church_rosser _ -> false)
                | Ok () ->
                    let template =
                      Array.make (Array.length e.truth) Value.Null
                    in
                    template.(attr) <- v;
                    (match Is_cr.run_compiled ~template compiled with
                    | Is_cr.Church_rosser inst ->
                        Array.for_all2 Value.equal (Instance.te inst)
                          (Is_cr.te state)
                    | Is_cr.Not_church_rosser _ -> false)))
        ds.entities)

(* ------------------------------------------------------------------ *)
(* Trial checks on a resumable state (top-k's candidate checks)       *)
(* ------------------------------------------------------------------ *)

(* The state top-k checks candidates on: started from the all-null
   template, the candidate-independent part of every [check]. *)
let base compiled =
  Is_cr.start
    ~template:
      (Array.make (Schema.arity (Spec.schema (Is_cr.compiled_spec compiled))) Value.Null)
    compiled

let test_snapshot_equals_fresh_check_mj () =
  let compiled = Is_cr.compile Mj.specification in
  let z = base compiled in
  check Alcotest.bool "MJ base fixpoint is CR" true (Is_cr.conflict z = None);
  (* The base te must equal a fresh all-null run's terminal instance. *)
  let base_template =
    Array.make (Schema.arity Mj.stat_schema) Value.Null
  in
  (match Is_cr.run_compiled ~template:base_template compiled with
  | Is_cr.Church_rosser inst ->
      check (Alcotest.array value_testable) "base te = all-null terminal"
        (Instance.te inst) (Is_cr.te z)
  | Is_cr.Not_church_rosser _ -> Alcotest.fail "all-null base must be CR");
  (* Many candidates against ONE shared state; each verdict must
     match the fresh checker, proving the undo log restores the
     state between trials (including after rejections). *)
  let wrong attr v =
    let t = Array.copy Mj.expected_target in
    t.(Schema.index Mj.stat_schema attr) <- v;
    t
  in
  let candidates =
    [
      ("target", Mj.expected_target);
      ("stale rnds", wrong "rnds" (Value.Int 1));
      ("target again", Mj.expected_target);
      ("wrong league", wrong "league" (Value.String "SL"));
      ("wrong arena", wrong "arena" (Value.String "Nowhere"));
      ("target after rejections", Mj.expected_target);
    ]
  in
  List.iter
    (fun (label, t) ->
      check Alcotest.bool label (Is_cr.check compiled t)
        (Is_cr.trial z t))
    candidates;
  (* ... and the base te is bit-identical after all that. *)
  check (Alcotest.array value_testable) "base te untouched by deltas"
    (Is_cr.te z)
    (match Is_cr.run_compiled ~template:base_template compiled with
    | Is_cr.Church_rosser inst -> Instance.te inst
    | Is_cr.Not_church_rosser _ -> Alcotest.fail "all-null base must be CR")

let test_snapshot_non_cr_rejects_all () =
  let compiled = Is_cr.compile Mj.non_cr_specification in
  let z = base compiled in
  check Alcotest.bool "base not CR" false (Is_cr.conflict z = None);
  check Alcotest.bool "fresh check also rejects" (Is_cr.check compiled Mj.expected_target)
    (Is_cr.trial z Mj.expected_target);
  check Alcotest.bool "every candidate rejected" false
    (Is_cr.trial z Mj.expected_target)

let test_snapshot_null_candidate_rejected () =
  let z = base (Is_cr.compile Mj.specification) in
  let incomplete = Array.copy Mj.expected_target in
  incomplete.(0) <- Value.Null;
  Alcotest.check_raises "null attr rejected"
    (Invalid_argument "Is_cr.check: candidate target has a null attribute")
    (fun () -> ignore (Is_cr.trial z incomplete))

(* Rule text corrupted by the fault-injection harness: whenever the
   corrupted text still parses and validates, the trial checker
   must agree with the fresh checker on that (possibly non-CR,
   possibly deduction-starved) specification. *)
let test_snapshot_equivalence_under_rule_faults () =
  let cfg = { Robust.Faultinject.none with rule_token_rate = 0.2 } in
  let wrong = Array.copy Mj.expected_target in
  wrong.(Schema.index Mj.stat_schema "league") <- Value.String "SL";
  let compared = ref 0 in
  for seed = 0 to 29 do
    let text =
      Robust.Faultinject.corrupt_rule_text (Util.Prng.create seed) cfg
        Mj.rules_text
    in
    match Rules.Parser.parse ~schema:Mj.stat_schema ~master:Mj.nba_schema text with
    | Error _ -> ()
    | Ok rules -> (
        match
          Rules.Ruleset.make ~schema:Mj.stat_schema ~master:Mj.nba_schema rules
        with
        | Error _ -> ()
        | Ok rs ->
            incr compared;
            let compiled =
              Is_cr.compile (Spec.with_ruleset Mj.specification rs)
            in
            let z = base compiled in
            List.iter
              (fun t ->
                check Alcotest.bool
                  (Printf.sprintf "seed %d agrees with fresh check" seed)
                  (Is_cr.check compiled t) (Is_cr.trial z t))
              [ Mj.expected_target; wrong; Mj.expected_target ])
  done;
  check Alcotest.bool "some corrupted rulesets were comparable" true
    (!compared > 0)

let snapshot_delta_property =
  QCheck.Test.make ~count:20
    ~name:"snapshot checks equal fresh compiled checks (random Med entities)"
    QCheck.(int_bound 50_000)
    (fun seed ->
      let ds = Datagen.Med_gen.dataset ~entities:3 ~seed () in
      List.for_all
        (fun (e : Datagen.Entity_gen.entity) ->
          let compiled = Is_cr.compile (Datagen.Entity_gen.spec_for ds e) in
          match Is_cr.run_compiled compiled with
          | Is_cr.Not_church_rosser _ -> false (* generator guarantees CR *)
          | Is_cr.Church_rosser inst ->
              (* Complete the terminal instance into a full candidate,
                 then derive mutants; equivalence must hold whether or
                 not a candidate is accepted. *)
              let target =
                Array.map
                  (fun v -> if Value.is_null v then Value.String "?" else v)
                  (Instance.te inst)
              in
              let n = Array.length target in
              let g = Util.Prng.create (seed + 17) in
              let mutate k =
                let t = Array.copy target in
                t.(Util.Prng.int g n) <-
                  (if k mod 2 = 0 then Value.String "wrong!"
                   else Value.Int (Util.Prng.int g 1000));
                t
              in
              let candidates = target :: List.init 6 mutate @ [ target ] in
              let z = base compiled in
              List.for_all
                (fun t ->
                  Bool.equal (Is_cr.check compiled t) (Is_cr.trial z t))
                candidates)
        ds.entities)

(* A long candidate stream against one state: a completed target,
   then one- and two-cell mutants drawn from the entity's own columns
   (the values whose orders conflict), the whole stream twice so the
   second pass meets the nogoods the first one left. Every answer must
   equal a fresh check, and every learned nogood must conflict on its
   own — from scratch, with just its cells as the template — and stop
   conflicting when any one cell is left out. Returns the number of
   nogoods learned. *)
let nogood_stream_agrees ~seed compiled =
  let spec = Is_cr.compiled_spec compiled in
  match Is_cr.run_compiled compiled with
  | Is_cr.Not_church_rosser _ -> Some 0
  | Is_cr.Church_rosser inst ->
      let g = Util.Prng.create seed in
      let rows = Array.of_list (Relation.tuples (Spec.entity spec)) in
      let column a =
        List.filter_map
          (fun t ->
            let v = Tuple.get t a in
            if Value.is_null v then None else Some v)
          (Array.to_list rows)
      in
      let draw a =
        match column a with
        | [] -> Value.String "fresh"
        | vs ->
            if Util.Prng.int g 8 = 0 then Value.String "fresh"
            else List.nth vs (Util.Prng.int g (List.length vs))
      in
      let target =
        Array.mapi (fun a v -> if Value.is_null v then draw a else v) (Instance.te inst)
      in
      let n = Array.length target in
      let mutant cells =
        let t = Array.copy target in
        for _ = 1 to cells do
          let a = Util.Prng.int g n in
          t.(a) <- draw a
        done;
        t
      in
      let once = target :: List.init 30 (fun i -> mutant (1 + (i mod 2))) in
      let z = base compiled in
      let agree =
        List.for_all
          (fun t -> Bool.equal (Is_cr.check compiled t) (Is_cr.trial z t))
          (once @ once)
      in
      let conflicts fills =
        let template = Array.make n Value.Null in
        List.iter (fun (a, v) -> template.(a) <- v) fills;
        match Is_cr.run_compiled ~template compiled with
        | Is_cr.Church_rosser _ -> false
        | Is_cr.Not_church_rosser _ -> true
      in
      let nogoods = Is_cr.nogoods z in
      let sound ng =
        conflicts ng
        && List.for_all (fun cell -> not (conflicts (List.filter (( != ) cell) ng))) ng
      in
      if agree && List.for_all sound nogoods then Some (List.length nogoods) else None

let nogood_property =
  QCheck.Test.make ~count:20
    ~name:"learned nogoods: snapshot = fresh checks, each nogood minimal (random Med/Syn)"
    QCheck.(int_bound 50_000)
    (fun seed ->
      let ds = Datagen.Med_gen.dataset ~entities:3 ~seed () in
      let syn = Datagen.Syn_gen.dataset ~ie:6 ~im:3 ~sigma:100 ~domain:3 ~seed () in
      List.for_all
        (fun compiled -> nogood_stream_agrees ~seed compiled <> None)
        (Is_cr.compile syn.Datagen.Syn_gen.spec
        :: List.map
             (fun e -> Is_cr.compile (Datagen.Entity_gen.spec_for ds e))
             ds.entities))

(* The stream above does learn and reuse nogoods: on a fixed Med
   corpus the counters move and the answers still agree. *)
let test_nogoods_learned_and_reused () =
  let ds = Datagen.Med_gen.dataset ~entities:6 ~seed:5 () in
  let counter name =
    match Obs.find name with Some (Obs.Counter n) -> n | _ -> 0
  in
  Obs.reset ();
  Obs.set_enabled true;
  let learned =
    List.fold_left
      (fun acc e ->
        match nogood_stream_agrees ~seed:5 (Is_cr.compile (Datagen.Entity_gen.spec_for ds e)) with
        | Some n -> acc + n
        | None -> Alcotest.fail "snapshot and fresh checks disagree")
      0 ds.entities
  in
  Obs.set_enabled false;
  check Alcotest.bool "nogoods learned" true (learned > 0);
  check Alcotest.int "learned counter" learned (counter "chase_nogoods_learned_total");
  check Alcotest.bool "stored nogoods answered checks" true
    (counter "chase_nogood_hits_total" > 0);
  check Alcotest.bool "learning ran partial deltas" true
    (counter "chase_nogood_probes_total" > 0)

(* A conflict two rules away from the fill that causes it. Filling
   te.a = 2 orders a (axiom φ8), r1 carries that to b and r2 to c,
   where te.c = 5 ordered t1 below t0 and t2. The step that hits the
   conflict is r2, which reads b and writes c; but the fills on b and
   c alone agree (b = 3 orders t0 and t1 below t2, which r2 carries to
   c without a cycle). Deletion keeps a, drops b and keeps c, one probe
   each: the nogood is {a, c}, which is not the conflicting step's own
   attributes. *)
let test_nogood_beyond_the_conflicting_step () =
  let schema = Schema.make "s" [ "a"; "b"; "c" ] in
  let rules =
    match
      Rules.Parser.parse ~schema
        "rule r1: forall t1, t2 in s: t1 <[a] t2 -> t1 <=[b] t2\n\
         rule r2: forall t1, t2 in s: t1 <[b] t2 -> t1 <=[c] t2\n"
    with
    | Ok rules -> rules
    | Error e -> Alcotest.fail e
  in
  let row a b c = Tuple.make [| Value.Int a; Value.Int b; Value.Int c |] in
  let spec =
    Spec.make_exn
      ~entity:(Relation.make schema [ row 1 1 5; row 2 2 6; row 2 3 5 ])
      (Rules.Ruleset.make_exn ~schema rules)
  in
  let compiled = Is_cr.compile spec in
  let z = base compiled in
  let cand a b c = [| Value.Int a; Value.Int b; Value.Int c |] in
  let counter name = match Obs.find name with Some (Obs.Counter n) -> n | _ -> 0 in
  Obs.reset ();
  Obs.set_enabled true;
  let answers =
    List.map
      (fun t -> (Is_cr.check compiled t, Is_cr.trial z t))
      [ cand 2 3 5; cand 2 2 5 ]
  in
  Obs.set_enabled false;
  List.iter (fun (fresh, snap) -> check Alcotest.bool "snapshot = fresh" fresh snap) answers;
  check Alcotest.(list bool) "answers" [ false; false ] (List.map fst answers);
  check
    Alcotest.(list (list (pair int value_testable)))
    "nogood {a, c}"
    [ [ (0, Value.Int 2); (2, Value.Int 5) ] ]
    (Is_cr.nogoods z);
  check Alcotest.int "one probe per fill" 3 (counter "chase_nogood_probes_total");
  check Alcotest.int "second candidate answered by the nogood" 1
    (counter "chase_nogood_hits_total")

(* Undo must restore the interned slot state exactly, not just the
   structural [te] — the compiled watchers test fills by id, so a
   stale id after rollback would flip later verdicts. *)
let test_undo_restores_interned_slot () =
  let spec =
    simple_spec [ [| Value.Null; Value.Null |]; [| Value.Null; Value.Null |] ]
  in
  let inst = Instance.init spec in
  check Alcotest.int "null slot starts at null_id" Relational.Intern.null_id
    (Instance.te_id inst 0);
  match Instance.apply inst (Rules.Ground.Assign { attr = 0; value = Value.Int 7 }) with
  | Instance.Changed [ (Instance.Te_set { vid; _ } as ev) ] ->
      check Alcotest.bool "live slot id" true (vid <> Relational.Intern.null_id);
      check Alcotest.int "te_id tracks the event id" vid (Instance.te_id inst 0);
      Instance.undo_event inst ev;
      check Alcotest.int "undo restores null_id" Relational.Intern.null_id
        (Instance.te_id inst 0);
      check value_testable "undo restores the null value" Value.Null
        (Instance.te_value inst 0);
      (* Re-filling with the Float spelling of the same number must
         land on the same interned id — the watchers depend on it. *)
      (match
         Instance.apply inst
           (Rules.Ground.Assign { attr = 0; value = Value.Float 7.0 })
       with
      | Instance.Changed [ Instance.Te_set { vid = vid2; _ } ] ->
          check Alcotest.int "respelled refill, same id" vid vid2
      | _ -> Alcotest.fail "refill must change the instance")
  | _ -> Alcotest.fail "assign must produce one Te_set"

(* Trials run entirely on interned slot state; after any mix of
   accepted and rejected candidates — including Int/Float
   respellings of the same target — the rollback must leave the
   state answering exactly like a fresh compiled check. *)
let test_snapshot_after_interning_respelled () =
  let compiled = Is_cr.compile Mj.specification in
  let z = base compiled in
  let respell t =
    Array.map
      (function Value.Int n -> Value.Float (float_of_int n) | v -> v)
      t
  in
  let wrong = Array.copy Mj.expected_target in
  wrong.(Schema.index Mj.stat_schema "league") <- Value.String "SL";
  List.iter
    (fun (label, t) ->
      check Alcotest.bool label (Is_cr.check compiled t) (Is_cr.trial z t))
    [
      ("int-spelled target", Mj.expected_target);
      ("float-spelled target", respell Mj.expected_target);
      ("rejected candidate", wrong);
      ("float-spelled rejected", respell wrong);
      ("float-spelled target after rejections", respell Mj.expected_target);
      ("int-spelled target after rejections", Mj.expected_target);
    ]

(* ------------------------------------------------------------------ *)
(* Kept fills and trials interleaved on one state                     *)
(* ------------------------------------------------------------------ *)

(* One state, a random walk of steps: kept fills (the truth's value,
   or a column value where the truth is null, on a null attribute)
   interleaved with trials of complete candidates that agree with the
   current [te] (its null attributes drawn from the entity's columns).
   After every step the state's [te] and conflict must equal a fresh
   run from the accumulated fills, and every trial must equal the
   fresh [check]. A walk ends at the first conflict, since a
   conflicting state refuses further fills. *)
let interleaving_agrees ~seed ~truth compiled =
  let spec = Is_cr.compiled_spec compiled in
  let n = Schema.arity (Spec.schema spec) in
  let g = Util.Prng.create seed in
  let rows = Relation.tuples (Spec.entity spec) in
  let draw a =
    let column =
      List.filter_map
        (fun t ->
          let v = Tuple.get t a in
          if Value.is_null v then None else Some v)
        rows
    in
    match column with
    | [] -> Value.String "fresh"
    | vs -> List.nth vs (Util.Prng.int g (List.length vs))
  in
  let template = Array.make n Value.Null in
  let state = Is_cr.start ~template:(Array.copy template) compiled in
  let same_as_fresh () =
    match (Is_cr.conflict state, Is_cr.run_compiled ~template compiled) with
    | None, Is_cr.Church_rosser inst ->
        Array.for_all2 Value.equal (Instance.te inst) (Is_cr.te state)
    | Some _, Is_cr.Not_church_rosser _ -> true
    | _ -> false
  in
  let rec walk steps =
    steps = 0
    || Is_cr.conflict state <> None
    ||
    let te = Is_cr.te state in
    match List.filter (fun a -> Value.is_null te.(a)) (List.init n Fun.id) with
    | _ :: _ as nulls when Util.Prng.int g 3 = 0 ->
        let attr = List.nth nulls (Util.Prng.int g (List.length nulls)) in
        let v = if Value.is_null truth.(attr) then draw attr else truth.(attr) in
        ignore (Is_cr.fill state [ (attr, v) ] : (unit, string * string) result);
        template.(attr) <- v;
        same_as_fresh () && walk (steps - 1)
    | _ ->
        let t = Array.mapi (fun a v -> if Value.is_null v then draw a else v) te in
        Bool.equal (Is_cr.trial state t) (Is_cr.check compiled t)
        && same_as_fresh () && walk (steps - 1)
  in
  same_as_fresh () && walk 16

(* The stale-base case, on a Γ with templates. [copy-d] joins te[a]
   against master column b and carries te[k] = tm[e] as a residual;
   te[k] and te[a] stay null at the start (two incomparable values
   each). A first trial freezes that state as its base; the kept fill
   te[k] = K1 then moves the state. A trial with a = 2 materializes
   row 2's step, whose residual te[k] = K1 already holds in the kept
   state: it must settle un-logged against the moved base, so that it
   survives rollback and rejects the last candidate's d = Y. Settled
   against the stale base it would be rolled back and never re-fire. *)
let stale_base_compiled () =
  let schema = Schema.make "s" [ "k"; "a"; "d" ] in
  let mschema = Schema.make "m" [ "b"; "c"; "e" ] in
  let entity =
    Relation.make schema
      [
        Tuple.make [| Value.String "K1"; Value.Int 1; Value.Null |];
        Tuple.make [| Value.String "K2"; Value.Int 2; Value.Null |];
      ]
  in
  let master =
    Relation.make mschema
      [
        Tuple.make [| Value.Int 1; Value.String "X1"; Value.String "K1" |];
        Tuple.make [| Value.Int 2; Value.String "X2"; Value.String "K1" |];
      ]
  in
  let rule =
    Rules.Ar.Form2
      {
        f2_name = "copy-d";
        f2_lhs = [ Rules.Ar.Te_master (1, 0); Rules.Ar.Te_master (0, 2) ];
        f2_te_attr = 2;
        f2_tm_attr = 1;
      }
  in
  Is_cr.compile
    (Spec.make_exn ~entity ~master (Rules.Ruleset.make_exn ~schema ~master:mschema [ rule ]))

let stale_base_agrees () =
  let compiled = stale_base_compiled () in
  let state = base compiled in
  let cand a d = [| Value.String "K1"; Value.Int a; Value.String d |] in
  let trial t = Bool.equal (Is_cr.trial state t) (Is_cr.check compiled t) in
  Is_cr.compiled_template_count compiled = 1
  && trial (cand 1 "X1")
  && Is_cr.fill state [ (0, Value.String "K1") ] = Ok ()
  && trial (cand 2 "X2")
  && trial (cand 2 "Y")
  && not (Is_cr.check compiled (cand 2 "Y"))

let interleaving_property =
  QCheck.Test.make ~count:20
    ~name:"kept fills and trials interleaved = fresh runs and checks (random Med/Syn, templates)"
    QCheck.(int_bound 50_000)
    (fun seed ->
      let ds = Datagen.Med_gen.dataset ~entities:3 ~seed () in
      let syn = Datagen.Syn_gen.dataset ~ie:6 ~im:3 ~sigma:100 ~domain:3 ~seed () in
      stale_base_agrees ()
      && interleaving_agrees ~seed ~truth:syn.Datagen.Syn_gen.truth
           (Is_cr.compile syn.Datagen.Syn_gen.spec)
      && List.for_all
           (fun (e : Datagen.Entity_gen.entity) ->
             interleaving_agrees ~seed ~truth:e.truth
               (Is_cr.compile (Datagen.Entity_gen.spec_for ds e)))
           ds.entities)

(* ------------------------------------------------------------------ *)
(* Budgeted partials are sound                                        *)
(* ------------------------------------------------------------------ *)

(* Every non-null [te] cell of an exhausted partial equals the
   unlimited run's, and every order edge of the partial (a strict
   tuple pair) holds in the unlimited run's orders: the chase only
   grows both, so cutting it short can lose facts but never invent
   one. A step cap drawn below the unlimited run's fired steps always
   trips; one drawn at or above them never does, and its start reaches
   the unlimited target. [None] when the unlimited run is not
   Church-Rosser (no reference). *)
let budgeted_partial_sound ~g compiled =
  let spec = Is_cr.compiled_spec compiled in
  let unlimited = Robust.Budget.start Robust.Budget.unlimited in
  let full = Is_cr.start ~budget:unlimited compiled in
  match (Is_cr.exhausted full, Is_cr.conflict full) with
  | Some _, _ -> Some false
  | None, Some _ -> None
  | None, None ->
      let fired = Robust.Budget.steps_used unlimited in
      let full_inst =
        match Is_cr.run_compiled compiled with
        | Is_cr.Church_rosser inst -> inst
        | Is_cr.Not_church_rosser _ -> Alcotest.fail "start and run_compiled disagree"
      in
      let attrs = List.init (Schema.arity (Spec.schema spec)) Fun.id in
      let tuples = List.init (Relation.size (Spec.entity spec)) Fun.id in
      let sound partial =
        List.for_all
          (fun a ->
            let v = Instance.te_value partial a in
            (Value.is_null v || Value.equal v (Instance.te_value full_inst a))
            && List.for_all
                 (fun t1 ->
                   List.for_all
                     (fun t2 ->
                       (not (Instance.lt partial a t1 t2)) || Instance.lt full_inst a t1 t2)
                     tuples)
                 tuples)
          attrs
      in
      let run ~must_trip max_steps =
        let s =
          Is_cr.start ~budget:(Robust.Budget.start (Robust.Budget.limits ~max_steps ())) compiled
        in
        match (Is_cr.exhausted s, Is_cr.conflict s) with
        | Some { partial; _ }, _ -> must_trip && sound partial
        | None, Some _ -> false
        | None, None -> (not must_trip) && Array.for_all2 Value.equal (Is_cr.te s) (Is_cr.te full)
      in
      Some
        ((fired = 0 || run ~must_trip:true (Util.Prng.int g fired))
        && run ~must_trip:false (fired + Util.Prng.int g (fired + 1)))

let budgeted_property =
  QCheck.Test.make ~count:20
    ~name:"budgeted partials agree with the unlimited run (random Med/Syn)"
    QCheck.(int_bound 50_000)
    (fun seed ->
      let g = Util.Prng.create seed in
      let ds = Datagen.Med_gen.dataset ~entities:3 ~seed () in
      let syn = Datagen.Syn_gen.dataset ~ie:8 ~im:40 ~sigma:60 ~seed () in
      List.for_all
        (fun compiled -> budgeted_partial_sound ~g compiled <> Some false)
        (Is_cr.compile syn.Datagen.Syn_gen.spec
        :: List.map (fun e -> Is_cr.compile (Datagen.Entity_gen.spec_for ds e)) ds.entities))

(* ------------------------------------------------------------------ *)
(* Explain (provenance)                                               *)
(* ------------------------------------------------------------------ *)

let test_explain_value_matches_chase () =
  let compiled = Is_cr.compile Mj.specification in
  List.iter
    (fun (e : Core.Explain.t) ->
      check value_testable "explained value = deduced value"
        Mj.expected_target.(e.attr) e.value)
    (Core.Explain.all compiled)

let test_explain_master_step_present () =
  let compiled = Is_cr.compile Mj.specification in
  let league = Schema.index Mj.stat_schema "league" in
  let e = Core.Explain.attribute compiled league in
  check Alcotest.bool "phi6 in derivation" true
    (List.exists (fun (s : Core.Explain.step) -> s.rule = "phi6#1") e.derivation);
  (* and the key-deducing form (1) steps it depends on *)
  check Alcotest.bool "phi5 dependency included" true
    (List.exists (fun (s : Core.Explain.step) -> s.rule = "phi5") e.derivation)

let test_explain_rules_used_subset () =
  let compiled = Is_cr.compile Mj.specification in
  let used = Core.Explain.rules_used compiled in
  check Alcotest.bool "phi1 used" true (List.mem "phi1" used);
  check Alcotest.bool "phi11 used" true (List.mem "phi11" used);
  let all_names =
    List.map Rules.Ar.name (Rules.Ruleset.rules Mj.ruleset)
  in
  List.iter
    (fun r -> check Alcotest.bool ("known rule " ^ r) true (List.mem r all_names))
    used

let test_explain_non_cr_empty () =
  let compiled = Is_cr.compile Mj.non_cr_specification in
  let e = Core.Explain.attribute compiled 0 in
  check value_testable "null value" Value.Null e.value;
  check Alcotest.int "no derivation" 0 (List.length e.derivation)

(* ------------------------------------------------------------------ *)
(* Golden traces: where the axioms act in the chase                   *)
(* ------------------------------------------------------------------ *)

(* Every effective step of a run, in order, as "rule: action" (class
   ids rendered as their values), then the verdict, and the fired and
   changed step counts. These pin the order in which the axioms φ7–φ9
   interleave with the user rules, which rule a conflict is blamed on,
   and how many steps the run fires. *)
let golden_run spec =
  let schema = Spec.schema spec and nb = Spec.numbering spec in
  let attr a = Schema.attribute schema a in
  let cls a c = Value.to_string (Ordering.Attr_order.numbering_class_value nb.(a) c) in
  let action = function
    | Rules.Ground.Add_order { attr = a; c1; c2 } ->
        Printf.sprintf "%s ⪯ %s on %s" (cls a c1) (cls a c2) (attr a)
    | Rules.Ground.Refresh a -> Printf.sprintf "refresh %s" (attr a)
    | Rules.Ground.Assign { attr = a; value } ->
        Printf.sprintf "te[%s] := %s" (attr a) (Value.to_string value)
  in
  let lines = ref [] in
  let was = Obs.enabled () in
  Obs.set_enabled true;
  Obs.reset ();
  let verdict =
    Fun.protect
      ~finally:(fun () -> Obs.set_enabled was)
      (fun () ->
        Is_cr.run
          ~trace:(fun (s : Rules.Ground.step) ->
            lines := Printf.sprintf "%s: %s" s.rule_name (action s.action) :: !lines)
          spec)
  in
  let counter name =
    match Obs.find name with Some (Obs.Counter n) -> n | _ -> Alcotest.failf "no %s" name
  in
  let last =
    match verdict with
    | Is_cr.Church_rosser inst ->
        "church-rosser: "
        ^ String.concat ", " (Array.to_list (Array.map Value.to_string (Instance.te inst)))
    | Is_cr.Not_church_rosser { rule; reason } -> Printf.sprintf "conflict: %s (%s)" rule reason
  in
  String.concat "\n"
    (List.rev !lines
    @ [
        last;
        Printf.sprintf "fired %d, changed %d"
          (counter "chase_steps_fired_total")
          (counter "chase_steps_changed_total");
      ])

let golden_spec ?template ~attrs rows text =
  let schema = Schema.make "r" attrs in
  let entity = Relation.make schema (List.map Tuple.make rows) in
  let ruleset = Rules.Ruleset.make_exn ~schema (Rules.Parser.parse_exn ~schema text) in
  Spec.make_exn ?template ~entity ruleset

let test_golden_mj_trace () =
  check Alcotest.string "MJ effective steps"
    {|axiom7:MN: null ⪯ Jeffrey on MN
axiom7:LN: null ⪯ Jordan on LN
phi1: 16 ⪯ 27 on rnds
phi1: 1 ⪯ 16 on rnds
phi5: MJ ⪯ Michael on FN
phi3: 424 ⪯ 772 on totalPts
phi2: 45 ⪯ 23 on J#
phi3: 19 ⪯ 424 on totalPts
phi6#2: te[team] := Chicago Bulls
phi6#1: te[league] := NBA
axiom8:team: Birmingham Barons ⪯ Chicago Bulls on team
axiom8:team: Chicago ⪯ Chicago Bulls on team
axiom8:league: SL ⪯ NBA on league
phi11: Regions Park ⪯ United Center on arena
phi11: Chicago Stadium ⪯ United Center on arena
phi4: 127 ⪯ 1 on rnds
phi3: 51 ⪯ 19 on totalPts
church-rosser: Michael, Jeffrey, Jordan, 27, 772, 23, NBA, Chicago Bulls, United Center
fired 61, changed 17|} (golden_run Mj.specification)

let test_golden_mj_explain () =
  let compiled = Is_cr.compile Mj.specification in
  let text =
    String.concat ""
      (List.map
         (Format.asprintf "%a" (Core.Explain.pp Mj.stat_schema))
         (Core.Explain.all compiled))
  in
  check Alcotest.string "MJ explanations"
    {|te[FN] = Michael
  because axiom7:MN          null ⪯ Jeffrey on MN
  because phi5               MJ ⪯ Michael on FN
te[MN] = Jeffrey
  because axiom7:MN          null ⪯ Jeffrey on MN
te[LN] = Jordan
  because axiom7:LN          null ⪯ Jordan on LN
te[rnds] = 27
  because axiom7:MN          null ⪯ Jeffrey on MN
  because axiom7:LN          null ⪯ Jordan on LN
  because phi1               16 ⪯ 27 on rnds
  because phi1               1 ⪯ 16 on rnds
  because phi5               MJ ⪯ Michael on FN
  because phi6#1             te[league] := NBA (master data)
  because axiom8:league      SL ⪯ NBA on league
  because phi4               127 ⪯ 1 on rnds
te[totalPts] = 772
  because axiom7:MN          null ⪯ Jeffrey on MN
  because axiom7:LN          null ⪯ Jordan on LN
  because phi1               16 ⪯ 27 on rnds
  because phi1               1 ⪯ 16 on rnds
  because phi5               MJ ⪯ Michael on FN
  because phi3               424 ⪯ 772 on totalPts
  because phi3               19 ⪯ 424 on totalPts
  because phi6#1             te[league] := NBA (master data)
  because axiom8:league      SL ⪯ NBA on league
  because phi4               127 ⪯ 1 on rnds
  because phi3               51 ⪯ 19 on totalPts
te[J#] = 23
  because phi1               16 ⪯ 27 on rnds
  because phi1               1 ⪯ 16 on rnds
  because phi2               45 ⪯ 23 on J#
te[league] = NBA
  because axiom7:MN          null ⪯ Jeffrey on MN
  because axiom7:LN          null ⪯ Jordan on LN
  because phi5               MJ ⪯ Michael on FN
  because phi6#1             te[league] := NBA (master data)
  because axiom8:league      SL ⪯ NBA on league
te[team] = Chicago Bulls
  because axiom7:MN          null ⪯ Jeffrey on MN
  because axiom7:LN          null ⪯ Jordan on LN
  because phi5               MJ ⪯ Michael on FN
  because phi6#2             te[team] := Chicago Bulls (master data)
  because axiom8:team        Birmingham Barons ⪯ Chicago Bulls on team
  because axiom8:team        Chicago ⪯ Chicago Bulls on team
te[arena] = United Center
  because axiom7:MN          null ⪯ Jeffrey on MN
  because axiom7:LN          null ⪯ Jordan on LN
  because phi5               MJ ⪯ Michael on FN
  because phi6#2             te[team] := Chicago Bulls (master data)
  because axiom8:team        Birmingham Barons ⪯ Chicago Bulls on team
  because axiom8:team        Chicago ⪯ Chicago Bulls on team
  because phi11              Regions Park ⪯ United Center on arena
  because phi11              Chicago Stadium ⪯ United Center on arena
|} text

let test_golden_mj_non_cr_blame () =
  match Is_cr.run Mj.non_cr_specification with
  | Is_cr.Not_church_rosser { rule; reason } ->
      check Alcotest.string "blamed rule"
    {|phi6#1: te[league] already holds SL, master asserts NBA|} (rule ^ ": " ^ reason)
  | Is_cr.Church_rosser _ -> Alcotest.fail "S' must not be Church-Rosser"

(* te[A] = "a" from the template while r1 orders a ⪯ b: φ8 then adds
   c ⪯ a, which makes b the greatest value of A against te[A] = a.
   r2 waits on the same te equality as φ8 and fires first. *)
let test_golden_axiom8_conflict () =
  let s x = Value.String x in
  let spec =
    golden_spec ~attrs:[ "A"; "B" ]
      ~template:[| s "a"; Value.Null |]
      [ [| s "a"; s "x" |]; [| s "b"; s "y" |]; [| s "c"; s "x" |] ]
      {|rule r1: forall t1, t2 in r: t1.A = "a" and t2.A = "b" -> t1 <=[A] t2
rule r2: forall t1, t2 in r: te.A = "a" and t1.B = "y" and t2.B = "x" -> t1 <=[B] t2
|}
  in
  check Alcotest.string "φ8 conflict"
    {|r1: a ⪯ b on A
r2: y ⪯ x on B
conflict: axiom8:A (lambda would change te[A] from a to b)
fired 5, changed 2|} (golden_run spec)

(* φ7 orders null ⪯ x on A, and that edge is all u1 waits for. *)
let test_golden_axiom7_wakes_user_rule () =
  let s x = Value.String x in
  let spec =
    golden_spec ~attrs:[ "A"; "B" ]
      [ [| Value.Null; s "p" |]; [| s "x"; s "q" |]; [| s "x"; s "p" |] ]
      {|rule u1: forall t1, t2 in r: t1 <[A] t2 -> t1 <=[B] t2
|}
  in
  check Alcotest.string "φ7 wakes u1"
    {|axiom7:A: null ⪯ x on A
u1: p ⪯ q on B
church-rosser: x, q
fired 9, changed 2|} (golden_run spec)

(* ------------------------------------------------------------------ *)
(* Worklist regressions                                               *)
(* ------------------------------------------------------------------ *)

(* Regression: the [chase_queue_hwm] gauge only observed the queue on
   [enqueue_if_ready], missing the initial worklist seeding — for
   axiom-heavy workloads (every step with an empty residue is
   seeded) the true peak. Count the predicate-free steps of the
   literal Γ, axiom steps included (the run queues those itself),
   independently and require the gauge to sit at or above it. *)
let test_chase_queue_hwm_counts_seeding () =
  let spec = Mj.specification in
  let seeded =
    List.length
      (List.filter
         (fun (s : Rules.Ground.step) -> s.preds = [])
         (Oracle.Literal_ground.of_spec spec))
  in
  check Alcotest.bool "fixture seeds a non-trivial worklist" true (seeded > 1);
  let was = Obs.enabled () in
  Obs.set_enabled true;
  Obs.reset ();
  ignore (Is_cr.run spec : Is_cr.verdict);
  Obs.set_enabled was;
  match Obs.find "chase_queue_hwm" with
  | Some (Obs.Gauge hwm) ->
      check Alcotest.bool
        (Printf.sprintf "hwm %.0f >= %d seeded steps" hwm seeded)
        true
        (hwm >= float_of_int seeded)
  | _ -> Alcotest.fail "chase_queue_hwm gauge must be registered"

(* ------------------------------------------------------------------ *)
(* Naive chase: differential testing                                  *)
(* ------------------------------------------------------------------ *)

let test_naive_chase_agrees_on_mj () =
  match (Is_cr.run Mj.specification, Chase.run Mj.specification) with
  | Is_cr.Church_rosser a, Chase.Terminal (b, steps) ->
      check (Alcotest.array value_testable) "same target" (Instance.te a)
        (Instance.te b);
      check Alcotest.bool "steps positive" true (steps > 0)
  | _ -> Alcotest.fail "both engines must terminate successfully"

let test_naive_chase_stuck_on_example6 () =
  match Chase.run Mj.non_cr_specification with
  | Chase.Stuck _ -> ()
  | Chase.Terminal _ ->
      (* The naive chase follows one sequence; on a non-CR spec the
         first-applicable policy must eventually trip over the
         conflicting step because it stays applicable. *)
      Alcotest.fail "expected the reference chase to get stuck"
  | Chase.Exhausted _ -> Alcotest.fail "unbudgeted chase cannot exhaust"

(* Random-policy differential property: on randomly generated
   Church-Rosser workloads (Med entities), every chase order reaches
   IsCR's terminal instance. *)
let differential_random_policy =
  QCheck.Test.make ~count:30 ~name:"naive chase (random order) agrees with IsCR"
    QCheck.(int_bound 10_000)
    (fun seed ->
      let ds = Datagen.Med_gen.dataset ~entities:3 ~seed () in
      List.for_all
        (fun e ->
          let spec = Datagen.Entity_gen.spec_for ds e in
          match Is_cr.run spec with
          | Is_cr.Not_church_rosser _ -> false (* generator guarantees CR *)
          | Is_cr.Church_rosser expected -> (
              let rng = Util.Prng.create (seed + 1) in
              match Chase.run ~policy:(Chase.Random rng) spec with
              | Chase.Terminal (got, _) ->
                  Array.for_all2 Value.equal (Instance.te expected) (Instance.te got)
              | Chase.Stuck _ | Chase.Exhausted _ -> false))
        ds.Datagen.Entity_gen.entities)

(* Interned engine vs the structural reference path on mixed-type
   worlds: respell roughly half of the exactly-representable Int
   cells of both the entity instances and the master relation as the
   numerically-equal Float. Interning identifies the spellings (ids
   are allocated per [Value.equal] class), the naive chase compares
   structurally — the cleaned target must not notice, and neither
   engine may disagree with its own run on the original spelling.
   Med datasets already carry the generator's injected faults
   (stale versions, covered-attribute noise). *)
let respell_relation g rel =
  Relation.map rel (fun t ->
      let out = ref t in
      for i = 0 to Tuple.arity t - 1 do
        match Tuple.get t i with
        | Value.Int n
          when Util.Prng.int g 2 = 0 && int_of_float (float_of_int n) = n ->
            out := Tuple.set !out i (Value.Float (float_of_int n))
        | _ -> ()
      done;
      !out)

let mixed_spelling_equivalence =
  QCheck.Test.make ~count:20
    ~name:"interned chase invariant under Int/Float respelling (vs naive)"
    QCheck.(int_bound 50_000)
    (fun seed ->
      let ds = Datagen.Med_gen.dataset ~entities:3 ~seed () in
      let g = Util.Prng.create (seed + 99) in
      let master = respell_relation g ds.Datagen.Entity_gen.master in
      List.for_all
        (fun (e : Datagen.Entity_gen.entity) ->
          let spec = Datagen.Entity_gen.spec_for ds e in
          let respelled =
            Spec.make_exn
              ~entity:(respell_relation g e.instance)
              ~master ds.Datagen.Entity_gen.ruleset
          in
          match (Is_cr.run spec, Is_cr.run respelled) with
          | Is_cr.Church_rosser a, Is_cr.Church_rosser b -> (
              Array.for_all2 Value.equal (Instance.te a) (Instance.te b)
              &&
              (* structural reference engine on the respelled world *)
              match Chase.run respelled with
              | Chase.Terminal (c, _) ->
                  Array.for_all2 Value.equal (Instance.te b) (Instance.te c)
              | Chase.Stuck _ | Chase.Exhausted _ -> false)
          | _ -> false (* generator guarantees CR either way *))
        ds.Datagen.Entity_gen.entities)

(* A service shares one specification between worker domains, and the
   specification makes its intern table on first use, filling its
   master's table: two domains compiling the same fresh specification
   at once must both succeed and agree. The master is padded with rows
   no rule joins on so that the fill lasts long enough to overlap. *)
let test_shared_spec_two_domains () =
  let pad =
    List.init 20_000 (fun i ->
        let s fmt = Value.String (Printf.sprintf fmt i) in
        Tuple.make [| s "fn%d"; s "ln%d"; s "lg%d"; Value.Int (10_000 + i); s "tm%d" |])
  in
  for _ = 1 to 4 do
    (* a fresh relation each round: a fresh master index to fill *)
    let master = Relation.make Mj.nba_schema (Relation.tuples Mj.nba @ pad) in
    let spec = Spec.make_exn ~entity:Mj.stat ~master Mj.ruleset in
    let ready = Atomic.make 0 in
    let run () =
      Atomic.incr ready;
      while Atomic.get ready < 2 do
        Domain.cpu_relax ()
      done;
      match Is_cr.run spec with
      | Is_cr.Church_rosser inst -> Ok (Instance.te inst)
      | Is_cr.Not_church_rosser { rule; _ } -> Error rule
      | exception e -> Error (Printexc.to_string e)
    in
    let other = Domain.spawn run in
    let mine = run () in
    List.iter
      (function
        | Ok te -> check (Alcotest.array value_testable) "target" Mj.expected_target te
        | Error e -> Alcotest.failf "concurrent compile failed: %s" e)
      [ mine; Domain.join other ]
  done

let test_chase_sequence_nonempty () =
  let seq = Chase.chase_sequence Mj.specification in
  check Alcotest.bool "terminal sequence recorded" true (List.length seq >= 9)

let () =
  Alcotest.run "core"
    [
      ( "running-example",
        [
          Alcotest.test_case "Example 5 target" `Quick test_mj_example5;
          Alcotest.test_case "Example 6 not Church-Rosser" `Quick
            test_mj_example6_not_cr;
          Alcotest.test_case "partial deduction without master" `Quick
            test_mj_partial_without_master;
          Alcotest.test_case "trace" `Quick test_mj_trace_is_terminal_sequence;
        ] );
      ( "specification",
        [
          Alcotest.test_case "validation" `Quick test_spec_validation;
          Alcotest.test_case "template roundtrip" `Quick test_spec_template_roundtrip;
          Alcotest.test_case "shared by two domains on first use" `Quick
            test_shared_spec_two_domains;
        ] );
      ( "instance",
        [
          Alcotest.test_case "λ sets te" `Quick test_instance_lambda_sets_te;
          Alcotest.test_case "λ conflict invalid" `Quick
            test_instance_lambda_conflict_is_invalid;
          Alcotest.test_case "assign semantics" `Quick test_instance_assign_semantics;
          Alcotest.test_case "refresh single class" `Quick
            test_instance_refresh_single_class;
          Alcotest.test_case "order cycle invalid" `Quick
            test_instance_order_conflict_invalid;
        ] );
      ( "compiled",
        [
          Alcotest.test_case "replay deterministic" `Quick
            test_compiled_replay_deterministic;
          Alcotest.test_case "check accepts/rejects" `Quick
            test_check_accepts_target_rejects_wrong;
          Alcotest.test_case "check requires completeness" `Quick
            test_check_requires_complete;
        ] );
      ( "degenerate",
        [
          Alcotest.test_case "empty instance" `Quick test_empty_instance;
          Alcotest.test_case "singleton instance" `Quick test_singleton_instance;
          Alcotest.test_case "conflicting master rows" `Quick
            test_conflicting_master_rows;
        ] );
      ( "session",
        [
          Alcotest.test_case "fill equals from-scratch" `Quick
            test_session_fill_equals_scratch;
          Alcotest.test_case "fill fires the folded φ8 slot" `Quick
            test_session_fill_fires_folded_slot;
          Alcotest.test_case "conflicting fill breaks session" `Quick
            test_session_conflicting_fill;
          Alcotest.test_case "null fill rejected" `Quick
            test_session_null_fill_rejected;
          QCheck_alcotest.to_alcotest session_incremental_property;
          Alcotest.test_case "rejected fill list leaves no trace" `Quick
            test_session_rejected_fill_list_leaves_no_trace;
        ] );
      ( "state",
        [
          QCheck_alcotest.to_alcotest interleaving_property;
          QCheck_alcotest.to_alcotest budgeted_property;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "equals fresh check on MJ" `Quick
            test_snapshot_equals_fresh_check_mj;
          Alcotest.test_case "non-CR base rejects all" `Quick
            test_snapshot_non_cr_rejects_all;
          Alcotest.test_case "null candidate rejected" `Quick
            test_snapshot_null_candidate_rejected;
          Alcotest.test_case "equivalence under rule faults" `Quick
            test_snapshot_equivalence_under_rule_faults;
          Alcotest.test_case "undo restores interned slot state" `Quick
            test_undo_restores_interned_slot;
          Alcotest.test_case "respelled candidates after interning" `Quick
            test_snapshot_after_interning_respelled;
          QCheck_alcotest.to_alcotest snapshot_delta_property;
          Alcotest.test_case "nogoods learned and reused" `Quick
            test_nogoods_learned_and_reused;
          QCheck_alcotest.to_alcotest nogood_property;
          Alcotest.test_case "nogood beyond the conflicting step" `Quick
            test_nogood_beyond_the_conflicting_step;
        ] );
      ( "golden",
        [
          Alcotest.test_case "MJ trace" `Quick test_golden_mj_trace;
          Alcotest.test_case "MJ explanations" `Quick test_golden_mj_explain;
          Alcotest.test_case "MJ non-CR blame" `Quick test_golden_mj_non_cr_blame;
          Alcotest.test_case "axiom8 conflict" `Quick test_golden_axiom8_conflict;
          Alcotest.test_case "axiom7 wakes a user rule" `Quick
            test_golden_axiom7_wakes_user_rule;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "queue hwm sees initial seeding" `Quick
            test_chase_queue_hwm_counts_seeding;
        ] );
      ( "explain",
        [
          Alcotest.test_case "values match chase" `Quick
            test_explain_value_matches_chase;
          Alcotest.test_case "master step + dependencies" `Quick
            test_explain_master_step_present;
          Alcotest.test_case "rules_used" `Quick test_explain_rules_used_subset;
          Alcotest.test_case "non-CR empty" `Quick test_explain_non_cr_empty;
        ] );
      ( "differential",
        [
          Alcotest.test_case "naive agrees on MJ" `Quick test_naive_chase_agrees_on_mj;
          Alcotest.test_case "naive stuck on Example 6" `Quick
            test_naive_chase_stuck_on_example6;
          Alcotest.test_case "chase sequence" `Quick test_chase_sequence_nonempty;
          QCheck_alcotest.to_alcotest differential_random_policy;
          QCheck_alcotest.to_alcotest mixed_spelling_equivalence;
        ] );
    ]
