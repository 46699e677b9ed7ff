(* The engine's Γ (templates materialized on demand) against the
   reference: the naive [Chase] over the literal grounding of Σ must
   agree with [Is_cr] on every verdict and target, and materializing
   every template over every master row must rebuild the literal step
   set less its axiom steps. Plus a directed regression for the
   chase-null/active-domain residual case, a ruleset of more joined
   rules than 12 bits number, and a pinned touched-count over a seeded
   update stream (the over-dirtying regression guard). *)

open Alcotest
module Rel = Relational
module Value = Relational.Value
module Schema = Relational.Schema
module Tuple = Relational.Tuple
module Relation = Relational.Relation
module Spec = Core.Specification
module Is_cr = Core.Is_cr
module Sess = Framework.Session
module Chase = Oracle.Chase

let value_testable = Alcotest.testable Value.pp Value.equal

let er_of (ds : Datagen.Entity_gen.dataset) =
  {
    (Er.Resolver.default_config ~key_attrs:ds.config.keys
       ~compare_attrs:(List.map (fun a -> (a, 1.0)) ds.config.keys))
    with
    use_soundex = true;
    threshold = 0.72;
  }

(* ------------------------------------------------------------------ *)
(* Report equality, byte for byte (same notion as test_session)       *)
(* ------------------------------------------------------------------ *)

let outcome_repr = function
  | Framework.Cleaner.Complete -> "complete"
  | Framework.Cleaner.Completed_by_topk -> "topk"
  | Framework.Cleaner.Still_incomplete -> "incomplete"
  | Framework.Cleaner.Not_church_rosser r -> "ncr:" ^ r
  | Framework.Cleaner.Quarantined e -> "quar:" ^ Robust.Error.to_string e

let report_diff (a : Framework.Cleaner.report) (b : Framework.Cleaner.report) =
  if Rel.Relation.size a.cleaned <> Rel.Relation.size b.cleaned then
    Some
      (Printf.sprintf "cleaned sizes differ: %d vs %d"
         (Rel.Relation.size a.cleaned)
         (Rel.Relation.size b.cleaned))
  else
    let bad = ref None in
    for i = 0 to Rel.Relation.size a.cleaned - 1 do
      if
        !bad = None
        && not
             (Rel.Tuple.equal_values
                (Rel.Relation.tuple a.cleaned i)
                (Rel.Relation.tuple b.cleaned i))
      then bad := Some (Printf.sprintf "cleaned row %d differs" i)
    done;
    match !bad with
    | Some _ as d -> d
    | None ->
        let outs r =
          String.concat ";"
            (List.map
               (fun (i, o) -> Printf.sprintf "%d:%s" i (outcome_repr o))
               r.Framework.Cleaner.outcomes)
        in
        let counters (r : Framework.Cleaner.report) =
          [
            r.entities;
            r.complete;
            r.completed_by_topk;
            r.still_incomplete;
            r.rejected;
            r.quarantined;
            r.retries_used;
            r.cell_changes;
          ]
        in
        if outs a <> outs b then
          Some (Printf.sprintf "outcomes differ: [%s] vs [%s]" (outs a) (outs b))
        else if counters a <> counters b then Some "counters differ"
        else None

(* ------------------------------------------------------------------ *)
(* Property: Is_cr == the reference Chase                             *)
(* ------------------------------------------------------------------ *)

(* Church-Rosser means every chasing sequence ends in the same
   terminal instance, so the reference chase must reach it; a stuck
   reference sequence proves the specification is not Church-Rosser.
   [Is_cr] may reject a specification on which one particular
   sequence happens to terminate, so that direction is not checked.
   Returns the Is_cr target when Church-Rosser. *)
let agrees_with_chase spec =
  match Chase.versus_is_cr spec with Ok te -> te | Error msg -> QCheck.Test.fail_report msg

let med_equals_chase =
  QCheck.Test.make ~count:8
    ~name:"Is_cr == Chase on random Med entities (verdict, te)"
    QCheck.(pair (int_range 6 16) (int_range 1 10_000))
    (fun (entities, seed) ->
      let ds = Datagen.Med_gen.dataset ~entities ~seed () in
      List.iter
        (fun e -> ignore (agrees_with_chase (Datagen.Entity_gen.spec_for ds e)))
        ds.entities;
      true)

(* The Syn workload is the skewed case the residual index is for: a
   master far larger than any entity's reachable slice (random domain
   values, so most join keys never appear in the entity), plus plain
   attributes that stay chase-null and force the top-k search through
   active-domain candidates. Every top-k target is a candidate
   target, so the reference chase from it must terminate. The entity
   is kept small because the reference chase rescans all of Γ per
   step (about 20 s per run at 60 tuples); the master still dwarfs
   it. *)
let syn_equals_chase =
  QCheck.Test.make ~count:5
    ~name:"Is_cr == Chase on skewed Syn (verdict, te, top-k targets)"
    QCheck.(pair (int_range 1 1_000) (int_range 100 400))
    (fun (seed, im) ->
      let syn = Datagen.Syn_gen.dataset ~ie:10 ~im ~sigma:30 ~seed () in
      let c = Is_cr.compile syn.spec in
      if Is_cr.compiled_template_count c = 0 then
        QCheck.Test.fail_report "Syn rules produced no templates";
      match agrees_with_chase syn.spec with
      | None ->
          (* A 10-tuple entity now and then meets conflicting master
             rows (about one spec in 400): a correct rejection, with
             no targets to check. *)
          true
      | Some te ->
          let targets =
            match Topk.solve ~algo:`Ct ~k:2 ~pref:syn.pref c te with
            | Ok o -> o.Topk.targets
            | Error e ->
                QCheck.Test.fail_reportf "topk failed: %s"
                  (Robust.Error.to_string e)
          in
          List.for_all
            (fun t ->
              match Chase.run (Spec.with_template syn.spec t) with
              | Chase.Terminal _ -> true
              | Chase.Stuck { rule; reason } ->
                  QCheck.Test.fail_reportf "top-k target stuck (%s: %s)" rule
                    reason
              | Chase.Exhausted _ -> false)
            targets)

(* ------------------------------------------------------------------ *)
(* Directed: materialization through a chase-null attribute           *)
(* ------------------------------------------------------------------ *)

(* te[a] stays null at the fixpoint (two conflicting values, no
   order), so the form-(2) rule's join residual te[a] = tm[b] is only
   ever decided during a candidate check, when the candidate assigns
   an active-domain value to [a]. The engine must materialize the
   step at exactly that point — from inside a trial's delta —
   and roll it back into a reusable state. *)
let entity_schema = Schema.make "s" [ "k"; "a"; "d" ]
let master_schema = Schema.make "m" [ "b"; "c" ]

let null_case ?(extra = []) ?(rules = []) () =
  let entity =
    Relation.make entity_schema
      [
        Tuple.make [| Value.String "e"; Value.Int 1; Value.Null |];
        Tuple.make [| Value.String "e"; Value.Int 2; Value.Null |];
      ]
  in
  (* Two reachable rows and a long unreachable tail: the index must
     hit only on join values the check actually assigns. *)
  let master =
    Relation.make master_schema
      (Tuple.make [| Value.Int 1; Value.String "X1" |]
      :: Tuple.make [| Value.Int 2; Value.String "X2" |]
      :: List.init 50 (fun i ->
             Tuple.make [| Value.Int (100 + i); Value.String "far" |])
      @ extra)
  in
  let rule =
    Rules.Ar.Form2
      {
        f2_name = "copy-d";
        f2_lhs = [ Rules.Ar.Te_master (1, 0) ];
        f2_te_attr = 2;
        f2_tm_attr = 1;
      }
  in
  let rs =
    Rules.Ruleset.make_exn ~schema:entity_schema ~master:master_schema
      (rule :: rules)
  in
  Spec.make_exn ~entity ~master rs

let counter name =
  match Obs.find name with Some (Obs.Counter v) -> v | _ -> 0

(* ------------------------------------------------------------------ *)
(* Property: full materialization rebuilds the reference Γ            *)
(* ------------------------------------------------------------------ *)

(* A step's identity up to provenance: its residual set and action,
   with values keyed by id in one shared table (numeric twins unify,
   as in the grounding's own dedup). *)
let step_key ids (s : Rules.Ground.step) =
  let vid v = string_of_int (Rel.Intern.intern ids v) in
  let pred = function
    | Rules.Ground.P_ord { attr; c1; c2 } -> Printf.sprintf "ord %d %d %d" attr c1 c2
    | Rules.Ground.P_te { attr; op; value } ->
        Format.asprintf "te %d %a %s" attr Rules.Ar.pp_op op (vid value)
  in
  let action =
    match s.action with
    | Rules.Ground.Add_order { attr; c1; c2 } -> Printf.sprintf "add %d %d %d" attr c1 c2
    | Rules.Ground.Refresh attr -> Printf.sprintf "refresh %d" attr
    | Rules.Ground.Assign { attr; value } -> Printf.sprintf "assign %d %s" attr (vid value)
  in
  String.concat " & " (List.sort_uniq compare (List.map pred s.preds)) ^ " => " ^ action

let key_set ids steps = List.sort compare (List.map (step_key ids) steps)
let decoded g = List.init (Rules.Ground.count g) (Rules.Ground.step g)

(* Whether a step of the literal Γ comes from an axiom: the engine's
   Γ leaves those to the chase, which applies them itself. *)
let axiom_step spec (s : Rules.Ground.step) =
  List.exists (fun r -> Rules.Ar.name r = s.rule_name) (Rules.Ruleset.axioms (Spec.ruleset spec))

let ground spec f =
  f ~intern:(Spec.intern spec) ~ruleset:(Spec.ruleset spec)
    ~entity:(Spec.entity spec) ~master:(Spec.master_index spec)
    ~orders:(Spec.numbering spec)

(* The engine's prefix Γ with every template materialized over every
   master row. *)
let fully_materialized spec =
  let g = Rules.Ground.fork (ground spec (Rules.Ground.instantiate ?only:None) ()) in
  (match Spec.master spec with
  | None -> ()
  | Some m ->
      let rows = List.init (Relation.size m) Fun.id in
      Array.iter
        (fun t ->
          Rules.Ground.materialize g ~rows (Rules.Ground.template_id t)
            ~on_new:ignore)
        (Rules.Ground.templates g));
  g

let materialized_equals_reference spec =
  let ids = Rel.Intern.create () in
  key_set ids (decoded (fully_materialized spec))
  = key_set ids
      (List.filter (fun s -> not (axiom_step spec s)) (Oracle.Literal_ground.of_spec spec))

(* A join-less rule whose steps duplicate [copy-d]'s: its selection
   and constant test pick exactly the row [copy-d] joins on a = 1. *)
let copy_d_const =
  Rules.Ar.Form2
    {
      f2_name = "copy-d-const";
      f2_lhs =
        [
          Rules.Ar.Te_const (1, Rules.Ar.Eq, Value.Int 1);
          Rules.Ar.Master_const (0, Rules.Ar.Eq, Value.Int 1);
        ];
      f2_te_attr = 2;
      f2_tm_attr = 1;
    }

(* Besides the random corpora: Mj's φ6 carries a master selection;
   the chase-null spec gets master rows whose join or assigned cell
   is null, which must ground nothing, and a rule without a join
   whose prefix step duplicates one the template materializes, which
   dedup must drop. *)
let materialization_property =
  QCheck.Test.make ~count:6
    ~name:"fully materialized Γ == reference Γ (random Med and Syn)"
    QCheck.(int_range 1 10_000)
    (fun seed ->
      materialized_equals_reference Datagen.Mj.specification
      && materialized_equals_reference
           (null_case
              ~extra:
                [
                  Tuple.make [| Value.Null; Value.String "X0" |];
                  Tuple.make [| Value.Int 1; Value.Null |];
                ]
              ~rules:[ copy_d_const ] ())
      &&
      let ds = Datagen.Med_gen.dataset ~entities:4 ~seed () in
      let syn = Datagen.Syn_gen.dataset ~ie:30 ~im:120 ~sigma:30 ~seed () in
      List.for_all
        (fun e -> materialized_equals_reference (Datagen.Entity_gen.spec_for ds e))
        ds.entities
      && materialized_equals_reference syn.spec)

(* Materialization reproduces the literal dedup classes but not
   always their provenance: the literal Γ credits the step te[a] = 1
   => te[d] := X1 to [copy-d], first in Σ, while [copy-d] is a
   template, so the engine's prefix already holds [copy-d-const]'s
   copy of it when the template materializes, and that name stays. *)
let test_materialized_provenance () =
  let spec = null_case ~rules:[ copy_d_const ] () in
  let x1_names steps =
    List.filter_map
      (function
        | { Rules.Ground.action = Rules.Ground.Assign { attr = 2; value }; rule_name; _ }
          when Value.equal value (Value.String "X1") ->
            Some rule_name
        | _ -> None)
      steps
  in
  check (list string) "literal Γ credits the templated rule" [ "copy-d" ]
    (x1_names (Oracle.Literal_ground.of_spec spec));
  check (list string) "materialized Γ keeps the prefix's name" [ "copy-d-const" ]
    (x1_names (decoded (fully_materialized spec)));
  check bool "same dedup classes" true (materialized_equals_reference spec)

(* Every joined form-(2) rule becomes a template, however many Σ holds:
   4,097 copies of a joined rule over a 50-row master, more than the 12
   bits a template id once had in the chase's probe marks. Copy 0
   selects master row b = v, the only row the entity's a = v joins;
   copy i > 0 selects b = 3 + i mod 47. The chase probes the join value
   v for every template, copy 0 last, so the one step that fires needs
   a probe mark of its own for each (value, template) pair. Two values
   of v, so that their ids differ in the low bit. *)
let test_every_joined_rule_templates () =
  let nrules = 4097 in
  let master =
    Relation.make master_schema
      (List.init 50 (fun b -> Tuple.make [| Value.Int b; Value.String (Printf.sprintf "X%d" b) |]))
  in
  let rule v i =
    Rules.Ar.Form2
      {
        f2_name = Printf.sprintf "copy-%d" i;
        f2_lhs =
          [
            Rules.Ar.Te_master (1, 0);
            Rules.Ar.Master_const (0, Rules.Ar.Eq, Value.Int (if i = 0 then v else 3 + (i mod 47)));
          ];
        f2_te_attr = 2;
        f2_tm_attr = 1;
      }
  in
  List.iter
    (fun v ->
      let entity =
        Relation.make entity_schema
          (List.init 2 (fun _ -> Tuple.make [| Value.String "e"; Value.Int v; Value.Null |]))
      in
      let rs =
        Rules.Ruleset.make_exn ~schema:entity_schema ~master:master_schema
          (List.init nrules (rule v))
      in
      let spec = Spec.make_exn ~entity ~master rs in
      let c = Is_cr.compile spec in
      check int "every joined rule is a template" nrules (Is_cr.compiled_template_count c);
      check int "the prefix holds no step" 0
        (Rules.Ground.count (ground spec (Rules.Ground.instantiate ?only:None) ()));
      check bool "fully materialized Γ == literal Γ" true (materialized_equals_reference spec);
      match agrees_with_chase spec with
      | Some te ->
          check value_testable "template 0's step fires"
            (Value.String (Printf.sprintf "X%d" v))
            te.(2)
      | None -> fail "the ruleset must be Church-Rosser")
    [ 1; 2 ]

let cand a d = [| Value.String "e"; Value.Int a; Value.String d |]

let test_null_residual_materializes () =
  Obs.set_enabled true;
  Obs.reset ();
  Fun.protect ~finally:(fun () -> Obs.set_enabled false) @@ fun () ->
  let spec = null_case () in
  let c = Is_cr.compile spec in
  check int "one template" 1 (Is_cr.compiled_template_count c);
  check bool "deferral counted" true
    (counter "instantiation_steps_deferred_total" > 0);
  (* Base fixpoint: te[a] must stay null. *)
  (match Is_cr.run_compiled c with
  | Is_cr.Church_rosser inst ->
      check value_testable "a chase-null" Value.Null (Core.Instance.te inst).(1)
  | Is_cr.Not_church_rosser { rule; reason } ->
      failf "not CR (%s: %s)" rule reason);
  let z = Is_cr.start ~template:(Array.make 3 Value.Null) c in
  let mrows0 = counter "instantiation_master_rows_visited_total" in
  (* Consistent copy: candidate d matches what the woken step
     assigns. Inconsistent copy: the step's assignment contradicts
     the candidate — the check can only reject it by actually
     materializing the step. *)
  check bool "a=1,d=X1 accepted" true (Is_cr.trial z (cand 1 "X1"));
  check bool "a=1,d=X2 rejected" false (Is_cr.trial z (cand 1 "X2"));
  check bool "a=2,d=X2 accepted" true (Is_cr.trial z (cand 2 "X2"));
  (* Rollback left the state reusable: repeat the first check. *)
  check bool "a=1,d=X1 still accepted" true
    (Is_cr.trial z (cand 1 "X1"));
  check bool "residual index hit" true
    (counter "residual_index_hits_total" > 0);
  check bool "steps materialized" true
    (counter "instantiation_steps_materialized_total" > 0);
  (* Sublinearity in |Im|: the checks visited only the probed join
     values' rows, never the 50-row unreachable tail. *)
  check bool "master rows visited stays o(|Im|)" true
    (counter "instantiation_master_rows_visited_total" - mrows0 < 10)

(* ------------------------------------------------------------------ *)
(* Fig. 4's work bounds as counters                                   *)
(* ------------------------------------------------------------------ *)

(* One run of the indexed chase enqueues each step of its Γ at most
   once, and Γ is the prefix plus the steps the run materialized; it
   also applies each axiom step of the reference Γ at most once, so
   fired ≤ |prefix| + materialized + axiom steps; a changing step is a
   fired one;
   and each residual slot is satisfied at most once, so the n_φ
   decrements stay under the residual slots of the fully materialized
   Γ (the run's Γ is a subset of it). *)
let fig4_bounds_hold spec =
  let c = Is_cr.compile spec in
  Obs.set_enabled true;
  Obs.reset ();
  Fun.protect ~finally:(fun () -> Obs.set_enabled false) @@ fun () ->
  ignore (Is_cr.run_compiled c : Is_cr.verdict);
  let fired = counter "chase_steps_fired_total"
  and changed = counter "chase_steps_changed_total"
  and decrements = counter "chase_pred_decrements_total"
  and materialized = counter "instantiation_steps_materialized_total" in
  let prefix = Rules.Ground.count (ground spec (Rules.Ground.instantiate ?only:None) ()) in
  let axioms =
    List.length (List.filter (axiom_step spec) (Oracle.Literal_ground.of_spec spec))
  in
  let full = fully_materialized spec in
  let slots =
    List.fold_left ( + ) 0
      (List.init (Rules.Ground.count full) (Rules.Ground.pred_count full))
  in
  if fired > prefix + materialized + axioms then
    QCheck.Test.fail_reportf "fired %d > prefix %d + materialized %d + axiom steps %d" fired
      prefix materialized axioms;
  if changed > fired then QCheck.Test.fail_reportf "changed %d > fired %d" changed fired;
  if decrements > slots then
    QCheck.Test.fail_reportf "decrements %d > %d residual slots" decrements slots;
  fired > 0

let fig4_bounds_property =
  QCheck.Test.make ~count:8
    ~name:"chase work bounds as counters (random Med and Syn)"
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let ds = Datagen.Med_gen.dataset ~entities:4 ~seed () in
      let syn = Datagen.Syn_gen.dataset ~ie:30 ~im:120 ~sigma:30 ~seed () in
      fig4_bounds_hold Datagen.Mj.specification
      && fig4_bounds_hold syn.spec
      && List.for_all
           (fun e -> fig4_bounds_hold (Datagen.Entity_gen.spec_for ds e))
           ds.entities)

(* ------------------------------------------------------------------ *)
(* Over-dirtying: pinned touched-count on a seeded mixed stream       *)
(* ------------------------------------------------------------------ *)

let test_touched_count_pinned () =
  let ds = Datagen.Med_gen.dataset ~entities:100 ~seed:97 () in
  let er = er_of ds in
  let s =
    Sess.create ~er ~master:ds.master ds.ruleset (Datagen.Update_gen.flatten ds)
  in
  let updates =
    Datagen.Update_gen.generate ~mix:Datagen.Update_gen.default_mix ~n:50
      ~seed:13 ds
  in
  let touched = ref 0 in
  List.iteri
    (fun i u ->
      match Sess.update s u with
      | Ok d -> touched := !touched + d.Sess.d_touched
      | Error e ->
          failf "generated update %d rejected: %s" i (Robust.Error.to_string e))
    updates;
  (* Ceiling measured at 129 when the reachability probes landed
     (rule add/retire used to dirty every entity on form-(2) churn,
     putting this stream in the thousands). Tightening may lower it;
     an affectedness regression may not raise it. *)
  check bool
    (Printf.sprintf "touched %d exceeds the over-dirtying ceiling" !touched)
    true (!touched <= 130);
  (* The pruning must still be sound: the maintained report matches a
     from-scratch clean of the final state. *)
  let batch =
    Framework.Cleaner.clean ~er
      ?master:(Sess.master s)
      (Sess.ruleset s) (Sess.relation s)
  in
  match report_diff (Sess.report s) batch with
  | None -> ()
  | Some d -> failf "pruned session diverged from batch: %s" d

let () =
  Alcotest.run "demand"
    [
      ( "equivalence",
        [
          QCheck_alcotest.to_alcotest med_equals_chase;
          QCheck_alcotest.to_alcotest syn_equals_chase;
          QCheck_alcotest.to_alcotest materialization_property;
        ] );
      ( "directed",
        [
          test_case "chase-null residual materializes on demand" `Quick
            test_null_residual_materializes;
          test_case "materialized provenance can differ from literal" `Quick
            test_materialized_provenance;
          test_case "every joined rule past 4,096 is a template" `Quick
            test_every_joined_rule_templates;
          test_case "seeded stream touched-count pinned" `Quick
            test_touched_count_pinned;
        ] );
      ("bounds", [ QCheck_alcotest.to_alcotest fig4_bounds_property ]);
    ]
