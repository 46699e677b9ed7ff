(* The robustness layer end to end: typed errors, budgets and
   graceful degradation, fault injection, and the cleaner's
   per-entity quarantine boundary. *)

open Alcotest
module Value = Relational.Value
module Relation = Relational.Relation
module Schema = Relational.Schema
module Csv = Relational.Csv
module Spec = Core.Specification
module Instance = Core.Instance
module Is_cr = Core.Is_cr
module Chase = Oracle.Chase
module Mj = Datagen.Mj
module Error = Robust.Error
module Budget = Robust.Budget
module Faultinject = Robust.Faultinject

let value_testable = Alcotest.testable Value.pp Value.equal

(* ------------------------------------------------------------------ *)
(* Error: classes, exit codes, exception bridge                       *)
(* ------------------------------------------------------------------ *)

(* One representative per variant. The match below is compiled
   without a wildcard, so adding an [Error.t] variant breaks this
   function until its representative (and exit code) is added —
   the table stays exhaustive by construction. *)
let representatives =
  let witness : Error.t -> unit = function
    | Error.Io _ | Error.Csv_shape _ | Error.Rule_parse _ | Error.Rule_invalid _
    | Error.Spec_invalid _ | Error.Order_conflict _ | Error.Budget_exhausted _
    | Error.Overloaded _ | Error.Circuit_open _ | Error.Internal _ ->
        ()
  in
  let all =
    [
      Error.order_conflict ~rule:"phi12" "conflicting orders";
      Error.io ~path:"x.csv" "no such file";
      Error.csv_shape ~row:7 "ragged";
      Error.rule_parse ~line:3 "bad token";
      Error.rule_invalid "unknown attribute";
      Error.spec_invalid "schema mismatch";
      Error.budget_exhausted ~trip:Error.Steps ~spent:10 "cap";
      Error.internal "bug";
      Error.overloaded ~depth:64 "queue full";
      Error.circuit_open ~spec:"e.csv|m.csv|r.txt" ~retry_ms:120.0 "tripped";
    ]
  in
  List.iter witness all;
  all

let test_error_exit_codes () =
  let codes = List.map Error.exit_code representatives in
  check (list int) "documented mapping"
    [ 2; 3; 4; 5; 6; 7; 8; 10; 11; 12 ]
    codes;
  (* distinct classes get distinct codes *)
  check int "codes are distinct" (List.length codes)
    (List.length (List.sort_uniq compare codes));
  (* every class renders a non-empty name and message *)
  List.iter
    (fun e ->
      check bool "class name" true (String.length (Error.class_name e) > 0);
      check bool "message" true (String.length (Error.to_string e) > 0))
    representatives

let test_error_of_exn () =
  (match Error.of_exn (Error.Error (Error.io ~path:"p" "d")) with
  | Error.Io { path; _ } -> check string "unwraps" "p" path
  | e -> failf "expected Io, got %s" (Error.to_string e));
  match Error.of_exn (Invalid_argument "index out of bounds") with
  | Error.Internal _ -> ()
  | e -> failf "expected Internal, got %s" (Error.to_string e)

(* ------------------------------------------------------------------ *)
(* Budget: limits and the armed meter                                 *)
(* ------------------------------------------------------------------ *)

let test_budget_limits () =
  check bool "unlimited" true (Budget.is_unlimited Budget.unlimited);
  check bool "capped is limited" false
    (Budget.is_unlimited (Budget.limits ~max_steps:1 ()));
  (match Budget.limits ~max_steps:(-1) () with
  | exception Invalid_argument _ -> ()
  | _ -> fail "negative cap accepted");
  let l = Budget.relax (Budget.limits ~max_steps:10 ~deadline_ms:5.0 ()) in
  check (option int) "relax x4" (Some 40) l.Budget.max_steps;
  check (option (float 1e-9)) "relax deadline" (Some 20.0) l.Budget.deadline_ms;
  let sat = Budget.relax (Budget.limits ~max_steps:(max_int / 2) ()) in
  check (option int) "relax saturates" (Some max_int) sat.Budget.max_steps

let test_budget_steps_trip () =
  let m = Budget.start (Budget.limits ~max_steps:3 ()) in
  check (option reject) "1" None (Budget.step m);
  check (option reject) "2" None (Budget.step m);
  check (option reject) "3" None (Budget.step m);
  (match Budget.step m with
  | Some Error.Steps -> ()
  | _ -> fail "4th step must trip");
  (* sticky *)
  (match Budget.check m with
  | Some Error.Steps -> ()
  | _ -> fail "trip must be sticky");
  check int "steps counted" 4 (Budget.steps_used m);
  check int "to_error maps to exit 8" 8 (Error.exit_code (Budget.to_error m))

let test_budget_deadline_trip () =
  let m = Budget.start (Budget.limits ~deadline_ms:0.0 ()) in
  while Budget.elapsed_ms m <= 0.0 do
    ()
  done;
  match Budget.check m with
  | Some Error.Deadline -> ()
  | _ -> fail "deadline must trip once the clock advances"

(* Deadlines are measured on the monotonic clock, so a wall-clock
   adjustment (an NTP step) in a long-lived process can neither
   spuriously trip a meter nor silently extend it. Simulated through
   the test-only [?clock] seam: the meter's clock advances 50 ms of
   real time while the "wall clock" steps a whole hour. *)
let test_budget_deadline_monotonic () =
  let a = Util.Timing.mono_ms () in
  let b = Util.Timing.mono_ms () in
  check bool "mono_ms is non-decreasing" true (b >= a);
  let mono_now = ref 1_000.0 in
  let m =
    Budget.start ~clock:(fun () -> !mono_now)
      (Budget.limits ~deadline_ms:100.0 ())
  in
  (* 50 ms of monotonic time pass; the wall clock (not consulted)
     steps back an hour meanwhile. *)
  mono_now := !mono_now +. 50.0;
  check (option reject) "a wall step cannot trip the meter" None
    (Budget.check m);
  check (float 1e-9) "elapsed tracks the monotonic source" 50.0
    (Budget.elapsed_ms m);
  mono_now := !mono_now +. 51.0;
  (match Budget.check m with
  | Some Error.Deadline -> ()
  | _ -> fail "the meter must still trip at its real deadline");
  (* Control: the same meter armed on a wall clock that steps
     forward an hour trips spuriously — exactly the failure the
     monotonic default prevents. *)
  let wall = ref 1_000.0 in
  let w =
    Budget.start ~clock:(fun () -> !wall)
      (Budget.limits ~deadline_ms:100.0 ())
  in
  wall := !wall +. 3_600_000.0;
  match Budget.check w with
  | Some Error.Deadline -> ()
  | _ -> fail "control: a stepped clock source must trip the meter"

(* ------------------------------------------------------------------ *)
(* Chase under budget: Exhausted partial results                      *)
(* ------------------------------------------------------------------ *)

(* The acceptance scenario: a chase that needs well over 10 steps,
   run under a 10-step budget plus a wall-clock deadline, must come
   back promptly with a tagged sound partial result. *)
let big_entity_spec () =
  let ds = Datagen.Med_gen.dataset ~entities:50 ~seed:4242 () in
  let biggest =
    List.fold_left
      (fun best (e : Datagen.Entity_gen.entity) ->
        match best with
        | Some (b : Datagen.Entity_gen.entity)
          when Relation.size b.instance >= Relation.size e.instance ->
            best
        | _ -> Some e)
      None ds.entities
  in
  Datagen.Entity_gen.spec_for ds (Option.get biggest)

let test_chase_exhausted_partial () =
  let spec = big_entity_spec () in
  let full =
    match Chase.run spec with
    | Chase.Terminal (inst, steps) -> (inst, steps)
    | _ -> fail "unbudgeted chase must terminate"
  in
  let full_te = Instance.te (fst full) in
  check bool "input is large enough to need > 10 steps" true (snd full > 10);
  let meter = Budget.start (Budget.limits ~max_steps:10 ~deadline_ms:60_000.0 ()) in
  match Chase.run ~budget:meter spec with
  | Chase.Exhausted { partial; steps; trip } ->
      check bool "stopped at the cap" true (steps <= 10);
      (match trip with
      | Error.Steps -> ()
      | t -> failf "tripped on %s, expected steps" (Error.trip_to_string t));
      (* Soundness: the chase is monotone and the policy is
         deterministic, so every value the partial run deduced must
         agree with the terminal instance. *)
      Array.iteri
        (fun a v ->
          if not (Value.is_null v) then
            check value_testable "partial agrees with terminal" full_te.(a) v)
        (Instance.te partial)
  | Chase.Terminal _ -> fail "10-step budget cannot finish this chase"
  | Chase.Stuck _ -> fail "generator specs do not get stuck"

let test_chase_stuck_detected () =
  match Chase.run Mj.non_cr_specification with
  | Chase.Stuck { rule; _ } -> check bool "culprit named" true (rule <> "")
  | _ -> fail "the non-CR spec must strand the reference chase"

let test_chase_survives_dropped_steps () =
  (* Dropping ground steps (Faultinject seam) starves the chase of
     derivations: any outcome is acceptable except an exception. *)
  let cfg = { Faultinject.none with step_drop_rate = 0.5 } in
  for seed = 0 to 9 do
    let g = Util.Prng.create seed in
    match Chase.run ~prepare:(Faultinject.drop_steps g cfg) Mj.specification with
    | Chase.Terminal _ | Chase.Stuck _ | Chase.Exhausted _ -> ()
  done

let test_is_cr_budgeted () =
  let spec = big_entity_spec () in
  let compiled = Is_cr.compile spec in
  (* a 0-step cap trips on the first (axiom) step, before it fires *)
  let strangled =
    Is_cr.start ~budget:(Budget.start (Budget.limits ~max_steps:0 ())) compiled
  in
  (match Is_cr.exhausted strangled with
  | Some { fired; trip; _ } ->
      check int "nothing fired" 0 fired;
      check string "step trip" "max-steps" (Error.trip_to_string trip)
  | None -> fail "0-step budget cannot complete");
  check bool "an exhausted start has no conflict" true (Is_cr.conflict strangled = None);
  (* an exhausted start is a partial, not a fixpoint to resume *)
  let refused name f =
    match f () with
    | _ -> failf "%s must refuse an exhausted state" name
    | exception Invalid_argument _ -> ()
  in
  refused "fill" (fun () -> ignore (Is_cr.fill strangled []));
  refused "trial" (fun () ->
      ignore (Is_cr.trial strangled (Array.map (fun _ -> Relational.Value.Int 0) (Is_cr.te strangled))));
  refused "null_base" (fun () -> ignore (Is_cr.null_base ~state:strangled compiled));
  (* a generous budget agrees with the unbudgeted run *)
  let generous =
    Is_cr.start ~budget:(Budget.start (Budget.limits ~max_steps:1_000_000 ())) compiled
  in
  check bool "generous budget does not trip" true (Is_cr.exhausted generous = None);
  match Is_cr.run_compiled compiled with
  | Is_cr.Church_rosser b ->
      check bool "no conflict" true (Is_cr.conflict generous = None);
      check (array value_testable) "same target" (Instance.te b) (Is_cr.te generous)
  | Is_cr.Not_church_rosser _ -> fail "big entity must be Church-Rosser"

(* ------------------------------------------------------------------ *)
(* Top-k under budget                                                 *)
(* ------------------------------------------------------------------ *)

let partial_mj_spec () =
  (* Mj without master data: league/team/arena stay null, so the
     top-k search has real work to do. *)
  let rs =
    Rules.Ruleset.make_exn ~schema:Mj.stat_schema ~master:Mj.nba_schema
      (Rules.Ruleset.user_rules Mj.ruleset)
  in
  Spec.make_exn ~entity:Mj.stat ~master:(Relation.make Mj.nba_schema []) rs

let test_rank_join_budget () =
  let spec = partial_mj_spec () in
  let compiled = Is_cr.compile spec in
  let te =
    match Is_cr.run_compiled compiled with
    | Is_cr.Church_rosser inst -> Instance.te inst
    | Is_cr.Not_church_rosser _ -> fail "partial Mj spec is CR"
  in
  check bool "te is incomplete" true (Array.exists Value.is_null te);
  let pref = Topk.Preference.of_occurrences Mj.stat in
  let solve ?budget () =
    match Topk.solve ~algo:`Rank_join ?budget ~k:2 ~pref compiled te with
    | Ok o -> o
    | Error e -> fail (Robust.Error.to_string e)
  in
  let free = solve () in
  check bool "unbudgeted run must complete" true (free.Topk.exhausted = None);
  let squeezed = solve ~budget:(Budget.start (Budget.limits ~max_steps:1 ())) () in
  check bool "1-combination budget must exhaust" true (squeezed.Topk.exhausted <> None);
  check bool "still returns at most k" true (List.length squeezed.Topk.targets <= 2);
  (* every partial answer is a genuine candidate *)
  List.iter
    (fun t -> check bool "candidate" true (Is_cr.check compiled t))
    squeezed.Topk.targets

(* ------------------------------------------------------------------ *)
(* Fault injection: determinism and typed degradation                 *)
(* ------------------------------------------------------------------ *)

let sample_rows =
  [ [ "FN"; "rnds"; "team" ]; [ "Michael"; "27"; "Bulls" ]; [ "M."; "45"; "Bulls" ] ]

let test_faultinject_deterministic () =
  let cfg = { Faultinject.none with cell_rate = 0.5; ragged_rate = 0.3 } in
  let run seed =
    Faultinject.corrupt_rows (Util.Prng.create seed) cfg sample_rows
  in
  check
    (list (list string))
    "same seed, same faults" (run 7) (run 7);
  let g = Util.Prng.create 11 in
  let cell = Faultinject.corrupt_cell g "27" in
  check bool "scramble changes the cell" true (cell <> "27");
  check bool "numeric cell stops parsing as int" true
    (match Value.of_string_guess cell with Value.Int _ -> false | _ -> true)

let test_faultinject_header_survives () =
  let cfg = { Faultinject.none with cell_rate = 1.0 } in
  match Faultinject.corrupt_rows (Util.Prng.create 3) cfg sample_rows with
  | header :: _ -> check (list string) "header intact" [ "FN"; "rnds"; "team" ] header
  | [] -> fail "rows lost"

let test_csv_faults_become_typed_errors () =
  (* Ragged rows: the loader localises the fault to file and row. *)
  let cfg = { Faultinject.none with ragged_rate = 1.0 } in
  let corrupted =
    Faultinject.corrupt_rows (Util.Prng.create 5) cfg sample_rows
  in
  (match Csv.relation_of_rows_result ~file:"inject.csv" ~name:"r" corrupted with
  | Error (Error.Csv_shape { file; row; _ }) ->
      check (option string) "file" (Some "inject.csv") file;
      check bool "row localised" true (row <> None)
  | Error e -> failf "wrong class: %s" (Error.to_string e)
  | Ok _ -> fail "ragged rows must be rejected");
  (* Unterminated quote: same, through the text-level parser. *)
  let cfg = { Faultinject.none with unterminated_rate = 1.0 } in
  let text =
    Faultinject.corrupt_csv_text (Util.Prng.create 5) cfg "a,b\n1,2\n"
  in
  match Csv.parse_string_result ~file:"inject.csv" text with
  | Error (Error.Csv_shape _) -> ()
  | Error e -> failf "wrong class: %s" (Error.to_string e)
  | Ok _ -> fail "unterminated quote must be rejected"

let test_rule_faults_become_typed_errors () =
  let cfg = { Faultinject.none with rule_token_rate = 1.0 } in
  let rejected = ref 0 in
  for seed = 0 to 19 do
    let text =
      Faultinject.corrupt_rule_text (Util.Prng.create seed) cfg Mj.rules_text
    in
    match
      Rules.Parser.parse_robust ~schema:Mj.stat_schema ~master:Mj.nba_schema
        ~file:"inject.rules" text
    with
    | Error (Error.Rule_parse { file; _ }) ->
        incr rejected;
        check (option string) "file carried" (Some "inject.rules") file
    | Error e -> failf "wrong class: %s" (Error.to_string e)
    | Ok _ -> ()
  done;
  check bool "corruption was detected" true (!rejected > 0)

let test_order_conflict_detected_under_injection () =
  (* Injecting the conflicting rule phi12 (Example 6) must be caught
     as an order conflict (anti-symmetry violation), never accepted
     and never a crash: IsCR names the culprit, and the CLI maps the
     class to exit code 2. *)
  match Is_cr.run Mj.non_cr_specification with
  | Is_cr.Church_rosser _ -> fail "conflicting orders accepted"
  | Is_cr.Not_church_rosser { rule; reason } ->
      let err = Error.order_conflict ~rule reason in
      check int "exit code 2" 2 (Error.exit_code err);
      (* IsCR names the once-valid step that can no longer be
         enforced — not necessarily the injected phi12 itself. *)
      check bool "culprit named" true (rule <> "")

(* ------------------------------------------------------------------ *)
(* Policy agreement when no budget trips (satellite property)         *)
(* ------------------------------------------------------------------ *)

let policies_agree_without_budget_trips =
  QCheck.Test.make ~count:25
    ~name:"First_applicable and Random agree on terminal instances when no budget trips"
    QCheck.(int_bound 10_000)
    (fun seed ->
      let ds = Datagen.Med_gen.dataset ~entities:3 ~seed () in
      List.for_all
        (fun e ->
          let spec = Datagen.Entity_gen.spec_for ds e in
          let generous () =
            Budget.start (Budget.limits ~max_steps:1_000_000 ())
          in
          let rng = Util.Prng.create (seed + 1) in
          match
            ( Chase.run ~budget:(generous ()) spec,
              Chase.run ~budget:(generous ())
                ~policy:(Chase.Random rng) spec )
          with
          | Chase.Terminal (a, _), Chase.Terminal (b, _) ->
              Array.for_all2 Value.equal (Instance.te a) (Instance.te b)
          | Chase.Exhausted _, _ | _, Chase.Exhausted _ ->
              false (* a generous budget must not trip *)
          | _ -> false)
        ds.Datagen.Entity_gen.entities)

(* ------------------------------------------------------------------ *)
(* Cleaner: end-to-end fault isolation                                *)
(* ------------------------------------------------------------------ *)

let med_batch ~entities ~seed =
  let ds = Datagen.Med_gen.dataset ~entities ~seed () in
  let flat =
    Relation.make ds.schema
      (List.concat_map
         (fun (e : Datagen.Entity_gen.entity) -> Relation.tuples e.instance)
         ds.entities)
  in
  let clusters, _ =
    List.fold_left
      (fun (acc, offset) (e : Datagen.Entity_gen.entity) ->
        let n = Relation.size e.instance in
        (List.init n (fun i -> offset + i) :: acc, offset + n))
      ([], 0) ds.entities
  in
  (ds, flat, List.rev clusters)

let test_cleaner_quarantines_poisoned_entities () =
  (* ~10% of a 60-entity batch is poisoned (clusters referencing
     rows that do not exist — upstream corruption); the batch must
     complete with typed quarantine reports for exactly those
     entities and correct targets for the rest. *)
  let entities = 60 in
  let ds, flat, clusters = med_batch ~entities ~seed:9001 in
  let g = Util.Prng.create 424242 in
  let poisoned = Hashtbl.create 8 in
  while Hashtbl.length poisoned < 6 do
    Hashtbl.replace poisoned (Util.Prng.int g entities) ()
  done;
  let clusters =
    List.mapi
      (fun i members ->
        if Hashtbl.mem poisoned i then (Relation.size flat + 1_000 + i) :: members
        else members)
      clusters
  in
  let report =
    Framework.Cleaner.clean ~clusters ~master:ds.master ds.ruleset flat
  in
  check int "batch completes" entities (Relation.size report.cleaned);
  check int "exactly the poisoned entities are quarantined" 6
    report.Framework.Cleaner.quarantined;
  check int "one error report per quarantined entity" 6
    (List.length report.Framework.Cleaner.errors);
  List.iter
    (fun (idx, err) ->
      check bool "quarantined entity was poisoned" true (Hashtbl.mem poisoned idx);
      match err with
      | Error.Internal _ -> ()
      | e -> failf "expected Internal, got %s" (Error.to_string e))
    report.Framework.Cleaner.errors;
  (* the healthy 90% still get correct targets *)
  let matches = ref 0.0 and healthy = ref 0 in
  List.iteri
    (fun i (e : Datagen.Entity_gen.entity) ->
      if not (Hashtbl.mem poisoned i) then begin
        incr healthy;
        matches :=
          !matches
          +. Truth.Metrics.attribute_match_rate ~truth:e.truth
               (Relational.Tuple.values (Relation.tuple report.cleaned i))
      end)
    ds.entities;
  check bool "healthy entities close to truth" true
    (!matches /. float_of_int !healthy > 0.6);
  (* outcome accounting includes the quarantined class *)
  check int "accounting" entities
    (report.complete + report.completed_by_topk + report.still_incomplete
   + report.rejected + report.quarantined)

let test_cleaner_budget_quarantine_and_retry () =
  let ds, flat, clusters = med_batch ~entities:8 ~seed:77 in
  (* a 0-step budget (relaxed ×4, still 0) trips on every entity's
     first axiom step and quarantines every entity... *)
  let strangled =
    Framework.Cleaner.clean ~clusters ~master:ds.master
      ~budget:(Budget.limits ~max_steps:0 ())
      ~retries:1 ds.ruleset flat
  in
  check int "all quarantined" 8 strangled.Framework.Cleaner.quarantined;
  check int "retries were attempted" 8 strangled.Framework.Cleaner.retries_used;
  List.iter
    (fun (_, err) ->
      match err with
      | Error.Budget_exhausted _ -> ()
      | e -> failf "expected Budget_exhausted, got %s" (Error.to_string e))
    strangled.Framework.Cleaner.errors;
  check int "degraded output still one tuple per entity" 8
    (Relation.size strangled.Framework.Cleaner.cleaned);
  (* ...while a tight-but-relaxable budget is rescued by retry *)
  let rescued =
    Framework.Cleaner.clean ~clusters ~master:ds.master
      ~budget:(Budget.limits ~max_steps:1 ())
      ~retries:8 ds.ruleset flat
  in
  check int "relaxed retries rescue every entity" 0
    rescued.Framework.Cleaner.quarantined;
  check bool "retries were used" true (rescued.Framework.Cleaner.retries_used > 0)

let () =
  Alcotest.run "robust"
    [
      ( "error",
        [
          test_case "exit codes" `Quick test_error_exit_codes;
          test_case "of_exn" `Quick test_error_of_exn;
        ] );
      ( "budget",
        [
          test_case "limits" `Quick test_budget_limits;
          test_case "steps trip" `Quick test_budget_steps_trip;
          test_case "deadline trip" `Quick test_budget_deadline_trip;
          test_case "deadline is NTP-step immune" `Quick
            test_budget_deadline_monotonic;
        ] );
      ( "degradation",
        [
          test_case "chase exhausts to sound partial" `Quick
            test_chase_exhausted_partial;
          test_case "chase stuck detected" `Quick test_chase_stuck_detected;
          test_case "chase survives dropped steps" `Quick
            test_chase_survives_dropped_steps;
          test_case "IsCR budgeted" `Quick test_is_cr_budgeted;
          test_case "rank-join budgeted" `Quick test_rank_join_budget;
          QCheck_alcotest.to_alcotest policies_agree_without_budget_trips;
        ] );
      ( "faultinject",
        [
          test_case "deterministic" `Quick test_faultinject_deterministic;
          test_case "header survives" `Quick test_faultinject_header_survives;
          test_case "CSV faults typed" `Quick test_csv_faults_become_typed_errors;
          test_case "rule faults typed" `Quick test_rule_faults_become_typed_errors;
          test_case "order conflict detected" `Quick
            test_order_conflict_detected_under_injection;
        ] );
      ( "quarantine",
        [
          test_case "poisoned batch isolates" `Quick
            test_cleaner_quarantines_poisoned_entities;
          test_case "budget quarantine and retry" `Quick
            test_cleaner_budget_quarantine_and_retry;
        ] );
    ]
