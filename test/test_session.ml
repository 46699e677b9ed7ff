(* The incremental-cleaning session (Framework.Session): the
   property that justifies the whole delta store — after any valid
   update stream, the maintained report is byte-identical to a
   from-scratch clean of the final state — plus unit coverage of the
   rule-name probe Rule_retire runs and the rule retire/re-add
   rollback. *)

open Alcotest
module Rel = Relational
module Sess = Framework.Session

let er_of (ds : Datagen.Entity_gen.dataset) =
  {
    (Er.Resolver.default_config ~key_attrs:ds.config.keys
       ~compare_attrs:(List.map (fun a -> (a, 1.0)) ds.config.keys))
    with
    use_soundex = true;
    threshold = 0.72;
  }

(* ------------------------------------------------------------------ *)
(* Report equality, byte for byte                                     *)
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
        let pair_repr (i, o) = Printf.sprintf "%d:%s" i (outcome_repr o) in
        let outs r =
          String.concat ";"
            (List.map pair_repr r.Framework.Cleaner.outcomes)
        in
        let errs r =
          String.concat ";"
            (List.map
               (fun (i, e) ->
                 Printf.sprintf "%d:%s" i (Robust.Error.to_string e))
               r.Framework.Cleaner.errors)
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
        else if errs a <> errs b then
          Some (Printf.sprintf "errors differ: [%s] vs [%s]" (errs a) (errs b))
        else if counters a <> counters b then Some "counters differ"
        else None

let check_reports_equal msg a b =
  match report_diff a b with
  | None -> ()
  | Some d -> failf "%s: %s" msg d

(* A from-scratch clean of the session's current state, with the same
   knobs the session was created with. *)
let batch_of ?budget ?(retries = 1) ~er s =
  Framework.Cleaner.clean ~er
    ?master:(Sess.master s) ?budget ~retries
    (Sess.ruleset s) (Sess.relation s)

(* ------------------------------------------------------------------ *)
(* The equivalence property                                           *)
(* ------------------------------------------------------------------ *)

let run_stream ?budget ?jobs ~entities ~ds_seed ~stream_seed ~n () =
  let ds = Datagen.Med_gen.dataset ~entities ~seed:ds_seed () in
  let er = er_of ds in
  let s =
    Sess.create ~er ~master:ds.master ?budget ?jobs ds.ruleset
      (Datagen.Update_gen.flatten ds)
  in
  let updates = Datagen.Update_gen.generate ~n ~seed:stream_seed ds in
  List.iteri
    (fun i u ->
      match Sess.update s u with
      | Ok _ -> ()
      | Error e ->
          failf "generated update %d rejected: %s" i (Robust.Error.to_string e))
    updates;
  (s, er)

let incremental_equals_batch =
  QCheck.Test.make ~count:10
    ~name:"session updates == from-scratch clean of the final state"
    QCheck.(
      quad (int_range 6 16) (int_range 1 10_000) (int_range 5 25) bool)
    (fun (entities, seed, n, par) ->
      (* [par] exercises the parallel initial clean: the session may
         open on 3 domains while the reference batch is serial — the
         reports must not care. *)
      let jobs = if par then 3 else 1 in
      let s, er =
        run_stream ~jobs ~entities ~ds_seed:(seed * 2 + 1)
          ~stream_seed:(seed * 7 + 3) ~n ()
      in
      match report_diff (Sess.report s) (batch_of ~er s) with
      | None -> true
      | Some d -> QCheck.Test.fail_reportf "reports diverged: %s" d)

let incremental_equals_batch_budgeted =
  QCheck.Test.make ~count:6
    ~name:"budgeted session updates == budgeted from-scratch clean"
    QCheck.(triple (int_range 6 12) (int_range 1 10_000) (int_range 5 20))
    (fun (entities, seed, n) ->
      (* Under a finite step budget the report must STILL match a
         from-scratch budgeted clean, including retry and quarantine
         accounting. *)
      let budget = Robust.Budget.limits ~max_steps:60 () in
      let s, er =
        run_stream ~budget ~entities ~ds_seed:(seed * 3 + 2)
          ~stream_seed:(seed * 5 + 1) ~n ()
      in
      match report_diff (Sess.report s) (batch_of ~budget ~er s) with
      | None -> true
      | Some d -> QCheck.Test.fail_reportf "budgeted reports diverged: %s" d)

(* One to seven character edits to each key cell of every added row:
   on Med's 15-20 character keys the respelled rows spread across the
   ER threshold of their entity's rows, where the session's
   prepared-form decisions (bounds, capped DPs) matter most. *)
let respell_adds ~seed ~keys updates =
  let g = Util.Prng.create seed in
  let edit s =
    let n = String.length s in
    let k = Util.Prng.int g (n + 1) in
    let c = String.make 1 (Util.Prng.choose g [| 'a'; 'e'; 'x'; '1'; ' ' |]) in
    match Util.Prng.int g 3 with
    | 0 -> String.sub s 0 k ^ c ^ String.sub s k (n - k)
    | 1 when k < n -> String.sub s 0 k ^ String.sub s (k + 1) (n - k - 1)
    | _ when k < n -> String.sub s 0 k ^ c ^ String.sub s (k + 1) (n - k - 1)
    | _ -> s ^ c
  in
  List.map
    (function
      | Sess.Tuple_add tu ->
          let vals = Array.copy (Rel.Tuple.values tu) in
          List.iter
            (fun a ->
              match vals.(a) with
              | Rel.Value.String s ->
                  let rec edits s k = if k = 0 then s else edits (edit s) (k - 1) in
                  vals.(a) <- Rel.Value.String (edits s (1 + Util.Prng.int g 7))
              | _ -> ())
            keys;
          Sess.Tuple_add (Rel.Tuple.make vals)
      | u -> u)
    updates

let respelled_adds_equal_batch =
  QCheck.Test.make ~count:12
    ~name:"session adds/retracts of respelled rows == from-scratch clean"
    QCheck.(triple (int_range 6 14) (int_range 1 10_000) (int_range 10 30))
    (fun (entities, seed, n) ->
      let ds = Datagen.Med_gen.dataset ~entities ~seed:(seed * 2 + 5) () in
      let er = er_of ds in
      let s =
        Sess.create ~er ~master:ds.master ds.ruleset (Datagen.Update_gen.flatten ds)
      in
      let updates =
        Datagen.Update_gen.generate
          ~mix:{ add = 0.6; retract = 0.4; master_fix = 0.0; rule_cycle = 0.0 }
          ~n ~seed:(seed * 11 + 7) ds
        |> respell_adds ~seed ~keys:ds.config.keys
      in
      List.iteri
        (fun i u ->
          match Sess.update s u with
          | Ok _ -> ()
          | Error e ->
              QCheck.Test.fail_reportf "update %d rejected: %s" i
                (Robust.Error.to_string e))
        updates;
      match report_diff (Sess.report s) (batch_of ~er s) with
      | None -> true
      | Some d -> QCheck.Test.fail_reportf "reports diverged: %s" d)

(* ------------------------------------------------------------------ *)
(* The row index and the cluster map against a naive model            *)
(* ------------------------------------------------------------------ *)

(* The dirty relation as a plain list: an add appends, a retract drops
   the row at its position. *)
let model_apply model = function
  | Sess.Tuple_add tu -> model @ [ tu ]
  | Sess.Tuple_retract pos -> List.filteri (fun i _ -> i <> pos) model
  | _ -> model

let relation_diff (rel : Rel.Relation.t) model =
  let tuples = Rel.Relation.tuples rel in
  if List.length tuples <> List.length model then
    Some
      (Printf.sprintf "%d rows, the model holds %d" (List.length tuples)
         (List.length model))
  else
    List.find_index (fun (a, b) -> not (Rel.Tuple.equal_values a b))
      (List.combine tuples model)
    |> Option.map (Printf.sprintf "row %d differs from the model")

(* After every tuple update the session's relation equals the model,
   its entity count equals a batch ER's over the model, and at every
   eighth update and at the end its report equals a batch clean. *)
let row_index_matches_model =
  QCheck.Test.make ~count:12
    ~name:"session relation and entity count == naive model after every update"
    QCheck.(quad (int_range 4 10) (int_range 1 10_000) (int_range 10 40) bool)
    (fun (entities, seed, n, respell) ->
      let ds = Datagen.Med_gen.dataset ~entities ~seed:(seed * 3 + 1) () in
      let er = er_of ds in
      let flat = Datagen.Update_gen.flatten ds in
      let s = Sess.create ~er ~master:ds.master ds.ruleset flat in
      let updates =
        Datagen.Update_gen.generate
          ~mix:{ add = 0.5; retract = 0.5; master_fix = 0.0; rule_cycle = 0.0 }
          ~n ~seed:(seed * 13 + 5) ds
      in
      let updates = if respell then respell_adds ~seed ~keys:ds.config.keys updates else updates in
      let model = ref (Rel.Relation.tuples flat) in
      List.iteri
        (fun i u ->
          let d =
            match Sess.update s u with
            | Ok d -> d
            | Error e ->
                QCheck.Test.fail_reportf "update %d rejected: %s" i
                  (Robust.Error.to_string e)
          in
          model := model_apply !model u;
          let rel = Sess.relation s in
          (match relation_diff rel !model with
          | Some diff -> QCheck.Test.fail_reportf "after update %d: %s" i diff
          | None -> ());
          let batch = List.length (Er.Resolver.cluster er rel) in
          if d.Sess.d_entities <> batch || Sess.entities s <> batch then
            QCheck.Test.fail_reportf "after update %d: %d entities (%d), batch ER %d" i
              d.Sess.d_entities (Sess.entities s) batch;
          if i mod 8 = 7 || i = n - 1 then
            match report_diff (Sess.report s) (batch_of ~er s) with
            | None -> ()
            | Some diff -> QCheck.Test.fail_reportf "after update %d: %s" i diff)
        updates;
      true)

(* A session opened on a few rows grows past its row index's initial
   capacity, then retracts its first, a middle and its last row; an
   out-of-range position is refused with the row count in the
   message. *)
let test_row_index_grows () =
  let ds = Datagen.Med_gen.dataset ~entities:400 ~seed:59 () in
  let er = er_of ds in
  let rows = Rel.Relation.tuples (Datagen.Update_gen.flatten ds) in
  let opening = List.filteri (fun i _ -> i < 20) rows in
  let s = Sess.create ~er ~master:ds.master ds.ruleset (Rel.Relation.make ds.schema opening) in
  let model = ref opening in
  let apply u =
    (match Sess.update s u with
    | Ok _ -> ()
    | Error e -> failf "update rejected: %s" (Robust.Error.to_string e));
    model := model_apply !model u
  in
  List.iteri (fun i tu -> if i >= 20 then apply (Sess.Tuple_add tu)) rows;
  let added = List.length rows - 20 in
  check bool "over 1,000 adds" true (added > 1_000);
  let same what =
    match relation_diff (Sess.relation s) !model with
    | Some diff -> failf "%s: %s" what diff
    | None -> ()
  in
  same "after the adds";
  apply (Sess.Tuple_retract 0);
  same "after retracting the first row";
  apply (Sess.Tuple_retract (List.length !model / 2));
  same "after retracting a middle row";
  apply (Sess.Tuple_retract (List.length !model - 1));
  same "after retracting the last row";
  let n = List.length !model in
  List.iter
    (fun pos ->
      match Sess.update s (Sess.Tuple_retract pos) with
      | Ok _ -> failf "position %d of %d rows accepted" pos n
      | Error e ->
          check string "refusal"
            (Printf.sprintf "invalid specification: Tuple_retract: position %d of %d rows" pos n)
            (Robust.Error.to_string e))
    [ n; -1 ];
  same "after the refusals";
  check int "entity count = batch ER" (List.length (Er.Resolver.cluster er (Sess.relation s)))
    (Sess.entities s);
  check_reports_equal "grown session diverged from batch" (batch_of ~er s) (Sess.report s)

(* ------------------------------------------------------------------ *)
(* Update rejection leaves state untouched                            *)
(* ------------------------------------------------------------------ *)

(* Every Γ-changing update checked on its own: after each master fix,
   rule add and rule retire of a stream heavy in them, the maintained
   report equals a batch clean. A final-state comparison can miss a
   wrong "unaffected" verdict that a later update happens to re-clean
   away. Under a step limit ([budget]) some entities exhaust and
   retry, and the pruned session must still match a budgeted batch
   clean, retries and quarantines included. *)
let gamma_updates_equal_batch ?budget name =
  QCheck.Test.make ~count:8 ~name
    QCheck.(triple (int_range 4 9) (int_range 1 10_000) (int_range 8 24))
    (fun (entities, seed, n) ->
      let ds = Datagen.Med_gen.dataset ~entities ~seed:(seed * 5 + 2) () in
      let er = er_of ds in
      let s =
        Sess.create ~er ~master:ds.master ?budget ds.ruleset (Datagen.Update_gen.flatten ds)
      in
      let updates =
        Datagen.Update_gen.generate
          ~mix:{ add = 0.15; retract = 0.1; master_fix = 0.5; rule_cycle = 0.25 }
          ~n ~seed:(seed * 11 + 7) ds
      in
      List.iteri
        (fun i u ->
          (match Sess.update s u with
          | Ok _ -> ()
          | Error e ->
              QCheck.Test.fail_reportf "update %d rejected: %s" i
                (Robust.Error.to_string e));
          match u with
          | Sess.Tuple_add _ | Sess.Tuple_retract _ -> ()
          | Sess.Master_fix _ | Sess.Rule_add _ | Sess.Rule_retire _ -> (
              match report_diff (Sess.report s) (batch_of ?budget ~er s) with
              | None -> ()
              | Some d -> QCheck.Test.fail_reportf "after update %d: %s" i d))
        updates;
      true)

let test_rejections_are_stateless () =
  let ds = Datagen.Med_gen.dataset ~entities:8 ~seed:91 () in
  let er = er_of ds in
  let s =
    Sess.create ~er ~master:ds.master ds.ruleset (Datagen.Update_gen.flatten ds)
  in
  let r0 = Sess.report s in
  let reject msg u =
    match Sess.update s u with
    | Ok _ -> failf "%s: expected rejection" msg
    | Error _ -> check_reports_equal (msg ^ " left state dirty") r0 (Sess.report s)
  in
  reject "arity mismatch"
    (Sess.Tuple_add (Rel.Tuple.make [| Rel.Value.String "short" |]));
  reject "retract out of range" (Sess.Tuple_retract 1_000_000);
  reject "master row out of range"
    (Sess.Master_fix { row = 1_000_000; attr = 0; value = Rel.Value.Null });
  reject "unknown retire name" (Sess.Rule_retire "no-such-rule");
  let dup = List.hd (Rules.Ruleset.user_rules ds.ruleset) in
  reject "duplicate rule name" (Sess.Rule_add dup)

(* ------------------------------------------------------------------ *)
(* Rule retire / re-add rollback                                      *)
(* ------------------------------------------------------------------ *)

let test_rule_retire_rollback () =
  let ds = Datagen.Med_gen.dataset ~entities:10 ~seed:17 () in
  let er = er_of ds in
  let s =
    Sess.create ~er ~master:ds.master ds.ruleset (Datagen.Update_gen.flatten ds)
  in
  let r0 = Sess.report s in
  let rule = List.hd (Rules.Ruleset.user_rules ds.ruleset) in
  let name = Rules.Ar.name rule in
  (match Sess.update s (Sess.Rule_retire name) with
  | Ok d ->
      check int "entity count stable across retire" 10 d.Sess.d_entities;
      check bool "retire only re-cleans affected entities" true
        (d.Sess.d_recleaned <= d.Sess.d_entities)
  | Error e -> failf "retire rejected: %s" (Robust.Error.to_string e));
  (* The retired state must itself match a from-scratch clean. *)
  check_reports_equal "retired state diverged" (Sess.report s) (batch_of ~er s);
  (match Sess.update s (Sess.Rule_add rule) with
  | Ok _ -> ()
  | Error e -> failf "re-add rejected: %s" (Robust.Error.to_string e));
  check_reports_equal "retire + re-add did not roll back" r0 (Sess.report s)

(* ------------------------------------------------------------------ *)
(* Rule retire probes the entity's rule names                         *)
(* ------------------------------------------------------------------ *)

(* Does the engine Γ of this entity name [rule] — as the provenance of
   a prefix step or as a template? Grounded the way the session and
   the cleaner ground it: over the current rule set and master. *)
let gamma_names ruleset master members rel rule =
  let instance =
    Rel.Relation.make (Rel.Relation.schema rel)
      (List.map (Rel.Relation.tuple rel) members)
  in
  match Core.Specification.make ~entity:instance ?master ruleset with
  | Error _ -> true
  | Ok spec ->
      let g =
        Rules.Ground.instantiate ~intern:(Core.Specification.intern spec)
          ~ruleset ~entity:instance
          ~master:(Core.Specification.master_index spec)
          ~orders:(Core.Specification.numbering spec)
          ()
      in
      List.exists
        (fun sid -> Rules.Ground.rule_name g sid = rule)
        (List.init (Rules.Ground.count g) Fun.id)
      || Array.exists
           (fun t -> Rules.Ground.template_name t = rule)
           (Rules.Ground.templates g)

(* A form-(1) rule has no master rows to refine by, so a retire
   re-cleans exactly the entities whose Γ names it: a rule every
   step of which lost dedup, or which never grounds, re-cleans
   nothing. Each retire is undone by re-adding the rule, and the
   session must still equal a batch clean at the end. *)
let test_retire_probes_rule_names () =
  let ds = Datagen.Med_gen.dataset ~entities:8 ~seed:23 () in
  let er = er_of ds in
  let s =
    Sess.create ~er ~master:ds.master ds.ruleset (Datagen.Update_gen.flatten ds)
  in
  let never =
    Rules.Parser.parse_exn ~schema:ds.schema ~master:ds.master_schema
      (let key = Rel.Schema.attribute ds.schema (List.hd ds.config.keys) in
       Printf.sprintf
         "rule never_grounds: forall t1, t2 in %s:\n  t1.%s = \"no such value\" -> t1 <=[%s] t2\n"
         (Rel.Schema.name ds.schema) key key)
  in
  (match Sess.update s (Sess.Rule_add (List.hd never)) with
  | Ok d -> check int "a never-grounding rule-add re-cleans nothing" 0 d.Sess.d_recleaned
  | Error e -> failf "rule-add rejected: %s" (Robust.Error.to_string e));
  let form1 =
    List.filter Rules.Ar.is_form1 (Rules.Ruleset.user_rules (Sess.ruleset s))
  in
  let named = ref 0 and unnamed = ref 0 in
  List.iter
    (fun rule ->
      let name = Rules.Ar.name rule in
      let rel = Sess.relation s in
      let expected =
        List.length
          (List.filter
             (fun members ->
               gamma_names (Sess.ruleset s) (Sess.master s) members rel name)
             (Er.Resolver.cluster er rel))
      in
      if expected > 0 then incr named else incr unnamed;
      (match Sess.update s (Sess.Rule_retire name) with
      | Ok d ->
          check int
            (Printf.sprintf "retire %s re-cleans the entities naming it" name)
            expected d.Sess.d_recleaned
      | Error e -> failf "retire rejected: %s" (Robust.Error.to_string e));
      match Sess.update s (Sess.Rule_add rule) with
      | Ok _ -> ()
      | Error e -> failf "re-add rejected: %s" (Robust.Error.to_string e))
    form1;
  check bool "some retired rule is named by an entity" true (!named > 0);
  check bool "the never-grounding rule is named by none" true (!unnamed > 0);
  check_reports_equal "retire/re-add cycles diverged from batch" (batch_of ~er s)
    (Sess.report s)

(* ------------------------------------------------------------------ *)
(* Master fixes and the frozen master table                           *)
(* ------------------------------------------------------------------ *)

(* A fix that writes, into a join column, a value only an entity holds
   must still reach that entity: entity "a" deduces team "Zebras", which no master
   row holds until row 1 is fixed to it, and the join then copies a
   city that contradicts the entity's own. *)
let test_master_fix_entity_only_value () =
  let s_ v = Rel.Value.String v in
  let schema = Rel.Schema.make "e" [ "key"; "team"; "city" ] in
  let mschema = Rel.Schema.make "m" [ "team"; "city" ] in
  let rows l = List.map (fun r -> Rel.Tuple.make (Array.of_list (List.map s_ r))) l in
  let dirty = Rel.Relation.make schema (rows [ [ "a"; "Zebras"; "X" ]; [ "b"; "Lions"; "Z" ] ]) in
  let master = Rel.Relation.make mschema (rows [ [ "Lions"; "Z" ]; [ "Tigers"; "W" ] ]) in
  let ruleset =
    Rules.Ruleset.make_exn ~schema ~master:mschema
      (Rules.Parser.parse_exn ~schema ~master:mschema
         "rule copy: forall tm in m:\n  te.team = tm.team -> te.city := tm.city\n")
  in
  let er = Er.Resolver.default_config ~key_attrs:[ 0 ] ~compare_attrs:[ (0, 1.0) ] in
  let s = Sess.create ~er ~master ruleset dirty in
  let ncr r = r.Framework.Cleaner.rejected in
  check int "both entities clean before the fix" 0 (ncr (Sess.report s));
  (match
     Sess.update s (Sess.Master_fix { row = 1; attr = 0; value = s_ "Zebras" })
   with
  | Ok d -> check int "the entity holding the value is re-cleaned" 1 d.Sess.d_recleaned
  | Error e -> failf "fix rejected: %s" (Robust.Error.to_string e));
  check int "the copied city conflicts" 1 (ncr (Sess.report s));
  check_reports_equal "fix diverged from batch" (batch_of ~er s) (Sess.report s)

(* A seeded stream of tuple updates and rule cycles never writes into
   the master's table: it holds the cells of the master columns the
   rules read and nothing else, however many entity values the
   affectedness tests compare. (Those tests work on values, not ids,
   so nothing the session does interns into the master's table.) *)
let test_master_table_flat () =
  let ds = Datagen.Med_gen.dataset ~entities:12 ~seed:41 () in
  let er = er_of ds in
  let s = Sess.create ~er ~master:ds.master ds.ruleset (Datagen.Update_gen.flatten ds) in
  (* the size of the master generation a fresh entity generation over
     [midx] extends *)
  let size midx =
    Rel.Intern.size (Option.get (Rel.Intern.parent (Rules.Master_index.extend midx ds.ruleset)))
  in
  let table () = size (Rules.Master_index.of_master (Option.get (Sess.master s))) in
  let cells = size (Rules.Master_index.create ds.master) in
  check int "the table holds the cells of the columns the rules read" cells (table ());
  let updates =
    Datagen.Update_gen.generate
      ~mix:{ add = 0.5; retract = 0.35; master_fix = 0.0; rule_cycle = 0.15 }
      ~n:300 ~seed:43 ds
  in
  List.iteri
    (fun i u ->
      (match Sess.update s u with
      | Ok _ -> ()
      | Error e -> failf "update %d rejected: %s" i (Robust.Error.to_string e));
      if table () <> cells then failf "update %d grew the master table" i)
    updates;
  check_reports_equal "stream diverged from batch" (batch_of ~er s) (Sess.report s)

(* Affectedness compares values as grounding joins them, by
   [Value.equal]: a fix that writes [Float 3.] into a join column
   reaches the entity holding [Int 3] there, and the copied city then
   contradicts its own. *)
let test_master_fix_numeric_twin () =
  let schema = Rel.Schema.make "e" [ "key"; "team"; "city" ] in
  let mschema = Rel.Schema.make "m" [ "team"; "city" ] in
  let row l = Rel.Tuple.make (Array.of_list l) in
  let s_ v = Rel.Value.String v in
  let dirty =
    Rel.Relation.make schema
      [ row [ s_ "a"; Rel.Value.Int 3; s_ "X" ]; row [ s_ "b"; s_ "Lions"; s_ "Z" ] ]
  in
  let master =
    Rel.Relation.make mschema [ row [ s_ "Lions"; s_ "Z" ]; row [ s_ "Tigers"; s_ "W" ] ]
  in
  let ruleset =
    Rules.Ruleset.make_exn ~schema ~master:mschema
      (Rules.Parser.parse_exn ~schema ~master:mschema
         "rule copy: forall tm in m:\n  te.team = tm.team -> te.city := tm.city\n")
  in
  let er = Er.Resolver.default_config ~key_attrs:[ 0 ] ~compare_attrs:[ (0, 1.0) ] in
  let s = Sess.create ~er ~master ruleset dirty in
  (match
     Sess.update s (Sess.Master_fix { row = 1; attr = 0; value = Rel.Value.Float 3. })
   with
  | Ok d -> check int "the entity holding Int 3 is re-cleaned" 1 d.Sess.d_recleaned
  | Error e -> failf "fix rejected: %s" (Robust.Error.to_string e));
  check int "the copied city conflicts" 1 (Sess.report s).Framework.Cleaner.rejected;
  check_reports_equal "fix diverged from batch" (batch_of ~er s) (Sess.report s)

(* A fixed cell's new value reaches [te] only through the changed
   step of a rule copying its column, so a master fix re-cleans only
   the entities that reach that step. Here a null team cell of row
   [k0] becomes "Bears": [copy_team] gains a step copying "Bears"
   into the entity keyed [k0], and [copy_city] a step joining on
   "Bears". Only the [k0] entity can hold "Bears" (its key matches
   the fixed row), so it alone is re-cleaned; the other two reach
   neither step. Only the count shows this: an entity could hold the
   new value only by copying it from the fixed row, so a batch
   comparison holds whether or not the others are re-cleaned. *)
let test_master_fix_new_value_copyable () =
  let schema = Rel.Schema.make "e" [ "key"; "team"; "city" ] in
  let mschema = Rel.Schema.make "m" [ "key"; "team"; "city" ] in
  let row l = Rel.Tuple.make (Array.of_list l) in
  let s_ v = Rel.Value.String v in
  let dirty =
    Rel.Relation.make schema
      [
        row [ s_ "a"; s_ "Tigers"; s_ "X" ];
        row [ s_ "b"; s_ "Pumas"; s_ "Y" ];
        row [ s_ "k0"; s_ "Lions"; s_ "Z" ];
      ]
  in
  let master =
    Rel.Relation.make mschema
      [ row [ s_ "k0"; Rel.Value.Null; s_ "Z" ]; row [ s_ "k1"; s_ "Lions"; s_ "W" ] ]
  in
  let ruleset =
    Rules.Ruleset.make_exn ~schema ~master:mschema
      (Rules.Parser.parse_exn ~schema ~master:mschema
         "rule copy_team: forall tm in m:\n  te.key = tm.key -> te.team := tm.team\n\n\
          rule copy_city: forall tm in m:\n  te.team = tm.team -> te.city := tm.city\n")
  in
  let er = Er.Resolver.default_config ~key_attrs:[ 0 ] ~compare_attrs:[ (0, 1.0) ] in
  let s = Sess.create ~er ~master ruleset dirty in
  (match Sess.update s (Sess.Master_fix { row = 0; attr = 1; value = s_ "Bears" }) with
  | Ok d -> check int "only the entity keyed k0 is re-cleaned" 1 d.Sess.d_recleaned
  | Error e -> failf "fix rejected: %s" (Robust.Error.to_string e));
  check_reports_equal "fix diverged from batch" (batch_of ~er s) (Sess.report s)

(* A step limit that never trips prunes master and rule updates
   exactly as no limit does: a meter charges fired steps only, so an
   entity whose Γ change never fires keeps its result under any step
   limit (DESIGN.md §30). *)
let test_untripped_limit_prunes () =
  let ds = Datagen.Med_gen.dataset ~entities:6 ~seed:31 () in
  let er = er_of ds in
  (* A covered master column: the rule copying it changes its steps. *)
  let fix =
    Sess.Master_fix
      { row = 0; attr = Rel.Schema.arity ds.master_schema - 1; value = Rel.Value.String "fixed" }
  in
  let retire = Sess.Rule_retire (Rules.Ar.name (List.hd (Rules.Ruleset.user_rules ds.ruleset))) in
  let recleaned ?budget () =
    let s = Sess.create ~er ~master:ds.master ?budget ds.ruleset (Datagen.Update_gen.flatten ds) in
    let counts =
      List.map
        (fun u ->
          match Sess.update s u with
          | Ok d -> d.Sess.d_recleaned
          | Error e -> failf "update rejected: %s" (Robust.Error.to_string e))
        [ fix; retire ]
    in
    (s, counts)
  in
  let free, free_counts = recleaned () in
  let budget = Robust.Budget.limits ~max_steps:1_000_000 () in
  let limited, limited_counts = recleaned ~budget () in
  check bool "some entity is proved unaffected" true
    (List.for_all (fun n -> n < Sess.entities free) free_counts);
  check (list int) "re-cleaned per update (master fix, rule retire)" free_counts limited_counts;
  check_reports_equal "limited session diverged from unlimited" (Sess.report free)
    (Sess.report limited);
  check_reports_equal "limited session diverged from batch" (batch_of ~budget ~er limited)
    (Sess.report limited)

let () =
  Alcotest.run "session"
    [
      ( "equivalence",
        [
          QCheck_alcotest.to_alcotest incremental_equals_batch;
          QCheck_alcotest.to_alcotest incremental_equals_batch_budgeted;
          QCheck_alcotest.to_alcotest respelled_adds_equal_batch;
          QCheck_alcotest.to_alcotest row_index_matches_model;
          QCheck_alcotest.to_alcotest
            (gamma_updates_equal_batch "session == batch after every master fix and rule update");
          QCheck_alcotest.to_alcotest
            (gamma_updates_equal_batch
               ~budget:(Robust.Budget.limits ~max_steps:60 ())
               "session == budgeted batch after every master fix and rule update");
        ] );
      ( "updates",
        [
          test_case "rejections are stateless" `Quick
            test_rejections_are_stateless;
          test_case "rule retire/re-add rolls back" `Quick
            test_rule_retire_rollback;
          test_case "the row index grows past its capacity" `Quick
            test_row_index_grows;
        ] );
      ( "master",
        [
          test_case "a fix to an entity-only value re-cleans its entity" `Quick
            test_master_fix_entity_only_value;
          test_case "the master table stays flat over 300 updates" `Quick
            test_master_table_flat;
          test_case "a fix to Float 3. re-cleans the entity holding Int 3" `Quick
            test_master_fix_numeric_twin;
          test_case "a fixed cell's new value counts as copyable" `Quick
            test_master_fix_new_value_copyable;
          test_case "an untripped step limit prunes like no limit" `Quick
            test_untripped_limit_prunes;
        ] );
      ( "rule-names",
        [
          test_case "retire re-cleans the entities naming the rule" `Quick
            test_retire_probes_rule_names;
        ] );
    ]
