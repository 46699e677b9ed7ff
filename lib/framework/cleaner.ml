module Value = Relational.Value
module Relation = Relational.Relation
module Tuple = Relational.Tuple

(* Observability: batch-level accounting. Per-entity wall time lands
   in the [span_cleaner_entity_ms] histogram via the span around
   each entity's fault boundary. All counters are Obs atomics, so
   worker domains may bump them concurrently; the totals are
   independent of the schedule. *)
let m_entities = Obs.Counter.make ~help:"entities processed" "cleaner_entities_total"
let m_quarantined = Obs.Counter.make ~help:"entities quarantined" "cleaner_quarantined_total"
let m_retries = Obs.Counter.make ~help:"budget-relax retries" "cleaner_retries_total"
let m_budget_steps = Obs.Counter.make ~help:"chase steps charged to entity budgets" "cleaner_budget_steps_total"
let m_jobs = Obs.Gauge.make ~help:"worker domains of the last clean" "cleaner_jobs"

type outcome =
  | Complete
  | Completed_by_topk
  | Still_incomplete
  | Not_church_rosser of string
  | Quarantined of Robust.Error.t

type report = {
  cleaned : Relation.t;
  outcomes : (int * outcome) list;
  errors : (int * Robust.Error.t) list;
  entities : int;
  complete : int;
  completed_by_topk : int;
  still_incomplete : int;
  rejected : int;
  quarantined : int;
  retries_used : int;
  cell_changes : int;
}

(* Everything one entity contributes to the report. [assemble] folds
   these in cluster order, so the report is a pure function of the
   per-entity results — the parallel path's determinism rests on
   this (each entity's result is computed in isolation; the fold
   never sees scheduling order). *)
type entity_result = {
  r_tuple : Tuple.t;
  r_outcome : outcome;
  r_retries : int;  (** budget-relax retries this entity consumed *)
  r_changes : int;  (** target cells differing from the majority *)
  r_chase_nulls : int list;
      (** target attributes still null at the chase fixpoint — the
          attributes top-1 completion was allowed to touch *)
}

let majority = Truth.Voting.resolve

(* Target cells that differ from the occurrence majority of their
   column, read off the specification's value numbering: the class
   [Voting.resolve] would pick, with no preference built and no value
   rendered. *)
let count_changes spec target =
  let nb = Core.Specification.numbering spec in
  let changed = ref 0 in
  Array.iteri
    (fun a v ->
      if
        (not (Value.is_null v))
        && not (Value.equal v (Ordering.Attr_order.numbering_majority nb.(a)))
      then incr changed)
    target;
  !changed

(* Fault degradation: the entity collapses to the majority
   representative of whatever tuples are real, with the typed error
   in its result. *)
let quarantined_of_tuples schema tuples err =
  Obs.Counter.incr m_quarantined;
  let tuple =
    match tuples with
    | [] -> Tuple.make (Array.make (Relational.Schema.arity schema) Value.Null)
    | _ -> Tuple.make (majority (Relation.make schema tuples))
  in
  {
    r_tuple = tuple;
    r_outcome = Quarantined err;
    r_retries = 0;
    r_changes = 0;
    r_chase_nulls = [];
  }

(* Chase one entity under the budget, relaxing and retrying on
   transient exhaustion (up to [retries] times, ×4 each time).
   A fresh meter per attempt: budgets are per-entity, never shared
   across entities or domains. Every attempt drains a resumable
   state, and top-1 completion resumes the one that finished instead
   of chasing the same fixpoint again. *)
let rec chase_budgeted ~used compiled lim tries =
  let meter =
    if Robust.Budget.is_unlimited lim then None else Some (Robust.Budget.start lim)
  in
  let state = Core.Is_cr.start ?budget:meter compiled in
  Option.iter (fun m -> Obs.Counter.add m_budget_steps (Robust.Budget.steps_used m)) meter;
  match (Core.Is_cr.exhausted state, Core.Is_cr.conflict state) with
  | Some { trip; fired; _ }, _ ->
      if tries > 0 then begin
        incr used;
        Obs.Counter.incr m_retries;
        chase_budgeted ~used compiled (Robust.Budget.relax lim) (tries - 1)
      end
      else `Exhausted (trip, fired)
  | None, Some (rule, _) -> `Conflict rule
  | None, None -> `Fixpoint state

(* One entity, in isolation: whatever goes wrong inside — an invalid
   spec, a budget trip, an unexpected exception — is quarantined
   into this entity's result and the batch carries on. The only
   shared state this function touches is the (domain-safe) Obs
   registry, the master's intern table, and read-only inputs, which
   is what makes it safe to run on a worker domain — and callable
   directly by an incremental session re-cleaning one entity. *)
let process_entity ?(budget = Robust.Budget.unlimited) ?(retries = 1) ?master ruleset
    instance =
  Obs.Counter.incr m_entities;
  Obs.Span.with_ ~name:"cleaner.entity" @@ fun () ->
  let used = ref 0 in
  match
    match Core.Specification.make ~entity:instance ?master ruleset with
    | Error e -> `Quarantine (Robust.Error.spec_invalid e)
    | Ok spec -> (
        (* Compiled directly, not through the compile cache
           (scripts/lint_hotpath.sh keeps it out): the cache is keyed
           by the specification's identity, and [spec] is built here
           and dropped with this entity, so a lookup could never
           hit. *)
        let compiled = Core.Is_cr.compile spec in
        match chase_budgeted ~used compiled budget retries with
        | `Exhausted (trip, fired) ->
            `Quarantine
              (Robust.Error.budget_exhausted ~trip ~spent:fired
                 (Printf.sprintf "chase did not finish within %d retries"
                    (max retries 0)))
        | `Conflict rule ->
            (* leave the entity as its majority representative *)
            `Result
              {
                r_tuple =
                  Tuple.make
                    (Array.map Ordering.Attr_order.numbering_majority
                       (Core.Specification.numbering spec));
                r_outcome = Not_church_rosser rule;
                r_retries = !used;
                r_changes = 0;
                r_chase_nulls = [];
              }
        | `Fixpoint state ->
            let te = Core.Is_cr.te state in
            let nulls =
              List.filter (fun a -> Value.is_null te.(a)) (List.init (Array.length te) Fun.id)
            in
            if nulls = [] then
              `Result
                {
                  r_tuple = Tuple.make te;
                  r_outcome = Complete;
                  r_retries = !used;
                  r_changes = count_changes spec te;
                  r_chase_nulls = [];
                }
            else begin
              let pref = Topk.Preference.of_occurrences instance in
              let targets =
                match
                  Topk.solve ~algo:`Ct ~state ~max_pops:Topk.exploration_cap ~k:1 ~pref
                    compiled te
                with
                | Ok outcome -> outcome.Topk.targets
                | Error _ -> []
              in
              match targets with
              | best :: _ ->
                  `Result
                    {
                      r_tuple = Tuple.make best;
                      r_outcome = Completed_by_topk;
                      r_retries = !used;
                      r_changes = count_changes spec best;
                      r_chase_nulls = nulls;
                    }
              | [] ->
                  `Result
                    {
                      r_tuple = Tuple.make te;
                      r_outcome = Still_incomplete;
                      r_retries = !used;
                      r_changes = count_changes spec te;
                      r_chase_nulls = nulls;
                    }
            end)
  with
  | `Result r -> r
  (* Retries spent before the quarantine still count. *)
  | `Quarantine err ->
      { (quarantined_of_tuples (Relation.schema instance)
           (Relation.tuples instance) err)
        with r_retries = !used }
  | exception e ->
      { (quarantined_of_tuples (Relation.schema instance)
           (Relation.tuples instance) (Robust.Error.of_exn e))
        with r_retries = !used }

(* The fold over per-entity results, in cluster order. *)
let assemble schema results =
  let outcomes =
    Array.to_list (Array.mapi (fun idx r -> (idx, r.r_outcome)) results)
  in
  let errors =
    List.filter_map
      (fun (idx, o) ->
        match o with Quarantined err -> Some (idx, err) | _ -> None)
      outcomes
  in
  let count p = Array.fold_left (fun n r -> if p r.r_outcome then n + 1 else n) 0 results in
  {
    cleaned =
      Relation.make schema (Array.to_list (Array.map (fun r -> r.r_tuple) results));
    outcomes;
    errors;
    entities = Array.length results;
    complete = count (function Complete -> true | _ -> false);
    completed_by_topk = count (function Completed_by_topk -> true | _ -> false);
    still_incomplete = count (function Still_incomplete -> true | _ -> false);
    rejected = count (function Not_church_rosser _ -> true | _ -> false);
    quarantined = count (function Quarantined _ -> true | _ -> false);
    retries_used = Array.fold_left (fun n r -> n + r.r_retries) 0 results;
    cell_changes = Array.fold_left (fun n r -> n + r.r_changes) 0 results;
  }

(* [process] quarantines its own failures, so [backstop] only fires if
   that boundary itself is broken. *)
let map_entities ~jobs ~backstop process tasks =
  let pool = if jobs = 1 then None else Some (Parallel.Pool.create ~jobs ()) in
  Obs.Gauge.set m_jobs
    (float_of_int (match pool with None -> 1 | Some p -> Parallel.Pool.jobs p));
  match pool with
  | None -> Array.map process tasks
  | Some pool ->
      Array.mapi
        (fun i -> function
          | Ok r -> r
          | Error e -> backstop tasks.(i) (Robust.Error.of_exn e))
        (Parallel.Pool.map_result pool process tasks)

let clean ?er ?clusters ?master ?budget ?retries ?(jobs = 1) ruleset dirty =
  if jobs < 0 then
    invalid_arg (Printf.sprintf "Cleaner.clean: jobs = %d" jobs);
  let clusters =
    match (er, clusters) with
    | Some config, None -> Er.Resolver.cluster config dirty
    | None, Some cs -> cs
    | Some _, Some _ ->
        invalid_arg "Cleaner.clean: pass either ~er or ~clusters, not both"
    | None, None -> invalid_arg "Cleaner.clean: pass ~er or ~clusters"
  in
  let schema = Relation.schema dirty in
  (* A cluster referencing rows that do not exist quarantines that
     entity to the majority of its real members — the construction
     fault boundary around [process_entity]'s instance input. *)
  let quarantined_of_members members err =
    Obs.Counter.incr m_entities;
    let valid =
      List.filter_map
        (fun i ->
          if i >= 0 && i < Relation.size dirty then
            Some (Relation.tuple dirty i)
          else None)
        members
    in
    quarantined_of_tuples schema valid err
  in
  let process members =
    match Relation.make schema (List.map (Relation.tuple dirty) members) with
    | instance ->
        process_entity ?budget ?retries ?master ruleset instance
    | exception e -> quarantined_of_members members (Robust.Error.of_exn e)
  in
  assemble schema
    (map_entities ~jobs ~backstop:quarantined_of_members process (Array.of_list clusters))

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>%d entities: %d complete by chase, %d completed by top-1, %d still incomplete, %d rejected (non-Church-Rosser), %d quarantined (%d budget retries); %d cells corrected vs majority"
    r.entities r.complete r.completed_by_topk r.still_incomplete r.rejected
    r.quarantined r.retries_used r.cell_changes;
  List.iter
    (fun (idx, err) ->
      Format.fprintf ppf "@,  entity %d quarantined: %a" idx Robust.Error.pp err)
    r.errors;
  Format.fprintf ppf "@]"
