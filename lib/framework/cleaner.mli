(** Whole-relation cleaning: the direction the paper's conclusion
    sketches ("how to improve the accuracy of data in a database,
    which is often much larger than entity instances").

    The pipeline composes everything the library has:
    + entity resolution clusters the dirty relation into entity
      instances (optional — pass [~clusters] when the grouping is
      already known);
    + per entity, the chase deduces the target tuple;
    + incomplete targets are completed with the top-1 candidate
      under the preference model of value occurrences
      ({!Topk.Preference.of_occurrences});
    + non-Church-Rosser entities are left as-is and reported
      (a human must revise Σ for them — see {!Revision});
    + the output relation has one tuple per entity: the target.

    {b Fault isolation}: each entity is processed inside its own
    fault boundary. An invalid specification, a chase that exhausts
    its {!Robust.Budget.limits} even after bounded
    retry-with-relaxed-budget, or any unexpected exception
    quarantines {e that} entity — it degrades to its majority
    representative and the typed error lands in the report — while
    the rest of the batch completes. A poisonous entity can no
    longer take the whole clean down.

    The report quantifies the clean: entity counts by outcome, the
    quarantine log, and how many cells changed w.r.t. each entity's
    most-occurring original values. *)

type outcome =
  | Complete  (** chase alone deduced a complete target *)
  | Completed_by_topk  (** null attributes filled by the top-1 candidate *)
  | Still_incomplete  (** no candidate found (budget or empty domain) *)
  | Not_church_rosser of string  (** offending rule name *)
  | Quarantined of Robust.Error.t
      (** entity isolated by the fault boundary; left as its
          majority representative *)

type report = {
  cleaned : Relational.Relation.t;
      (** one tuple per entity, in cluster order *)
  outcomes : (int * outcome) list;  (** per entity (cluster index) *)
  errors : (int * Robust.Error.t) list;
      (** the quarantine log: one entry per quarantined entity *)
  entities : int;
  complete : int;
  completed_by_topk : int;
  still_incomplete : int;
  rejected : int;
  quarantined : int;
  retries_used : int;
      (** budget-relax retries spent across the whole batch *)
  cell_changes : int;
      (** target cells that differ from the entity's majority value *)
}

type entity_result = {
  r_tuple : Relational.Tuple.t;  (** the entity's cleaned target *)
  r_outcome : outcome;
  r_retries : int;  (** budget-relax retries this entity consumed *)
  r_changes : int;  (** target cells differing from the majority *)
  r_chase_nulls : int list;
      (** target attributes still null at the chase fixpoint — the
          attributes top-1 completion was allowed to touch; [[]]
          whenever the chase decided the outcome by itself *)
}
(** Everything one entity contributes to a {!report}. The report is
    a pure function ({!assemble}) of these, folded in cluster order
    — which is what lets an incremental session cache them per
    entity and re-clean only the entities an update touches. *)

val quarantined_of_tuples :
  Relational.Schema.t ->
  Relational.Tuple.t list ->
  Robust.Error.t ->
  entity_result
(** The fault-degradation result: the majority representative of the
    given tuples (all-null when there are none) carrying the typed
    error as a [Quarantined] outcome. Exposed for callers that keep
    their own fault boundary around {!process_entity}'s inputs. *)

val process_entity :
  ?budget:Robust.Budget.limits ->
  ?retries:int ->
  ?master:Relational.Relation.t ->
  Rules.Ruleset.t ->
  Relational.Relation.t ->
  entity_result
(** Clean one entity instance inside the full fault boundary —
    spec → compile ({!Core.Is_cr.compile}, uncached: each call pays
    its own grounding and retains nothing once the result is built)
    → budgeted chase with relax-retries ({!Core.Is_cr.start}) → top-1
    completion (TopKCT under {!Topk.Preference.of_occurrences} of the
    entity, capped at {!Topk.exploration_cap} frontier pops),
    quarantining on any failure. Top-1 completion resumes the state
    the chase drained, so each entity's base fixpoint is chased once,
    under a budget or not: a budget that never trips leaves the fired
    steps and the result of an unlimited clean.
    Exactly the per-entity step of {!clean} (same defaults), exposed
    so incremental sessions recompute a single affected entity
    through the very same code path. Safe on worker domains. *)

val map_entities :
  jobs:int ->
  backstop:('a -> Robust.Error.t -> entity_result) ->
  ('a -> entity_result) ->
  'a array ->
  entity_result array
(** [map_entities ~jobs ~backstop process tasks] — the per-entity map
    of {!clean} and of a session's initial clean: [process] on every
    task, results in task order. [jobs = 1] runs serially with no
    domain spawned; any other value runs on a {!Parallel.Pool} of that
    many domains ([0] is auto). A task whose exception escapes
    [process] on the pool is quarantined by [backstop] (with
    {!process_entity} inside [process], only a broken fault boundary
    gets there). Sets the [cleaner_jobs] gauge to the domains used. *)

val assemble : Relational.Schema.t -> entity_result array -> report
(** Fold per-entity results, in cluster order, into a {!report} —
    the (pure) reassembly step of {!clean}. *)

val clean :
  ?er:Er.Resolver.config ->
  ?clusters:int list list ->
  ?master:Relational.Relation.t ->
  ?budget:Robust.Budget.limits ->
  ?retries:int ->
  ?jobs:int ->
  Rules.Ruleset.t ->
  Relational.Relation.t ->
  report
(** [clean ruleset dirty] — exactly one of [er] / [clusters] selects
    the grouping (raises [Invalid_argument] if both or neither).
    Each entity is cleaned by {!process_entity}. [budget] (default
    unlimited) caps each entity's chase; on exhaustion the entity is
    re-chased under a ×4-relaxed budget up to [retries] times
    (default 1) before being quarantined.

    [jobs] (default 1) runs the per-entity compile→chase→top-k work
    on a {!Parallel.Pool} of that many domains. The report —
    [cleaned] rows, [outcomes], [errors], every counter — is
    {e identical} for every [jobs] value: entities are independent,
    results are reassembled in cluster order, and quarantine/retry
    semantics are per entity. [jobs = 1] takes the plain serial path
    with no domain spawned, and [jobs = 0] sizes the pool
    automatically. Raises [Invalid_argument] when [jobs < 0]. *)

val pp_report : Format.formatter -> report -> unit
