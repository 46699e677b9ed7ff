(** Incremental cleaning: a long-lived session that delta-maintains
    the cleaned relation under single-tuple updates.

    A batch {!Cleaner.clean} is a pure fold over independent
    per-entity results ({!Cleaner.process_entity} per ER cluster,
    {!Cleaner.assemble} over the lot). A session caches exactly those
    per-entity results and, on each {!update}, re-cleans only the
    entities the update can affect — through the very same per-entity
    code path — so the maintained {!report} is byte-identical to a
    fresh batch run over the current state (property-tested), while
    untouched entities cost zero.

    The affectedness analysis per update kind:

    - {e Tuple_add / Tuple_retract}: ER is blocking + above-threshold
      matching + transitive closure, i.e. connected components of an
      edge relation local to each cluster. Only the clusters merged
      with (or split by) the touched row change; every other entity's
      instance, Γ, and result are untouched. The session maintains a
      blocking-key index to find an added tuple's candidate
      neighbours without re-blocking.
    - {e Master_fix}: a form-(2) rule grounds one step per selected
      master row, so the fix changes a rule's grounding only if the
      rule mentions the fixed attribute; the changed step can change
      an entity only if its [Te_master] join values are ones that
      entity's write-once [te] can ever hold (own cell values, values
      copyable from master, or anything on a chase-null attribute).
      Both row versions (removed old / added new) are tested.
    - {e Rule_add}: the new rule alone is delta-grounded per entity
      ({!Rules.Ground.instantiate} with [only]); zero steps proves Γ
      unchanged.
    - {e Rule_retire}: the rule names of the entity's current Γ —
      its prefix steps' provenance plus its templates' rules — answer
      whether any current ground step could carry the rule's
      provenance; if not, Γ survives unchanged.

    The analyses are exact under any step limit too: a budget charges
    fired steps only, and a ground step they rule out never fires, so
    it moves neither an entity's fired count, its retries nor its
    quarantine (DESIGN.md §30). Under a deadline a re-clean's outcome
    depends on timing, so a session under one equals a batch clean
    only as far as the batch would finish the same entities. Tuple
    updates stay pruned — unaffected entities have bit-identical
    inputs, budgets included.

    Cost per update: a tuple update walks nothing session-wide. It
    pays O(log n) to find the row at a position (an order-statistic
    index over the n row ids allocated so far) and O(1) to find each
    entity it merges or splits (each row knows its entity), on top of
    its blocking-key candidates, the ER tests against them and the
    re-clean of those entities. Master and rule updates test every
    entity and re-clean those that may change. {!relation}, a
    {!report} after an update, and master and rule updates walk all n
    row ids, retracted ones included.

    Sessions are single-threaded on the update side ([jobs] only
    parallelizes the initial clean); confine one session to one
    domain. *)

type t

type update =
  | Tuple_add of Relational.Tuple.t
      (** a new dirty row joins the relation (at the end) *)
  | Tuple_retract of int
      (** remove the row at this position of the current relation *)
  | Master_fix of { row : int; attr : int; value : Relational.Value.t }
      (** correct one master cell in place *)
  | Rule_add of Rules.Ar.t  (** append a user rule to Σ *)
  | Rule_retire of string  (** remove a user rule by name *)

type delta_report = {
  d_touched : int;  (** entities whose membership or inputs changed *)
  d_recleaned : int;  (** entities actually re-cleaned *)
  d_rows_changed : int;
      (** cleaned-report row churn (removed + added-or-rewritten) —
          an upper bound: a re-clean may reproduce the same tuple *)
  d_entities : int;  (** current entity count *)
}

val create :
  ?master:Relational.Relation.t ->
  ?budget:Robust.Budget.limits ->
  ?retries:int ->
  ?jobs:int ->
  er:Er.Resolver.config ->
  Rules.Ruleset.t ->
  Relational.Relation.t ->
  t
(** Cluster, clean, and cache every entity of the dirty relation —
    the initial full clean, identical in result to
    {!Cleaner.clean}[ ~er] with the same knobs ([jobs] parallelizes
    it the same way). Raises [Invalid_argument] on [jobs < 0]. *)

val update : t -> update -> (delta_report, Robust.Error.t) result
(** Apply one update and re-establish the invariant that every
    cached entity result equals a fresh clean of its current inputs.
    [Error] rejects the update without changing any state: an arity
    mismatch, an out-of-range position/row/attribute, a duplicate or
    invalid rule, an unknown (or axiom) retire name. Entity-level
    failures are NOT update errors — they quarantine the entity in
    the report, exactly as in batch. *)

val apply :
  t -> update list -> (int * Cleaner.report, Robust.Error.t) result
(** Fold {!update} over a list (stops at the first rejected update),
    returning how many applied and the resulting {!report}. *)

val report : t -> Cleaner.report
(** The maintained clean — byte-identical to
    [Cleaner.clean ~er ... (relation t)] on the current state. Cached
    between updates; assembly is a cheap fold when invalidated. *)

val relation : t -> Relational.Relation.t
(** The current dirty relation (live rows, in order), built afresh on
    every call. *)

val schema : t -> Relational.Schema.t
(** The dirty relation's schema, without building {!relation}. *)

val master : t -> Relational.Relation.t option
val ruleset : t -> Rules.Ruleset.t
val entities : t -> int
