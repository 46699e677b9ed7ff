(** The literal grounding of Σ (§5), the reference the engine's
    {!Rules.Ground.instantiate} is tested against: every rule, axioms
    included, in Σ order, on every ordered tuple pair (form 1) or
    every master row (form 2), each predicate evaluated with
    [Ar.eval_op] on the tuples' own values — no plan, no
    representatives, no packed words, no templates. A conclusion over
    one value class grounds to a [Refresh], whatever its strictness.

    Steps are deduplicated as Γ documents: same action and same set of
    residual predicates (values up to [Value.equal]) ⇒ one step, the
    first candidate's provenance and spelling kept, its residuals in
    first-encounter order with duplicates dropped. Sids number the
    steps densely from 0. O(|Σ|·(|Ie|² + |Im|)) per entity. *)

val ground :
  rules:Rules.Ar.t list ->
  entity:Relational.Relation.t ->
  master:Relational.Relation.t option ->
  orders:Ordering.Attr_order.numbering array ->
  Rules.Ground.step list

val of_spec : Core.Specification.t -> Rules.Ground.step list
(** {!ground} over a specification's rules (axioms included), entity,
    master and value-class numbering. *)
