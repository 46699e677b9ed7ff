(** Active domains (§6.1): the candidate values for a null target
    attribute.

    For attribute [A] the active domain holds every distinct
    non-null value of [Ie]'s A-column, every master value that a
    form (2) rule can copy or bind into [te\[A\]], and — standing
    for all of an infinite domain's remaining values — at most one
    synthetic {e default} value [⊥_A] ("which suffices to denote
    values outside of Ie or Im"). *)

val default_value : Relational.Schema.t -> int -> Relational.Value.t
(** The synthetic [⊥_A] for an attribute (a string value that is
    distinguishable from real data by {!is_default}). *)

val is_default : Relational.Value.t -> bool

val values :
  ?include_default:bool ->
  Core.Specification.t ->
  int ->
  Relational.Value.t list
(** Active domain of one entity attribute, deduplicated by
    {!Preference.value_key}, in first-appearance order ([Ie] column,
    then master contributions, then [⊥_A] when [include_default],
    default [true]). The master contributions are read from
    {!Rules.Master_index.distinct}, built once per master relation
    and column, so a call costs O(|Ie| + |domain|), never a scan of
    [Im]. *)

val ranked :
  ?include_default:bool ->
  Core.Specification.t ->
  Preference.t ->
  int ->
  (Relational.Value.t * float) array
(** Active domain sorted by descending weight (ties broken by
    {!Relational.Value.compare} for determinism) — the ranked list
    [L_i] consumed by [RankJoinCT]. *)
