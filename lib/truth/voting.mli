(** The naive [voting] baseline of §7: per attribute, pick the value
    with the most weight (by default, occurrence count) in the
    entity instance, ignoring ARs entirely. As the paper notes, this
    is the special case of [TopKCT] with an empty set of ARs. *)

val resolve :
  ?pref:Topk.Preference.t ->
  Relational.Relation.t ->
  Relational.Value.t array
(** One tuple per attribute position: the highest-weight non-null
    value of the column (ties broken by {!Relational.Value.compare}
    for determinism); [Null] when the column is all null.
    The candidates are the column's {!Relational.Value.equal} classes,
    each spelled and weighed at its first occurrence; [pref] defaults
    to occurrence counting over the instance (a class's size). *)
