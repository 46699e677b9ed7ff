(** A shared, lazily-built value index over one master relation: per
    column, which rows hold a given value.

    This is the master-side half of demand-driven form-(2) grounding
    ({!Ground.template}): when a chase assigns a [te] attribute a
    form-(2) rule joins on, the engine asks this index which master
    rows carry that value in the join column and materializes ground
    steps for exactly those rows. The index owns its own
    {!Relational.Intern} table, so the O(|Im|) interning pass over a
    master column happens once per master relation {e process-wide} —
    never once per entity — and each probe is one boundary-level
    intern lookup plus an integer table hit.

    Instances are memoized by the master relation's {e physical}
    identity in a small MRU-bounded cache (masters are long-lived;
    a [Master_fix] builds a new relation, and the old entry ages
    out). All operations are serialized by per-index mutexes, so
    worker domains cleaning different entities share one index
    safely. *)

type t

val of_master : Relational.Relation.t -> t
(** The (memoized) index of a master relation. Cheap: columns are
    only indexed on first probe. *)

val rows : t -> col:int -> Relational.Value.t -> int list
(** [rows t ~col v] — the master rows whose [col] cell equals [v]
    ({!Relational.Value.equal}-wise, numeric twins unified),
    ascending; [[]] for a value absent from the column or for null
    (a null join value never satisfies a [te] equality). *)

val distinct : t -> col:int -> int array * Relational.Value.t array
(** [distinct t ~col] — the distinct non-null values of column [col]
    in first-appearance order ({!Relational.Value.equal}-wise, the
    first spelling of numeric twins kept), paired with their ids in
    the index's own intern table. Built on the first call per column,
    then shared by every caller: this is the master contribution to a
    top-k active domain, so per-entity domain building never rescans
    [Im]. *)

val find_id : t -> Relational.Value.t -> int option
(** The value's id in the index's intern table, if any column built
    so far holds it — the key {!distinct}'s ids are drawn from. *)

val relation : t -> Relational.Relation.t
(** The indexed master relation itself. *)
