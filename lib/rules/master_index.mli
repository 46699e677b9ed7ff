(** A shared, lazily-built value index over one master relation: per
    column, the cells' interned ids and which rows hold a given value.

    This is the master-side half of demand-driven form-(2) grounding
    ({!Ground.template}): when a chase assigns a [te] attribute a
    form-(2) rule joins on, the engine asks this index which master
    rows carry that value in the join column and materializes ground
    steps for exactly those rows. Its {!Relational.Intern} table is
    the intern scope of every specification over this master
    ({!Core.Specification.make} takes it), so the O(|Im|) interning
    pass over a master column happens once per master relation
    {e process-wide} — never once per entity — and grounding reads
    master ids straight from {!vids}.

    Instances are memoized by the master relation's {e physical}
    identity and held weakly: an index, its table included, lives as
    long as its master relation (a [Master_fix] builds a new relation;
    the old index goes when nothing holds the old one). All
    operations are serialized by per-index mutexes, so worker domains
    cleaning different entities share one index safely. *)

type t

val of_master : Relational.Relation.t -> t
(** The (memoized) index of a master relation. Cheap: columns are
    only indexed on first use. *)

val create : Relational.Relation.t -> t
(** A fresh, unshared index with a fresh table — for measuring a cold
    grounding. Everything else goes through {!of_master}. *)

val intern : t -> Relational.Intern.t
(** The index's intern table: the scope of every specification over
    this master. *)

val vids : t -> col:int -> int array
(** [vids t ~col] — the interned id of each row's [col] cell
    ({!Relational.Intern.null_id} for null), built once per column
    and shared by every caller. Do not mutate. *)

val rows : t -> col:int -> Relational.Value.t -> int list
(** [rows t ~col v] — the master rows whose [col] cell equals [v]
    ({!Relational.Value.equal}-wise, numeric twins unified),
    ascending; [[]] for a value absent from the column. Null selects
    the null rows ([Value.equal Null Null]). *)

val distinct : t -> col:int -> int array * Relational.Value.t array
(** [distinct t ~col] — the distinct non-null values of column [col]
    in first-appearance order ({!Relational.Value.equal}-wise, the
    first spelling of numeric twins kept), paired with their ids in
    {!intern}. Built on the first call per column, then shared by
    every caller: this is the master contribution to a top-k active
    domain, so per-entity domain building never rescans [Im]. *)

val sorted : t -> col:int -> int array * Relational.Value.t array
(** [sorted t ~col] — the pairs of {!distinct} in ascending
    {!Relational.Value.compare} order (strict: [compare] is 0 exactly
    on [Value.equal] values). Built once per column beside
    {!distinct}: a ranked top-k domain streams master values at the
    preference's default weight straight from it, and finds a value's
    spelling by binary search. Do not mutate. *)

val relation : t -> Relational.Relation.t
(** The indexed master relation itself. *)
