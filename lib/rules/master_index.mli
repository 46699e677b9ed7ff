(** A shared, lazily-built value index over one master relation: per
    column, the cells' interned ids and which rows hold a given value.

    This is the master-side half of demand-driven form-(2) grounding
    ({!Ground.template}): when a chase assigns a [te] attribute a
    form-(2) rule joins on, the engine asks this index which master
    rows carry that value in the join column and materializes ground
    steps for exactly those rows. The index owns the {e master
    generation} of value ids ({!Relational.Intern}): a chain of frozen
    segments, each filled with the cells of the columns a ruleset
    reads as ids ({!Plan.master_cols}) that no earlier segment holds.
    So a master value is interned once per master relation
    {e process-wide}, a column no rule reads is never interned, and a
    master whose distinct values would fill the id space a ground step
    packs is refused when filled ({!Plan.check_master_ids}). Every
    specification over this master interns into an entity generation
    over it ({!extend}), and grounding reads master ids straight from
    {!vids}.

    Instances are memoized by the master relation's {e physical}
    identity and held weakly: an index, its generation included, lives
    as long as its master relation (a [Master_fix] builds a new
    relation; the old index goes when nothing holds the old one). The
    fills and the per-column builders are serialized by a per-index
    mutex, and the filled segments and id arrays are read without one,
    so worker domains cleaning different entities share one index
    safely. *)

type t

val of_master : Relational.Relation.t -> t
(** The (memoized) index of a master relation. Cheap: nothing is
    interned or indexed before first use. *)

val create : Relational.Relation.t -> t
(** A fresh, unshared index with an empty generation — for measuring a
    cold grounding. Everything else goes through {!of_master}. *)

val extend : ?size:int -> t -> Ruleset.t -> Relational.Intern.t
(** [extend t ruleset] — a fresh entity generation
    ({!Relational.Intern.extend}, with room for [size] values) over
    the master generation, after
    filling it with every column of [Plan.master_cols] of [ruleset]
    that it does not hold yet. This is the table a specification or a
    cold grounding interns into. *)

val covers : t -> Relational.Intern.t -> Ruleset.t -> bool
(** [covers t intern ruleset] — [intern] extends a segment of [t]'s
    master generation that holds every column [ruleset] reads as ids,
    as one made by [extend t ruleset] does: only then do {!vids} and
    [intern]'s ids agree. *)

val vids : t -> col:int -> int array
(** [vids t ~col] — the interned id of each row's [col] cell
    ({!Relational.Intern.null_id} for null), in the master
    generation; filled by {!extend} for a ruleset reading [col], and
    shared by every caller. Raises [Invalid_argument] for a column no
    fill has reached. Do not mutate. *)

val rows : t -> col:int -> Relational.Value.t -> int list
(** [rows t ~col v] — the master rows whose [col] cell equals [v]
    ({!Relational.Value.equal}-wise, numeric twins unified),
    ascending; [[]] for a value absent from the column. Null selects
    the null rows ([Value.equal Null Null]). Any column. *)

val distinct : t -> col:int -> int array * Relational.Value.t array
(** [distinct t ~col] — the distinct non-null values of column [col]
    in first-appearance order ({!Relational.Value.equal}-wise, the
    first spelling of numeric twins kept), paired with their ids in
    the master generation ([col] must be filled, as for {!vids}).
    Built on the first call per column, then shared by every caller:
    this is the master contribution to a top-k active domain, so
    per-entity domain building never rescans [Im]. *)

val sorted : t -> col:int -> int array * Relational.Value.t array
(** [sorted t ~col] — the pairs of {!distinct} in ascending
    {!Relational.Value.compare} order (strict: [compare] is 0 exactly
    on [Value.equal] values). Built once per column beside
    {!distinct}: a ranked top-k domain streams master values at the
    preference's default weight straight from it, and finds a value's
    spelling by binary search. Do not mutate. *)

val relation : t -> Relational.Relation.t
(** The indexed master relation itself. *)
