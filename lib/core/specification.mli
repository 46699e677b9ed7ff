(** A specification [S = (D0, Σ, Im, te^D0)] of an entity (§2.2):
    the entity instance with empty accuracy orders, the rule set,
    the optional master relation, and the initial target template. *)

type t

val make :
  ?template:Relational.Value.t array ->
  entity:Relational.Relation.t ->
  ?master:Relational.Relation.t ->
  Rules.Ruleset.t ->
  (t, string) result
(** Checks schema compatibility: the entity relation's schema must
    equal the rule set's, the master relation's schema (when either
    is present) the rule set's master schema, and the template (when
    given — defaults to all-null) must have the entity arity.
    Supplying a non-default template is how candidate targets are
    checked (§3: "when we treat [t'_e] as the initial target
    template"). *)

val make_exn :
  ?template:Relational.Value.t array ->
  entity:Relational.Relation.t ->
  ?master:Relational.Relation.t ->
  Rules.Ruleset.t ->
  t

val stamp : t -> int
(** A number taken when the specification is built ({!make},
    {!with_template}, {!with_ruleset}), distinct from every other
    specification's in the process: the hash of tables keyed by the
    specification's physical identity ([Framework.Compile_cache]). *)

val entity : t -> Relational.Relation.t
val master : t -> Relational.Relation.t option
val master_index : t -> Rules.Master_index.t option
(** The master's shared value index ({!Rules.Master_index.of_master},
    taken once at {!make} and kept by every derivative), whose master
    generation {!intern} extends. *)

val ruleset : t -> Rules.Ruleset.t
val schema : t -> Relational.Schema.t

val numbering : t -> Ordering.Attr_order.numbering array
(** The per-attribute value-class numbering of the entity relation —
    a pure function of the entity, computed once and cached (shared
    by {!with_template}/{!with_ruleset} derivatives). This is what
    ground-step compilation and every fresh {!Instance} order are
    built from, so neither allocates a throwaway instance. *)

val intern : t -> Relational.Intern.t
(** The specification's value-interning table: an entity generation
    over its master index's frozen generation
    ({!Rules.Master_index.extend}, which first fills the master
    columns the rules read), or a root table of its own when there is
    no master. Made on the first call and dropped with the
    specification; kept by {!with_template} derivatives — ground
    compilation, instances, snapshots and fills over this world all
    intern into (and read ids from) the same table, so an id means
    the same value everywhere. A {!with_ruleset} derivative makes its
    own. Master values carry their master ids;
    only id equality is meaningful. Safe to call from several domains
    or threads at once: the first call builds the table (filling the
    master's) and the others wait for it. *)

val template : t -> Relational.Value.t array
(** Fresh copy of the initial template. *)

val with_template : t -> Relational.Value.t array -> t
(** Same specification, different initial template (checked). *)

val with_ruleset : t -> Rules.Ruleset.t -> t
(** Same data, different Σ (schemas must match). *)
