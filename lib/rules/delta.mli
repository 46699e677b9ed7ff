(** The delta-store index over a Γ: which ground steps a rule
    contributed, and which interned values each step's predicates and
    action touch.

    Incremental cleaning keeps one of these per live entity. When an
    update arrives, the index answers the two affectedness questions
    without re-instantiating anything:

    - {e rule-level}: does this entity's Γ contain any step whose
      (first-wins) provenance is the retired rule? If not, retiring
      the rule cannot change Γ — every step the rule could have
      contributed was a duplicate of an earlier rule's step, and
      dedup already dropped it — so the cached result stands.
    - {e value-level}: does any step mention this interned value (as
      a [P_te] comparison constant, an [Assign] spelling, or a value
      class of a [P_ord] atom)? Steps that never reference a changed
      value cannot react to it.

    Everything is keyed on dense {!Relational.Intern} ids — the index
    is built from the packed words and never hashes a value
    structurally ([lint_hotpath] enforces this). *)

type t

val of_ground :
  intern:Relational.Intern.t ->
  orders:Ordering.Attr_order.numbering array ->
  Ground.t ->
  t
(** Index a Γ. [intern] must be the table Γ was grounded with (the
    specification's — ids must agree) and [orders] the entity's
    value-class numbering, used to resolve [P_ord]/[Add_order] class
    ids back to the values they stand for. Γ's templates hold
    deferred form-(2) rules whose steps are not in the index, so
    {!mentions_rule} over-approximates by answering [true] for any
    templated rule name — retiring such a rule must re-clean, since
    whether any of its steps would survive dedup is unknown without
    materializing them. *)

val steps : t -> int
(** |Γ|. *)

val rules : t -> string list
(** Distinct rule names with at least one step, in first-appearance
    (sid) order. *)

val mentions_rule : t -> string -> bool

val steps_of_rule : t -> string -> int list
(** Sids contributed by one rule, ascending; [[]] when absent. *)

val mentions_vid : t -> int -> bool
(** Does any step touch this interned value id? *)

val steps_of_vid : t -> int -> int list
(** Sids touching one interned value id, ascending, deduplicated;
    [[]] when absent. *)

val vids : t -> int list
(** Distinct interned value ids touched by Γ, ascending. *)
