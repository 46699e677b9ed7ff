(** Generic generator of entity-resolution workloads: ground-truth
    entities, noisy multi-tuple entity instances, partial master
    data, and a matching accuracy-rule set.

    [Med] and [CFP] (§7) are proprietary / non-redistributable; this
    generator reproduces their {e published statistics} — attribute
    counts, instance-size distribution, master coverage, AR counts
    and per-attribute rule structure — which is what the paper's
    deduction behaviour depends on (see DESIGN.md §3).

    {2 Attribute roles}

    - {e keys}: stable identifiers, shared by the master relation
      (join columns of form (2) rules);
    - {e chains}: a {e counter} attribute that grows along an
      entity's version history (like [rnds]) plus {e dependent}
      attributes whose value is an injective function of the version
      (like [totalPts]); a chain's order is established either
      numerically (φ1's shape) or — for {e interaction} chains —
      from a master-covered attribute's order (φ4's shape), which is
      only derivable when both rule forms are present (the
      superadditivity of Fig. 6(e));
    - {e covered}: attributes whose true value master data holds for
      a fraction of entities (φ6's shape);
    - {e plain}: attributes no rule speaks about — deduced only via
      the axioms (agreement), the main source of incomplete targets
      and top-k / user-interaction work.

    Because dependent values are injective in the version and
    covered-attribute orders only come from axiom φ8, every
    generated specification is Church-Rosser by construction
    (asserted in tests). *)

type chain = {
  counter : int;
  deps : int list;
  driver : [ `Numeric | `Covered of int ];
}

type config = {
  name : string;
  attrs : string list;
  keys : int list;
  chains : chain list;
  covered : int list;  (** entity attribute positions held by master *)
  entities : int;
  master_coverage : float;  (** fraction of entities with a master row *)
  size_zipf_n : int;  (** max tuples per entity *)
  size_zipf_s : float;  (** Zipf exponent of the size distribution *)
  versions : int;  (** length of each entity's version history *)
  null_rate : float;  (** per-cell null injection *)
  key_null_rate : float;
  plain_error_rate : float;  (** per-tuple corruption of plain cells *)
  dep_error_rate : float;  (** per-tuple corruption of dependent cells *)
  covered_error_rate : float;
      (** per covered attribute of a dirty entity: probability of a
          stale history (old snapshots show a stale value) *)
  covered_dirty_rate : float;
      (** per entity: probability that covered attributes have stale
          histories at all *)
  covered_noise_rate : float;
      (** per covered attribute: probability that one tuple's cell is
          corrupted with a unique noise value (breaks unanimity
          without ever contradicting master) *)
  extra_rules_per_dep : int;
      (** redundant guarded variants per dependent attribute, to
          match the paper's "3-4 ARs per attribute, often sharing
          the same LHS" *)
  extra_rules_per_covered : int;
      (** redundant guarded variants per covered attribute (form (2)
          rule-count matching) *)
  version_zipf_s : float;
      (** Zipf exponent of the (recency-skewed) version distribution;
          lower = flatter = stale values outnumber fresh ones, which
          is what makes master data genuinely informative (Fig. 6(c)) *)
  stale_keys : bool;
      (** key attributes carry version-stale spellings ordered by the
          first chain's counter — the Example 2 flow where master
          rules can only fire after form (1) deduces the keys *)
  singleton_rate : float;  (** extra probability mass on 1-tuple instances *)
  seed : int;
}

type entity = {
  id : int;
  truth : Relational.Value.t array;
  instance : Relational.Relation.t;
}

type dataset = {
  config : config;
  schema : Relational.Schema.t;
  master_schema : Relational.Schema.t;
  master : Relational.Relation.t;
  ruleset : Rules.Ruleset.t;
  entities : entity list;
}

val validate_config : config -> (unit, string) result
(** Roles must partition-or-subset the attribute range coherently:
    indices in range, no attribute in two roles, interaction
    drivers referencing covered attributes. *)

val plains : config -> int list
(** Attributes with no role (complement of keys/chains/covered). *)

val generate : config -> dataset
(** Deterministic in [config.seed]. *)

val spec_for : dataset -> entity -> Core.Specification.t
(** The specification [S = (Ie, Σ, Im, null template)] of one
    entity. *)

val annotate : dataset -> entity -> Relational.Value.t array
(** The {e manually identified} target tuple of §7's Exp-2/3: the
    most accurate value {e available} for every attribute, derived
    from the data the way a human annotator would — per currency
    chain, the values carried by the most current snapshot present;
    master values for covered attributes of covered entities;
    majority values elsewhere ({!Ordering.Attr_order.numbering_majority}:
    the largest {!Relational.Value.equal} class of the column, a tie
    going to the least value). This differs from [entity.truth]
    exactly on attributes whose true value was never observed (e.g.
    no fresh snapshot exists), which no method can recover. *)

val with_master_size : dataset -> int -> dataset
(** Keep only the first [n] master rows (the ‖Im‖ sweep of
    Fig. 6(c)/(g)); rules are unchanged. *)

val restrict_rules : dataset -> [ `Form1_only | `Form2_only | `Both ] -> dataset
(** The rule-form ablation of Fig. 6(e); axioms are kept. *)
