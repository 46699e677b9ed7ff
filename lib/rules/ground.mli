(** [Instantiation] (§5): partial evaluation of the ARs in Σ over the
    tuples of [Ie] and [Im] into ground single chase steps Γ.

    A form (1) rule is instantiated on every ordered tuple pair
    (including [i = j]: a conclusion over one value class grounds to
    a {!Refresh}, the λ update that instantiates [te] on an attribute
    with a unique greatest value). A form (2) rule is instantiated on
    every master tuple — literally, except that the axioms φ7–φ9
    ground no step ({!Core.Is_cr} applies them itself) and a form (2)
    rule that joins [te] against the master becomes a {!template}
    whose steps a run materializes on demand.
    Constant predicates are folded away — a false one kills the
    step — and the residue is one of two monotone event kinds:

    - {!P_ord}: a strict class pair must appear in one attribute's
      accuracy order (distinct value classes; a non-strict atom over
      one class folds to [true], a strict one to [false]);
    - {!P_te}: the target attribute, once assigned, must compare as
      stated. [te] attributes are write-once and only ever assigned
      non-null values, so a test against the {e initial} null (e.g.
      [te\[A\] = null]) is never satisfied — matching the paper,
      where [Φ_δ] keys on assignment events [te\[Ak\] = c] only.

    Steps are deduplicated (same residue and action ⇒ one step,
    first provenance wins); duplicate predicates within a step are
    collapsed so that each residual predicate fires at most once.

    Γ lives in one flat step store of ints, whatever its role: per
    step a packed action word and a slice of packed residual words
    ({!Plan}'s layout), its rule's index in the plan, and an
    [Assign]'s master row. The rule name and the row's own spelling
    of the assigned value decode from those on demand.
    Grounding emits into a domain-local store and returns its trimmed
    copy as Γ's prefix; a {!fork} grows a second store whose sids
    continue the prefix's. Form-(2) rows are grounded by one row loop,
    whether into the prefix or on demand by {!materialize}. *)

type action =
  | Add_order of { attr : int; c1 : int; c2 : int }
      (** assert class [c1 ⪯ c2] on [attr] ([c1 ≠ c2]) *)
  | Refresh of int
      (** a same-class order assertion: its only observable effect is
          the λ update of [te] on the attribute *)
  | Assign of { attr : int; value : Relational.Value.t }
      (** [te\[attr\] := value] from master data (value non-null) *)

type gpred =
  | P_ord of { attr : int; c1 : int; c2 : int }
      (** satisfied when the class edge [c1 → c2] appears *)
  | P_te of { attr : int; op : Ar.op; value : Relational.Value.t }
      (** satisfied when [te\[attr\]] is assigned some [w] with
          [w op value]; dead if assigned a [w] failing it *)

type step = {
  sid : int;
      (** dense id, [0 .. |Γ|-1]; [-1] for an axiom step the chase
          applies itself (see {!instantiate}) *)
  rule_name : string;  (** provenance *)
  preds : gpred list;  (** residual predicates, deduplicated *)
  action : action;
}

type template
(** One form-(2) rule held back from the prefix: the rule's
    selections, residual recipe and conclusion, plus its {e join
    binding} — the first [Te_master] conjunct. It stands in for one
    candidate step per master row; the chase materializes those only
    when a [te] write on the join attribute produces a value present
    in the master join column ({!Master_index}), which is the only
    event under which any of them could fire. Rules with no
    [Te_master] conjunct never defer. *)

val template_id : template -> int
(** Dense per-grounding id, [0 .. n_templates-1]. *)

val template_name : template -> string
(** Provenance: the rule's name. *)

val template_join_attr : template -> int
(** The [te] attribute whose writes can wake this template. *)

val template_join_col : template -> int
(** The master column the join attribute must match. *)

type t
(** Γ: a frozen prefix of ground steps in the step store (packed
    action and predicate words over interned ids, rule indices,
    [Assign] master rows; names and actions decode on demand), plus
    the {!template}s of the
    form-(2) rules held back from it. Immutable once built, so one Γ
    is shared by every run over a compiled specification. A run
    {!fork}s it privately and grows the fork's own store by
    {!materialize}; materialized sids extend the prefix numbering
    densely, so slot tables, undo logs and traces are oblivious to a
    step's provenance. *)

val instantiate :
  ?only:(Ar.t -> bool) ->
  intern:Relational.Intern.t ->
  ruleset:Ruleset.t ->
  entity:Relational.Relation.t ->
  master:Master_index.t option ->
  orders:Ordering.Attr_order.numbering array ->
  unit ->
  t
(** Γ: the axioms ({!Ruleset.axioms}) ground no step, since
    {!Core.Is_cr} applies them itself; every form-(2) rule with a
    [Te_master] conjunct emits one {!template} instead of |Im|
    candidate steps; every other rule grounds into the prefix as the
    literal reading of §5 does (each rule in Σ order on every tuple
    pair or master row). The axioms still take part in dedup and
    subsumption — a user step that an axiom would have offered first
    is dropped, a user rule an axiom subsumes is skipped — so without
    templates the prefix is the literal Γ less its axiom steps, step
    for step. With {!materialize} over every master row, the step set
    is the literal one less its axiom steps, with the same dedup
    classes; a run materializes only the steps whose join keys it
    actually produces (no other deferred step can ever fire). The
    provenance of a step can differ: where a join-less rule later in
    Σ duplicates a templated rule's step, the prefix already holds the
    later rule's step when the template materializes, so the step
    keeps the later rule's name while the literal grounding credits
    the templated rule.

    [only] restricts the rules considered (axioms included in the
    scan) — the {e delta} probe: grounding just an added rule against
    a live entity decides whether its Γ grows without
    re-instantiating the rest of Σ. Dedup then only sees the filtered
    rules, so a step duplicating one of an excluded rule is emitted
    even though a full instantiation would have deduplicated it —
    callers treat a non-empty result as "possibly affected", which
    stays sound.

    [orders] supplies the value-class numbering of each attribute
    (instantiation only reads classes, never order state, so it takes
    the bare numbering — see {!Core.Specification.numbering}). The
    ruleset's {!Plan} is evaluated against it and the interning table
    [intern] (pass {!Core.Specification.intern} so ids agree with the
    rest of the pipeline): the plan's constants are interned, each
    distinct guard shape becomes a tuple bitset and each distinct
    read set a representative bitset, residuals become
    packed-int emitters over flat id arrays, and the per-pair hot
    loop touches only machine ints. With a [master], [intern] must be
    an entity generation over that index's generation holding the
    rules' columns ({!Master_index.extend}; checked with
    {!Master_index.covers}) — master ids are read from its per-column
    arrays ({!Master_index.vids}) — or [Invalid_argument] is raised;
    without one, any root table will do. Every id interned here is checked against the packing range
    ({!Plan.max_xy}). Candidate
    identities are sorted packed-[int array] keys — no structural
    value hashing — with {!Relational.Intern} ids standing in for
    values, so the dedup classes are exactly those of [Value.equal]
    (numeric twins unify). Form (2) rules carrying a
    [Master_const (b, Eq, c)] selection visit only the master rows
    {!Master_index.rows} holds for [c] (the null rows when [c] is
    null) instead of scanning all of [Im].

    Raises [Invalid_argument] on a form (1) predicate comparing two
    different target attributes (outside the paper's grammar), or if
    an attribute/class/value-id exceeds the packed-key ranges (4096
    attributes, ~8.4M classes or distinct values). *)

val count : t -> int
(** |Γ|: the prefix plus the steps materialized so far. *)

val rule_name : t -> int -> string
(** Provenance of step [sid]. *)

val pred_count : t -> int -> int
(** Number of residual predicate slots of step [sid]. *)

val pred_word : t -> int -> int -> int
(** [pred_word g sid slot] — residual [slot] (below {!pred_count}) of
    step [sid], undecoded: the packed predicate word that
    {!Plan.ord_key}/{!Plan.te_eq_key} rebuild from chase events, read
    through the [Plan.unpack_*] accessors. *)

val action : t -> int -> action
(** The action of step [sid], decoded from its packed word. [Assign]
    actions carry the master row's own value spelling. *)

val step : t -> int -> step
(** The decoded record of step [sid] — the cold provenance/trace
    path. *)

val templates : t -> template array
(** The deferred form-(2) rules, indexed by {!template_id}. *)

val class_vids : t -> int array array
(** Per attribute, by class id, the interned id of each value class's
    value (null classes hold {!Relational.Intern.null_id}): what the
    chase matches a [te] fill against when it applies axiom φ8
    itself. Read only. *)

val fork : t -> t
(** A private, growable copy of [g]'s prefix and templates for one
    run: {!materialize} appends to it and to nothing else. Constant
    time; a Γ without templates cannot grow and is returned as is. *)

val materialize : t -> rows:int list -> int -> on_new:(int -> unit) -> unit
(** [materialize g ~rows tid ~on_new] instantiates template [tid]
    over the given rows of the master [g] was grounded against
    (normally a residual-index hit for one join value), appending
    each new step to the fork [g] and then reporting the new sids
    through [on_new] in row order; rows whose step [g] already holds
    are deduplicated silently (the prefix's step keeps its own rule
    name, see {!instantiate}). Raises [Invalid_argument] when [g] is
    not a {!fork}. *)

val pp_step : Format.formatter -> step -> unit
