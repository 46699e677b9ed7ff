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
(** Active domain of one entity attribute, one value per
    {!Relational.Value.equal} class spelled as it first appears, in
    first-appearance order ([Ie] column, then master contributions,
    then [⊥_A] when [include_default], default [true], unless a real
    value already is [⊥_A]).
    [~include_default:false] gives the domain without ⊥_A, which the
    test suite's exhaustive candidate oracle offers for counting the
    paper's examples; the engines' {!stream} always includes it. The master
    contributions are read from {!Rules.Master_index.distinct}, built
    once per master relation and column, so a call costs
    O(|Ie| + |domain|), never a scan of [Im] — but it is still
    O(|domain|): the top-k engines read {!stream} instead. *)

(** {2 Ranked streams}

    The ranked list [L_i] of §6 — the domain weighed by a preference
    and ordered by weight descending, then {!Relational.Value.compare}
    ascending — pulled one pair at a time. For a sparse preference
    ({!Preference.support}) the stream merges two sorted sources: the
    domain values that may weigh something other than the default,
    weighed and sorted (O(|Ie| + |support|) per stream); and every
    other value at the default weight in value order — the entity's
    leftovers, the master columns' {!Rules.Master_index.sorted} arrays
    (entity and support ids skipped) and [⊥_A]. Opening a stream and
    pulling [n] pairs therefore costs O(|Ie| + |support| + n·c) for [c]
    master columns, independent of [|Im|]. A dense preference is the
    case where the whole domain is the first source: it is weighed in
    {!values} order (a model that memoizes weights on first query sees
    the same queries as an eager sort). *)

type stream

val stream :
  Core.Specification.t ->
  Preference.t ->
  int ->
  stream
(** [stream spec pref attr] — the ranked stream of [attr]'s active
    domain (the values of {!values}, same spellings), ⊥_A included:
    §6.1's active domain always holds it, so a stream is never empty.
    Nothing is pulled yet. *)

val pull : stream -> bool
(** Buffer the next pair; [false] once the domain is drained. *)

val pulled : stream -> int
(** Pairs buffered so far. *)

val get : stream -> int -> Relational.Value.t * float
(** [get s j] — the [j]-th best pair (0-based), [j < pulled s];
    raises [Invalid_argument] otherwise. *)

val ranked :
  Core.Specification.t ->
  Preference.t ->
  int ->
  (Relational.Value.t * float) array
(** The whole stream, drained — O(|domain|); for tests and tools,
    not the engines. *)
