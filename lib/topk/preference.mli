(** The preference model [(k, p(·))] of §3: a per-value score
    [w_A(v)] for every attribute and value, with
    [p(t) = Σ_A w_A(t[A])] and [p(Te) = Σ_{t ∈ Te} p(t)] — a
    monotone scoring function.

    Scores may come from value-occurrence counting (the paper's
    default, used in Exp-2/3/4 and the [voting]-flavoured Table 4
    row), from probabilities produced by a truth-discovery algorithm
    (the [copyCEF]-flavoured Table 4 row), or from explicit user
    confidence. *)

type t

val weight : t -> int -> Relational.Value.t -> float
(** [weight p attr v] — the score [w_attr(v)]. *)

val support : t -> int -> (Relational.Value.t list * float) option
(** [support p attr] — [Some (vs, d)] when every value of [attr] not
    {!Relational.Value.equal} to one of [vs] weighs exactly [d]: the
    sparse models ({!of_occurrences}: the column's values; {!of_table}:
    the triples' values; {!override}: its triples' values plus the
    base's). [None] for a dense model ({!of_fun}, {!uniform}), where
    any value may weigh anything. [vs] may repeat a value and may hold
    values outside any active domain. Top-k domains rank the sparse
    part explicitly and stream the rest at [d] in value order
    ({!Active_domain.stream}). *)

val score : t -> Relational.Value.t array -> float
(** [p(t)]: sum of weights over all positions. Null positions score
    [0.]. *)

val of_fun : (int -> Relational.Value.t -> float) -> t

val uniform : unit -> t
(** Every non-null value scores [1.]. *)

val of_occurrences :
  ?default:float -> Relational.Relation.t -> t
(** Count occurrences of each value in its column of the entity
    instance (§3: "automatically derived by counting the occurrences
    of v in the Ai column"). Values never seen in the column (e.g.
    master-only values or the synthetic default ⊥) score [default]
    (default [0.5] — above nothing, below any occurring value). *)

val of_table :
  ?default:float -> (int * Relational.Value.t * float) list -> t
(** Explicit (attribute, value, weight) triples; anything else
    scores [default] (default [0.]). A triple weighs every value
    {!Relational.Value.equal} to its own ([Int 3] and [Float 3.]
    alike); of two triples on one such class, the later wins. *)

val override :
  t -> (int * Relational.Value.t * float) list -> t
(** Point updates on top of an existing model, keyed like
    {!of_table}. *)
