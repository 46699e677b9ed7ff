(** A reimplementation of [copyCEF] (Dong, Berti-Equille &
    Srivastava, "Truth discovery and copying detection in a dynamic
    world", VLDB 2009): Bayesian truth discovery over multiple data
    sources with copy detection.

    The model, simplified to what the Rest workload (§7) exercises:

    - each source claims, per object and attribute, a value (we keep
      each source's {e latest} snapshot claim, the dynamic-world
      reduction);
    - sources have an unknown accuracy [A(s)]; a claim's vote weight
      is [ln(A(s) n / (1 - A(s)))] (Dong et al.'s score with [n]
      alternative false values);
    - copying between sources is detected from {e shared false
      values}: two independent sources rarely agree on a false
      value, so the copy probability of a pair grows with the
      fraction of their common claims that are jointly believed
      false. A detected copier's votes are discounted by the copy
      probability, so copied errors do not snowball;
    - value confidences and source accuracies are re-estimated
      alternately (EM-style) until convergence or an iteration cap.

    The per-value confidences it outputs feed {!Topk.Preference}
    for the "TopKCT (preference derived by copyCEF)" row of
    Table 4. *)

type claim = {
  object_id : int;
  attr : int;
  source : int;
  snapshot : int;
  value : Relational.Value.t;
}

type config = {
  iterations : int;  (** EM rounds (default 8) *)
  prior_accuracy : float;  (** initial A(s) (default 0.8) *)
  n_false_values : int;  (** Dong et al.'s n (default 10) *)
  copy_threshold : float;
      (** pair copy probability above which discounting applies
          (default 0.3) *)
}

val default_config : config

type result

val run : ?config:config -> num_sources:int -> claim list -> result

val truth : result -> object_id:int -> attr:int -> Relational.Value.t option
(** The highest-confidence value for an object attribute, spelled as
    its first claim; a tie goes to the least by
    {!Relational.Value.compare}. *)

val confidence :
  result -> object_id:int -> attr:int -> Relational.Value.t -> float
(** Posterior probability of a value: the claims
    {!Relational.Value.equal} to it are one value (0 if never
    claimed). *)

val source_accuracy : result -> int -> float

val copy_probability : result -> int -> int -> float
(** Estimated probability that one of the two sources copies the
    other (symmetric). *)
