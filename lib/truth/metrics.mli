(** Evaluation metrics of §7 (Exp-5 / Table 4). *)

type prf = { precision : float; recall : float; f1 : float }

val prf :
  predicted:('a -> bool) ->
  truth:('a -> bool) ->
  'a list ->
  prf
(** Binary-classification P/R/F1 over a population: [R] is the set
    the algorithm flags, [G] the set actually positive;
    [p = |G∩R|/|R|], [r = |G∩R|/|G|], [F1 = 2pr/(p+r)]. Empty
    denominators yield [1.0] for the corresponding measure (flagging
    nothing when nothing is positive is perfect), [0.0] for F1 when
    both are zero. *)

val accuracy : (bool * bool) list -> float
(** Fraction of (predicted, actual) pairs that agree. *)

val attribute_match_rate :
  truth:Relational.Value.t array ->
  Relational.Value.t array ->
  float
(** Fraction of positions on which the deduced tuple equals the
    ground truth (null counts as a miss unless the truth is null). *)

val exact_match :
  truth:Relational.Value.t array -> Relational.Value.t array -> bool
