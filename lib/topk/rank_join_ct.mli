(** [RankJoinCT] (§6.1): top-k candidate targets as an extension of
    top-k rank-join algorithms (HRJN-style; Ilyas et al. VLDBJ'04,
    Schnaitter & Polyzotis PODS'08).

    Inputs are the {e ranked lists} [L_1 .. L_m] — each null
    attribute's active domain sorted by descending score, read as
    {!Active_domain.stream}s, so a list is only ranked as far as the
    join pulls it (plus one value of look-ahead for [τ]). The
    algorithm pulls values from the lists round-robin; every pulled
    value is joined with all previously-seen values of the other
    lists, and — as the paper notes critically — {e every} join
    combination is verified by [check] (a chase run), which is what
    makes RankJoinCT exponentially more expensive than [TopKCT].
    A combination is emitted once its score is at least the
    rank-join threshold [τ = max_i (w_i(next unseen of L_i) +
    Σ_{j≠i} w_j(top of L_j))], which guarantees exact score order
    (early termination, Prop. 6). *)

type stats = {
  pulls : int;  (** list accesses *)
  combos : int;  (** join combinations generated (all checked) *)
  checks : int;
  emitted : int;
}

type status =
  | Complete
      (** the targets are the exact top-k (or every candidate, when
          fewer than k exist) *)
  | Search_exhausted of Robust.Error.trip
      (** a cap or the {!Robust.Budget.t} cut the search: the
          targets are the best-k generated so far. The trip names
          the bound that fired — [Steps] for [max_pulls], [Combos]
          for [max_combos], and whatever dimension of the budget
          meter tripped otherwise *)

type result = {
  targets : Relational.Value.t array list;
  stats : stats;
  status : status;
}

val run :
  ?state:Core.Is_cr.state ->
  ?include_default:bool ->
  ?max_pulls:int ->
  ?max_combos:int ->
  ?budget:Robust.Budget.t ->
  k:int ->
  pref:Preference.t ->
  Core.Is_cr.compiled ->
  Relational.Value.t array ->
  result
(** Same contract as {!Topk_ct.run} (including the shared chase
    state — decisive here, since {e every} join combination is
    checked). Ranking the lists is part of this algorithm's cost
    (§6.1: "domain values are often not given in ranked lists, and
    sorting the domains is costly"); the streams pay it only for the
    explicitly weighted values and those pulled.

    Two independent work caps, in the algorithm's two units:
    [max_pulls] bounds ranked-list accesses (like [Topk_ct]'s
    [max_pops]) and trips {!Robust.Error.Steps}; [max_combos] bounds
    generated join combinations — one pull joins against a cross
    product of all seen prefixes, which is exponential in the number
    of null attributes, so the two can diverge wildly — and trips
    {!Robust.Error.Combos}. When only [max_pulls] is given,
    [max_combos] defaults to the same value (the historical
    single-cap behaviour). [budget] is charged one unit per
    generated join combination and carries the wall-clock deadline.
    When any bound trips, the call still returns — tagged
    {!Search_exhausted} with the bound that fired — with the best-k
    candidates found. *)
