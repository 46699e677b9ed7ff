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

val run :
  ?state:Core.Is_cr.state ->
  ?max_pops:int ->
  ?budget:Robust.Budget.t ->
  k:int ->
  pref:Preference.t ->
  Core.Is_cr.compiled ->
  Relational.Value.t array ->
  Topk_ct.outcome
(** {!Topk_ct.engine} over the rank join; [pulls] counts list
    accesses. Ranking the lists is part of this algorithm's cost
    (§6.1: "domain values are often not given in ranked lists, and
    sorting the domains is costly"); the streams pay it only for the
    explicitly weighted values and those pulled.

    One cap in the algorithm's two units: [max_pops] bounds list
    accesses and trips {!Robust.Error.Steps}, and it bounds generated
    join combinations and trips {!Robust.Error.Combos} — one pull
    joins against a cross product of all seen prefixes, exponential
    in the number of null attributes, so the two can diverge wildly.
    Either trips only while a list is left to advance. [budget] is
    charged one unit per generated join combination and carries the
    wall-clock deadline. A tripped call still returns the best
    candidates generated so far. *)
