(** Top-k candidate targets (§6): the preference model, active
    domains, and one entry point — {!solve} — over the three
    completion algorithms.

    [solve] is the only way to run an engine: it validates its inputs
    into typed {!Robust.Error.t} values (instead of raising), applies
    one cap to all three algorithms, and reports every run as one
    {!outcome}. *)

module Preference = Preference
module Active_domain = Active_domain

type algo = [ `Rank_join  (** RankJoinCT, §6.1 *)
            | `Ct  (** TopKCT, §6.2 (Fig. 5) — the default *)
            | `Ct_h  (** TopKCTh, §6.3 greedy repair *) ]

val algo_name : algo -> string

type outcome = Topk_ct.outcome = {
  targets : Relational.Value.t array list;
      (** best-score-first, at most [k] *)
  exhausted : Robust.Error.trip option;
      (** [Some _] when a budget stopped the search before it either
          found [k] targets or proved no more exist; the targets are
          then a sound best-so-far prefix. A walk that ends exactly
          at the cap, with nothing left to pop or pull, is not
          exhausted. *)
  checks : int;  (** candidate chase checks spent *)
  pulls : int;  (** frontier pops / ranked-list pulls *)
}

val exploration_cap : int
(** 2,000: the pop cap every caller in this repository passes as
    [max_pops]. §6.2 notes that when a specification has fewer than
    [k] candidate targets TopKCT "would inevitably exhaust the entire
    search space", which is exponential; under the cap such an entity
    returns its partial result instead. *)

val solve :
  ?algo:algo ->
  ?state:Core.Is_cr.state ->
  ?max_pops:int ->
  ?budget:Robust.Budget.t ->
  k:int ->
  pref:Preference.t ->
  Core.Is_cr.compiled ->
  Relational.Value.t array ->
  (outcome, Robust.Error.t) result
(** [solve compiled te] completes the deduced target [te] with the
    [k] best candidates under [pref]. Each null attribute ranges over
    its active domain, ⊥_A included (§6.1).

    Candidate verifications are trials on one chase
    {!Core.Is_cr.state}, started lazily from [compiled] on the first
    check, so each candidate costs one delta rather than a
    from-scratch chase. A caller that has already drained that state
    ({!Core.Is_cr.start} from the all-null template, no kept fill)
    passes it as [state] and the base fixpoint is not chased again;
    a state of another compiled specification or template raises
    [Invalid_argument] ({!Core.Is_cr.null_base}).

    [max_pops] is the one cap: it bounds frontier pops (TopKCT, and
    TopKCTh's seed walk) and trips [Steps]; RankJoinCT applies it to
    list pulls ([Steps]) and to join combinations ([Combos]) alike.
    Unbounded by default (exact). [budget] additionally imposes an
    armed meter. Its step cap becomes the cap when [max_pops] is
    absent, and all three algorithms honour its deadline: TopKCT and
    TopKCTh check it once per frontier pop and return their partial
    result with [exhausted = Some Deadline]; RankJoinCT is charged
    one step per combination.

    [k < 1] is an {!Robust.Error.Spec_invalid} error, not an
    exception. *)
