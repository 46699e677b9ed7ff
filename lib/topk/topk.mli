(** Top-k candidate targets (§6): the preference model, active
    domains, and one entry point — {!solve} — over the three
    completion algorithms.

    [solve] is the single public solver API: it validates its inputs
    into typed {!Robust.Error.t} values (instead of raising),
    normalises the three algorithms' budget knobs, and reports
    exhaustion uniformly. The per-algorithm run surfaces live under
    {!Private} — reachable for the test suite and benchmarks that
    assert on their detailed statistics, not part of the supported
    surface. *)

module Preference = Preference
module Active_domain = Active_domain
module Candidate_oracle = Candidate_oracle

(** The per-algorithm engines. No stability guarantees: statistics
    fields and run knobs change as the algorithms evolve; production
    callers go through {!solve}. *)
module Private : sig
  module Rank_join_ct = Rank_join_ct
  module Topk_ct = Topk_ct
  module Topk_ct_h = Topk_ct_h
end

type algo = [ `Rank_join  (** RankJoinCT, §6.1 *)
            | `Ct  (** TopKCT, §6.2 (Fig. 5) — the default *)
            | `Ct_h  (** TopKCTh, §6.3 greedy repair *) ]

val algo_name : algo -> string

type outcome = {
  targets : Relational.Value.t array list;
      (** best-score-first, at most [k] *)
  exhausted : Robust.Error.trip option;
      (** [Some _] when a budget stopped the search before it either
          found [k] targets or proved no more exist; the targets are
          then a sound best-so-far prefix *)
  checks : int;  (** candidate chase checks spent *)
  pulls : int;  (** frontier pops / ranked-list pulls *)
}

val solve :
  ?algo:algo ->
  ?state:Core.Is_cr.state ->
  ?include_default:bool ->
  ?max_pops:int ->
  ?budget:Robust.Budget.t ->
  k:int ->
  pref:Preference.t ->
  Core.Is_cr.compiled ->
  Relational.Value.t array ->
  (outcome, Robust.Error.t) result
(** [solve compiled te] completes the deduced target [te] with the
    [k] best candidates under [pref].

    Candidate verifications are trials on one chase
    {!Core.Is_cr.state}, started lazily from [compiled] on the first
    check, so each candidate costs one delta rather than a
    from-scratch chase. A caller that has already drained that state
    ({!Core.Is_cr.start} from the all-null template, no kept fill)
    passes it as [state] and the base fixpoint is not chased again;
    a state of another compiled specification or template raises
    [Invalid_argument] ({!Core.Is_cr.null_base}).

    [max_pops] caps frontier pops (TopKCT/TopKCTh) or list pulls and
    combinations (RankJoinCT); [budget] additionally imposes an
    armed meter. Its step cap becomes the pop cap when [max_pops] is
    absent, and all three algorithms honour its deadline: TopKCT and
    TopKCTh check it once per frontier pop and return their partial
    result with [exhausted = Some Deadline].

    Errors instead of exceptions: [k < 1] and (with
    [~include_default:false]) an empty active domain for a null
    attribute surface as {!Robust.Error.Spec_invalid}. *)
