(** [TopKCTh] (§6.3): the PTIME heuristic.

    It first obtains [k] tuples by running {!Topk_ct} {e without}
    the check step, then greedily revises each tuple "with values
    from Ie and Im" until the revision is verified a candidate
    target by [check]. A revision is chase-free: the candidate's
    null-attribute values are pulled, one attribute at a time,
    towards the instance tuple they best co-occur with (each
    attribute revised at most once, so at most [m + 1] check calls
    per tuple). Failing high-score candidates are thus repaired into
    verified ones cheaply — which is why TopKCTh outperforms TopKCT
    in running time (§7, Exp-4) while TopKCT finds slightly better
    candidates (Exp-2): the repaired tuples are guaranteed candidate
    targets but need not have the top scores.

    Tuples whose repair fails, and repairs colliding with an
    already-emitted target, are dropped, so fewer than [k] tuples
    may be returned. *)

val run :
  ?state:Core.Is_cr.state ->
  ?max_pops:int ->
  ?budget:Robust.Budget.t ->
  k:int ->
  pref:Preference.t ->
  Core.Is_cr.compiled ->
  Relational.Value.t array ->
  Topk_ct.outcome
(** {!Topk_ct.engine} over the check-free {!Topk_ct.walk} and the
    repairs; [pulls] counts the seed walk's pops. [budget]'s deadline
    is checked once per seed-walk pop and once before each seed's
    repair. *)
