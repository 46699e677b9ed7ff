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

type stats = {
  seeds : int;  (** tuples obtained from the check-free TopKCT *)
  revisions : int;  (** single-attribute revisions applied *)
  checks : int;  (** chase runs *)
  repaired : int;  (** seeds that needed at least one revision *)
}

type result = {
  targets : Relational.Value.t array list;
  stats : stats;
  tripped : Robust.Error.trip option;
      (** as {!Topk_ct.result}: [Some _] when [budget] stopped the
          seed walk or the repairs *)
}

val run :
  ?state:Core.Is_cr.state ->
  ?include_default:bool ->
  ?max_pops:int ->
  ?budget:Robust.Budget.t ->
  k:int ->
  pref:Preference.t ->
  Core.Is_cr.compiled ->
  Relational.Value.t array ->
  result
(** Same contract as {!Topk_ct.run} (including the shared chase
    state; the check-free seed enumeration never starts one).
    [budget] is checked once per seed-walk pop and once before each
    seed's repair. *)
