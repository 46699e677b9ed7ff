(** [TopKCT] (Fig. 5, §6.2): exact top-k candidate targets by
    lattice enumeration over per-attribute ranked streams, with a
    binary heap as the frontier — and the outcome and prologue that
    all three engines share.

    Given the deduced target [te] of a Church-Rosser specification,
    let [Z = {A | te[A] = null}]. The key fact (§6.2): if [Te] is
    the current top set and [t] is the next-best candidate, then [t]
    differs from some already-enumerated tuple in exactly one
    attribute. So the algorithm seeds the frontier with the
    all-top-values tuple and, on each pop, pushes the [m] neighbours
    obtained by advancing one attribute to its next-ranked domain
    value — popping tuples in exact score order without materializing
    ranked lists. Each popped tuple is verified a candidate target by
    [check] (a chase run, §5) before it is emitted.

    The per-attribute heaps [H_i] are {!Active_domain.stream}s, which
    pay only for the values pulled; the frontier walks a spanning tree
    of the position lattice (a popped tuple advances only its
    positions from its last non-zero one on), so each tuple is pushed
    once, with no dedup table. A call costs
    O(|Ie| + values pulled + pops·m log pops), independent of [|Im|].

    The enumeration is instance-optimal w.r.t. heap pops
    (Prop. 7). *)

type outcome = {
  targets : Relational.Value.t array list;
  exhausted : Robust.Error.trip option;
  checks : int;
  pulls : int;
}
(** Re-exported, with its contract, as {!Topk.outcome}. *)

type base
(** One call's check state: the lazily started all-null chase state
    and the checks spent on it. *)

val check : base -> Relational.Value.t array -> bool
(** [check] a completion as a trial on the call's state, counting it
    in [topk_checks_total]. *)

val verify : base -> Relational.Value.t array -> bool
(** {!check}, counting a failed completion in [topk_pruned_total]: the
    exact engines drop it, where TopKCTh revises it instead. *)

val engine :
  ?state:Core.Is_cr.state ->
  pref:Preference.t ->
  Core.Is_cr.compiled ->
  Relational.Value.t array ->
  (base -> int array -> Active_domain.stream array ->
   Relational.Value.t array list * Robust.Error.trip option * int) ->
  outcome
(** The prologue of all three engines. [engine compiled te search]
    starts the check state ({!Core.Is_cr.null_base}: the caller's
    [state] when given, else started from [compiled] on the first
    check), finds [te]'s null attributes and, when there are none,
    answers [te] itself if it checks. Otherwise it opens one ranked
    stream per null attribute, pulls each one's best value, and runs
    [search] over the attributes and streams; [search] returns the
    targets, the trip that cut it short, and its pulls. *)

val walk :
  check:bool ->
  ?max_pops:int ->
  ?budget:Robust.Budget.t ->
  k:int ->
  pref:Preference.t ->
  Relational.Value.t array ->
  base ->
  int array ->
  Active_domain.stream array ->
  Relational.Value.t array list * Robust.Error.trip option * int
(** The Fig. 5 frontier walk, a [search] for {!engine}: pops in
    score order until [k] popped tuples pass {!verify} (every one
    passes when [check] is [false], which is how TopKCTh gets its
    seeds), the lattice is drained, [max_pops] pops are spent with
    objects left to pop (trip [Steps]), or [budget]'s deadline
    passes. The budget is consulted once per pop with
    {!Robust.Budget.check}; no work is charged to it. *)

val run :
  ?state:Core.Is_cr.state ->
  ?max_pops:int ->
  ?budget:Robust.Budget.t ->
  k:int ->
  pref:Preference.t ->
  Core.Is_cr.compiled ->
  Relational.Value.t array ->
  outcome
(** TopKCT: {!engine} over a checking {!walk}. *)
