(** [TopKCT] (Fig. 5, §6.2): exact top-k candidate targets by
    lattice enumeration over per-attribute ranked streams, with a
    binary heap as the frontier.

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

type stats = {
  heap_pops : int;  (** total pulls over the m attribute streams *)
  queue_pops : int;  (** pops from the frontier *)
  checks : int;  (** candidate verifications (chase runs) *)
  enumerated : int;  (** tuples pushed to the frontier (each once) *)
}

type result = {
  targets : Relational.Value.t array list;
      (** up to [k] candidate targets, best score first *)
  stats : stats;
  tripped : Robust.Error.trip option;
      (** [Some _] when [budget] stopped the walk (a deadline, or a
          trip already sticky on the meter); [targets] is then the
          best-first prefix found so far *)
}

val run :
  ?state:Core.Is_cr.state ->
  ?check:bool ->
  ?include_default:bool ->
  ?max_pops:int ->
  ?budget:Robust.Budget.t ->
  k:int ->
  pref:Preference.t ->
  Core.Is_cr.compiled ->
  Relational.Value.t array ->
  result
(** [run ~k ~pref compiled te] enumerates candidates for the null
    attributes of [te]. [check] (default [true]) — [TopKCTh] reuses
    this machinery with [check:false] to get its initial k tuples.
    If [te] is already complete the result is just [te] (verified).

    All verifications of one run are trials on one chase
    {!Core.Is_cr.state} ({!Core.Is_cr.null_base}: the caller's
    [state] when given, else started lazily from [compiled] on the
    first check), so each candidate costs one delta rather than a
    from-scratch chase.

    [max_pops] bounds frontier pops. §6.2 notes that when the
    specification has fewer than [k] candidate targets, TopKCT
    "would inevitably exhaust the entire search space", which is
    exponential; the experiment harness passes a budget so such
    pathological entities return their partial result instead.
    Unbounded by default (exact).

    [budget] is consulted once per frontier pop with
    {!Robust.Budget.check} (no work is charged: [max_pops] is the
    step cap), so a wall-clock deadline stops the walk within one
    pop's work of expiring. Without it the run never reads a clock.

    Raises [Invalid_argument] if [k < 1] or some null attribute has
    an empty active domain. *)
