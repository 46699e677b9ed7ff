(** Exhaustive candidate-target enumeration — the brute-force ground
    truth for §3's candidate-target problem.

    The problem is NP-complete (Thm. 3) and the candidate set can be
    exponential (Example 7), so this oracle is only usable on small
    instances; it exists to {e test} the top-k algorithms ({!Topk.solve}): on any
    workload it can afford, [Topk_ct] and [Rank_join_ct] must return
    exactly its top-k by score (property-checked in the test suite),
    and [Topk_ct_h]'s output must be a subset of its candidates. *)

type result = {
  candidates : Relational.Value.t array list;
      (** every candidate target over the active domains (default
          values included), in descending score order (ties broken
          by value order) *)
  truncated : bool;  (** the [limit] was hit: the list is partial *)
  checked : int;  (** completions examined *)
}

val enumerate :
  ?include_default:bool ->
  ?limit:int ->
  pref:Topk.Preference.t ->
  Core.Is_cr.compiled ->
  Relational.Value.t array ->
  result
(** [enumerate ~pref compiled te] checks every completion of [te]'s
    null attributes over their active domains. [limit] (default
    100_000) bounds the number of completions examined; raise it
    deliberately for bigger spaces. *)

val exists_candidate :
  ?include_default:bool ->
  Core.Is_cr.compiled ->
  Relational.Value.t array ->
  bool
(** The decision problem of Thm. 3 (restricted to active-domain
    values): does any completion pass [check]? Stops at the first
    hit. *)

val count :
  ?include_default:bool ->
  ?limit:int ->
  Core.Is_cr.compiled ->
  Relational.Value.t array ->
  int * bool
(** Number of candidate targets (and whether the limit truncated the
    count). *)
