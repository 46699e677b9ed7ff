(** Shared evaluation machinery for the experiment drivers. *)

type deduction_stats = {
  total : int;
  non_cr : int;  (** should be 0: generated specs are Church-Rosser *)
  complete_pct : float;  (** Fig 6(a)'s metric *)
  nonnull_attr_pct : float;  (** avg % of non-null target attributes *)
  correct_attr_pct : float;  (** Fig 6(e)'s metric: avg % of attributes
                                 whose most accurate value was found *)
  exact_pct : float;  (** complete and equal to ground truth *)
}

val deduce_stats : Datagen.Entity_gen.dataset -> deduction_stats
(** Run [IsCR] over every entity of the dataset. *)

val truth_rank :
  ?target:Relational.Value.t array ->
  Topk.algo ->
  k:int ->
  Datagen.Entity_gen.dataset ->
  Datagen.Entity_gen.entity ->
  int option
(** 1-based rank of the manually-identified target tuple
    ({!Datagen.Entity_gen.annotate} of the given dataset by default;
    override with [target] when the evaluation dataset differs from
    the annotation dataset, e.g. the ‖Im‖ sweep) among the top-k
    candidates, with the §7 default preference (value occurrences in
    the entity instance); [None] if absent. [Some r] with [r <= k']
    answers "was the target found at k'?" for every [k' <= k] in one
    run. *)

val hit_rate : (int option * int) list -> float
(** [(rank, k)] pairs → percentage with [rank <= k]. *)

val time_ms : (unit -> unit) -> float
(** Wall-clock milliseconds of one call. *)
