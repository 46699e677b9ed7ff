(** The interactive deduction framework of §4 (Fig. 3).

    One round: (1) check the specification is Church-Rosser — if
    not, report the offending rule and stop for revision; (2) chase
    to the unique deduced target; (3) if complete, done; (4)
    otherwise compute top-k candidate targets and consult the
    {e user}, who may pick a candidate, fill in one or more null
    attributes, or revise Σ / the data; then re-run with the revised
    template. The paper's Exp-3 simulates the user by revealing the
    ground-truth value of one randomly chosen null attribute per
    round, and stops as soon as the manually identified target
    appears among the top-k candidates.

    The user is abstracted as a callback so real interactive fronts
    (the CLI) and the simulated oracle share the engine. *)

(** What the framework presents to the user each round. *)
type round_view = {
  round : int;  (** 1-based *)
  te : Relational.Value.t array;  (** current deduced target *)
  null_attrs : int list;
  candidates : Relational.Value.t array list;  (** top-k, best first *)
}

(** The user's reply. *)
type reaction =
  | Accept of Relational.Value.t array
      (** choose this tuple as the final target *)
  | Fill of (int * Relational.Value.t) list
      (** instantiate these template attributes and iterate *)
  | Give_up

type outcome =
  | Resolved of { target : Relational.Value.t array; rounds : int }
      (** [rounds] = user-interaction rounds consumed (0 when the
          chase alone deduced a complete target) *)
  | Unresolved of { te : Relational.Value.t array; rounds : int }
      (** the user gave up or the round limit was hit *)
  | Rejected of { rule : string; reason : string }
      (** not Church-Rosser *)

val run :
  ?k:int ->
  ?algorithm:Topk.algo ->
  ?max_rounds:int ->
  pref:Topk.Preference.t ->
  user:(round_view -> reaction) ->
  Core.Specification.t ->
  outcome
(** Defaults: [k = 15] (§7's default), [`Ct] (TopKCT), [max_rounds =
    20]. Each round's candidates come from {!Topk.solve} capped at
    {!Topk.exploration_cap}. The specification's template accumulates
    the user's fills across rounds. *)

val oracle_user :
  truth:Relational.Value.t array ->
  ?rng:Util.Prng.t ->
  unit ->
  round_view -> reaction
(** Exp-3's simulated user: if the ground-truth tuple appears among
    the candidates, accept it; otherwise reveal the true value of
    one random null attribute ("a single attribute B with
    te\[B\] = null was randomly picked and assigned its accurate
    value"). Without [rng], the first null attribute is chosen. *)
