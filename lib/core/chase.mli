(** Reference chase: the operational semantics of §2.2, implemented
    naively (re-scan Γ for an applicable valid step, apply it,
    repeat), with a pluggable step-selection policy.

    This engine exists for three reasons:
    - it is the executable definition the efficient {!Is_cr} is
      differentially tested against (any two policies must agree on
      the terminal instance of a Church-Rosser specification, and
      must agree with {!Is_cr});
    - randomized policies give empirical evidence for / counter-
      examples to the Church-Rosser property (Example 6);
    - it is the baseline of the index-ablation bench (naive rescan
      is O(|Γ|) per step, vs Fig. 4's O(1) [NextStep]).

    Unlike {!Is_cr}, this engine does not decide Church-Rosser; it
    reports the terminal instance of {e one} chasing sequence, or
    the first invalid-but-applicable step it trips over. *)

type policy =
  | First_applicable  (** deterministic: lowest ground-step id first *)
  | Random of Util.Prng.t  (** uniform among currently applicable steps *)

type result =
  | Terminal of Instance.t * int
      (** terminal instance and the number of chase steps applied *)
  | Stuck of { rule : string; reason : string }
      (** an applicable step could not be validly enforced *)
  | Exhausted of { partial : Instance.t; steps : int; trip : Robust.Error.trip }
      (** the budget tripped: the orders and target values deduced
          so far (a sound under-approximation — the chase is
          monotone), the steps applied, and which limit tripped *)

val run :
  ?policy:policy ->
  ?budget:Robust.Budget.t ->
  ?prepare:(Rules.Ground.step list -> Rules.Ground.step list) ->
  Specification.t ->
  result
(** [budget] is charged one unit per applied chase step; when it
    trips the run stops with {!Exhausted} instead of chasing on. [prepare] post-processes the
    ground-step list before the chase — the seam
    {!Robust.Faultinject.drop_steps} plugs into. *)

val chase_sequence : ?policy:policy -> Specification.t -> Rules.Ground.step list
(** The steps applied by one terminal chasing sequence (empty when
    the chase gets stuck immediately). *)
