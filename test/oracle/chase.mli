(** Reference chase: the operational semantics of §2.2, implemented
    naively (re-scan Γ for an applicable valid step, apply it,
    repeat), with a pluggable step-selection policy.

    It chases the literal grounding of Σ ({!Literal_ground}), axioms
    included, and shares nothing with the engine's grounding. It
    exists for three reasons:
    - it is the executable definition the efficient {!Core.Is_cr} is
      differentially tested against (any two policies must agree on
      the terminal instance of a Church-Rosser specification, and
      must agree with {!Core.Is_cr});
    - randomized policies give empirical evidence for / counter-
      examples to the Church-Rosser property (Example 6);
    - it is the baseline of the index-ablation bench (naive rescan
      is O(|Γ|) per step, vs Fig. 4's O(1) [NextStep]).

    Unlike {!Core.Is_cr}, this engine does not decide Church-Rosser; it
    reports the terminal instance of {e one} chasing sequence, or
    the first invalid-but-applicable step it trips over. *)

type policy =
  | First_applicable  (** deterministic: lowest ground-step id first *)
  | Random of Util.Prng.t  (** uniform among currently applicable steps *)

type result =
  | Terminal of Core.Instance.t * int
      (** terminal instance and the number of chase steps applied *)
  | Stuck of { rule : string; reason : string }
      (** an applicable step could not be validly enforced *)
  | Exhausted of { partial : Core.Instance.t; steps : int; trip : Robust.Error.trip }
      (** the budget tripped: the orders and target values deduced
          so far (a sound under-approximation — the chase is
          monotone), the steps applied, and which limit tripped *)

val run :
  ?policy:policy ->
  ?budget:Robust.Budget.t ->
  ?prepare:(Rules.Ground.step list -> Rules.Ground.step list) ->
  Core.Specification.t ->
  result
(** [budget] is charged one unit per applied chase step; when it
    trips the run stops with {!Exhausted} instead of chasing on. [prepare] post-processes the
    ground-step list before the chase — the seam
    {!Robust.Faultinject.drop_steps} plugs into. *)

val chase_sequence : ?policy:policy -> Core.Specification.t -> Rules.Ground.step list
(** The steps applied by one terminal chasing sequence (empty when
    the chase gets stuck immediately). *)

val versus_is_cr : Core.Specification.t -> (Relational.Value.t array option, string) Stdlib.result
(** The differential check: {!Core.Is_cr}'s verdict against {!run}'s.
    Church-Rosser means every chasing sequence ends in the same
    terminal instance, so this chase must reach it: [Ok (Some te)]
    with the common target, or [Error] naming the disagreement (a
    stuck sequence, another target). [Is_cr] may reject a
    specification on which one particular sequence happens to
    terminate, so a rejection is [Ok None] whatever this chase
    reports. *)
