(** Rule-set revision support for Fig. 3's "No" branch: when a
    specification is not Church-Rosser, the user "is invited to
    revise S" — this module computes concrete suggestions.

    A {e culprit set} is a set of user rules whose removal makes the
    specification Church-Rosser. The suggester runs an
    iterative-deepening search over blame. Below a depth bound [d],
    it runs [IsCR] on the specification minus the rules dropped so
    far; while that is not Church-Rosser and fewer than [d] rules
    are dropped, it tries dropping each candidate in turn and
    recurses. The candidates at a conflict are the blamed user rule
    first, then every other user rule that writes the same
    attribute; axioms are never dropped (they are part of every rule
    set), so a conflict blamed on an axiom offers only those writers.
    The bound [d] rises from 1 to [max_drops], so every drop set of
    size [d] the blame reaches is tried before any of size [d + 1],
    and a smallest such set is found first. The result is then
    {e minimized}: each dropped rule is re-added if the specification
    stays Church-Rosser without dropping it.

    Example 6's S′ yields exactly [{φ12}] — the rule the paper says
    must be revised. *)

type outcome = {
  drop : string list;  (** user-rule names whose removal restores CR *)
  spec : Core.Specification.t;  (** the revised, Church-Rosser spec *)
}

val suggest : ?max_drops:int -> Core.Specification.t -> outcome option
(** [None] when the specification is already Church-Rosser, or when
    no Church-Rosser subset is found within [max_drops] (default 10)
    removals. The returned drop set is minimal w.r.t. re-adding
    single rules (an irredundant, not necessarily minimum, set). *)

val is_culprit_set : Core.Specification.t -> string list -> bool
(** Does removing exactly these user rules make the specification
    Church-Rosser? *)
