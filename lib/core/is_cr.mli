(** Algorithm [IsCR] (Fig. 4): decide whether a specification is
    Church-Rosser and, if so, compute the unique terminal instance
    [(D, te)] — in [O((|Ie|² + |Im|)·|Σ|)] time.

    The algorithm simulates one chasing sequence while checking it
    is {e stable} (Thm. 2): it pre-computes the ground steps Γ
    ({!Rules.Ground.instantiate}), indexes each step's residual
    predicates with a satisfied-counter ([n_φ]) and a
    predicate→steps map ([Φ_δ]), and keeps a worklist [Q] of steps
    whose predicates all fired. Every step popped from [Q] is
    enforced; an enforcement that violates validity (order cycle or
    non-null [te] overwrite, directly or through λ) proves the
    specification is not Church-Rosser. Both event kinds are
    monotone (orders only grow; [te] attributes are write-once), so
    each step is examined exactly once.

    The axioms φ7–φ9, part of every Σ, have no step in the engine's
    Γ: the run queues their steps itself — φ7 and φ9 at the start, φ8
    on each [te] fill — where the worklist met their ground steps, so
    fired steps, traces, verdicts and the rule a conflict is blamed
    on ([axiom7:A], [axiom8:A], [axiom9:A]) are the reference's
    (DESIGN.md §29).

    Form-(2) rules that join the entity's [te] against master data
    compile to {!Rules.Ground.template}s rather than one step per
    master row: each run materializes their steps into its own fork
    of Γ, only when a [te] write produces a join value that hits the
    shared master value index ({!Rules.Master_index}) — per-entity
    work then scales with the entity's {e reachable} master slice. A
    deferred step whose join key never appears could never have
    fired, so verdicts and targets equal those of the naive §2.2
    chase over the literal grounding of Σ, which the test suite keeps
    as its reference oracle (property-tested).

    Two one-shot runs — {!run} and {!run_compiled}, unbudgeted — and
    one run that is kept: a {!state} from {!start}, the only budgeted
    entry point. A state is a drained run kept alive so that later
    [te] assignments continue it, either for good (a kept {!fill}) or
    on trial ({!trial}, the top-k candidate check); a start whose
    budget trips instead reports its partial ({!exhausted}) and cannot
    be resumed. *)

type verdict =
  | Church_rosser of Instance.t
      (** the unique terminal instance; its [te] is the deduced
          target tuple *)
  | Not_church_rosser of { rule : string; reason : string }
      (** a once-valid step of this rule cannot be enforced validly *)

val run : ?trace:(Rules.Ground.step -> unit) -> Specification.t -> verdict
(** [trace] is invoked on every fired step that changed the
    instance, in enforcement order (a terminal chasing sequence). *)

type compiled
(** A specification with its ground steps Γ precomputed. Γ does not
    depend on the initial template (target attributes ground to
    pending predicates), so one compilation serves every
    [check(t, S)] call of the top-k algorithms (§6). Immutable and
    safely shared across runs, entities and domains — materialized
    steps live in per-run state, never here. *)

val compile : Specification.t -> compiled
val compiled_spec : compiled -> Specification.t

val compiled_template_count : compiled -> int
(** Deferred form-(2) templates. *)

val run_compiled :
  ?trace:(Rules.Ground.step -> unit) ->
  ?template:Relational.Value.t array ->
  compiled ->
  verdict
(** Run the chase from scratch with the given initial template
    (default: the specification's own). *)

val check : compiled -> Relational.Value.t array -> bool
(** [check c t] — is the complete tuple [t] a candidate target
    (§3)? Runs the chase with [t] as initial template; since [t] is
    complete, the chase can only confirm it, so [t] is a candidate
    target iff the run is Church-Rosser. Raises [Invalid_argument]
    if [t] has a null attribute. *)

type state
(** One drained chase that later [te] assignments resume — the
    user fills of Fig. 3 and the candidate checks of §6 are the same
    operation on it. The chase is monotone (orders only grow, [te]
    attributes are write-once), so an assignment is just one more
    event into the same index, and a state with fills [F] equals a
    from-scratch run with the template enlarged by [F]
    (property-tested). It resumes in two ways:

    - a {e kept} {!fill} stays, moving the state forward;
    - a {e trial} ({!trial}) fills every null attribute from a
      complete candidate, drains, and rolls back through an undo log,
      so one state answers any number of candidate checks. A rejected
      candidate leaves a {e nogood} behind (see {!nogoods}), so later
      candidates containing it are answered without a chase.

    Kept fills and trials interleave freely: the first trial after a
    kept fill takes the new kept state as its base. Not domain-safe: a
    state mutates during every call; confine it to one domain. *)

val start :
  ?trace:(Rules.Ground.step -> unit) ->
  ?budget:Robust.Budget.t ->
  ?template:Relational.Value.t array ->
  compiled ->
  state
(** Chase to the fixpoint from the given template (default: the
    specification's own). If that fixpoint is not Church-Rosser, the
    state records the conflict. Top-k starts from the all-null
    template, which is the candidate-independent part of every
    [check]. [trace] is {!run}'s, for this drain only.

    [budget] meters this drain: one unit per fired step, so a ground
    step that never fires costs nothing (DESIGN.md §30). When the
    meter trips, the drain stops and the state is {e exhausted}
    ({!exhausted}): it has no conflict, {!te} reads its partial
    target, and {!fill}, {!trial} and {!null_base} refuse it. Later
    fills and trials of a state that did not trip run unbudgeted;
    top-k meters its deadline once per frontier pop instead. *)

type exhausted = { partial : Instance.t; fired : int; trip : Robust.Error.trip }
(** A start whose budget tripped mid-drain: [partial] holds every
    order edge and target value deduced so far (sound — the chase
    only ever grows them), [fired] the steps enforced and [trip] the
    limit that ran out. *)

val exhausted : state -> exhausted option

val null_base : ?state:state -> compiled -> state Lazy.t
(** The state every top-k check of [compiled] resumes: the fixpoint
    from the all-null template. Given [state] — a caller that has
    already drained that fixpoint, as the cleaner does before top-1
    completion — it is that state, so the chase is not drained twice;
    otherwise a fresh {!start} from the all-null template, run when
    the result is first forced. Raises [Invalid_argument] when
    [state] was started from another compiled specification, from a
    template with a non-null cell, has taken a kept {!fill} or is
    {!exhausted}. *)

val conflict : state -> (string * string) option
(** [Some (rule, reason)] once the state is not Church-Rosser: set by
    {!start} or by a kept {!fill}, never by a trial. *)

val te : state -> Relational.Value.t array
(** The kept state's deduced target (a copy). *)

val fill :
  state ->
  (int * Relational.Value.t) list ->
  (unit, string * string) result
(** A kept fill: assign target attributes and continue the chase.
    The whole list is validated first — a null value or an attribute
    out of range raises [Invalid_argument] and leaves the state
    untouched. [Error] when a fill contradicts a deduced value (rule
    ["user-fill"]) or the continuation hits a conflict; the state
    then records the conflict, and a further [fill] raises
    [Invalid_argument], as does any [fill] of an {!exhausted} state.
    An empty list is allowed. *)

val trial : state -> Relational.Value.t array -> bool
(** A trial check of a complete candidate [t] that agrees with
    {!te}: same answer as [check compiled t] (property-tested),
    leaving the state as it was. A candidate disagreeing with a
    non-null entry of {!te} is rejected outright, as is every
    candidate once the state conflicts. Otherwise the cost depends on
    what the state has learned: a candidate containing a stored
    nogood costs no chase; any other costs a delta proportional to
    what its fills wake up, plus, when it is rejected, a few partial
    deltas to learn its nogood. Raises [Invalid_argument] if [t] has
    a null attribute or the state is {!exhausted}. *)

val nogoods : state -> (int * Relational.Value.t) list list
(** The nogoods learned so far, each as its (attribute, value) fills
    in ascending attribute order, spelled as in the candidate it was
    learned from: the state they were learned at conflicts with just
    these fills, and with any one of them left out it does not. A
    candidate contains a nogood when it holds [Value.equal] values on
    all of its attributes. *)
