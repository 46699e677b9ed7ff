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

    Form-(2) rules that join the entity's [te] against master data
    compile to {!Rules.Ground.template}s rather than one step per
    master row: each run materializes their steps into its own fork
    of Γ, only when a [te] write produces a join value that hits the
    shared master value index ({!Rules.Master_index}) — per-entity
    work then scales with the entity's {e reachable} master slice. A
    deferred step whose join key never appears could never have
    fired, so verdicts and targets equal those of the naive
    {!Chase} over the full reference Γ (property-tested). *)

type verdict =
  | Church_rosser of Instance.t
      (** the unique terminal instance; its [te] is the deduced
          target tuple *)
  | Not_church_rosser of { rule : string; reason : string }
      (** a once-valid step of this rule cannot be enforced validly *)

type stat = {
  ground_steps : int;  (** |Γ| *)
  fired_steps : int;  (** steps whose LHS was eventually satisfied *)
  changed_steps : int;  (** fired steps that changed the instance *)
}

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

type budgeted =
  | Verdict of verdict
  | Exhausted of { partial : Instance.t; fired : int; trip : Robust.Error.trip }
      (** the budget tripped mid-drain: [partial] holds every order
          edge and target value deduced so far (sound — the chase
          only ever grows them), [fired] the steps enforced *)

val run_budgeted :
  ?trace:(Rules.Ground.step -> unit) ->
  ?template:Relational.Value.t array ->
  budget:Robust.Budget.t ->
  compiled ->
  budgeted
(** {!run_compiled} under a {!Robust.Budget.t} — the only budgeted
    entry point: the compiled Γ is charged as instantiations up
    front, each step materialized during the run as one more
    instantiation, and one unit per fired step. Instead of spinning
    past the limits, the run returns the partial instance with the
    tripped dimension. Snapshot checks and sessions drain unbudgeted;
    top-k meters its deadline once per frontier pop instead. *)

val check : compiled -> Relational.Value.t array -> bool
(** [check c t] — is the complete tuple [t] a candidate target
    (§3)? Runs the chase with [t] as initial template; since [t] is
    complete, the chase can only confirm it, so [t] is a candidate
    target iff the run is Church-Rosser. Raises [Invalid_argument]
    if [t] has a null attribute. *)

type snapshot
(** The candidate-independent part of {!check}, computed once: the
    chase fixpoint from the ALL-NULL template (every [check] replaces
    the template, so the specification's own template never
    contributes). A candidate check {e resumes} this fixpoint by
    assigning the candidate's attribute values as fills and draining
    only the steps those assignments wake up, then rolls the shared
    state back through an undo log — so one snapshot answers any
    number of [check] calls.

    A snapshot also {e learns}: each rejected candidate leaves behind a
    {e nogood}, a deletion-minimal subset of its fills that still
    conflicts at the base fixpoint (found by partial deltas that fill
    only some attributes). The chase state only grows with the fills,
    so every later candidate containing a stored nogood is rejected
    without a delta. Not domain-safe: a snapshot mutates shared state
    during each check; confine it to one domain. *)

val snapshot : compiled -> snapshot
(** Build the base fixpoint (one full drain; every later check is a
    delta, a stored nogood or a forced-value mismatch). If the base
    itself conflicts, the conflicting steps fire under {e every}
    template, so the snapshot answers all checks with [false]
    outright. *)

val snapshot_compiled : snapshot -> compiled

val snapshot_base_cr : snapshot -> bool
(** Whether the base fixpoint is Church-Rosser. *)

val snapshot_base_te : snapshot -> Relational.Value.t array
(** The target template at the base fixpoint: values forced by the
    rules alone. A candidate disagreeing with any non-null entry is
    rejected without running a delta. *)

val snapshot_nogoods : snapshot -> (int * Relational.Value.t) list list
(** The nogoods learned so far, each as its (attribute, value) fills
    in ascending attribute order, spelled as in the candidate it was
    learned from: the base fixpoint with just these fills conflicts,
    and with any one of them left out it does not. A candidate
    contains a nogood when it holds [Value.equal] values on all of
    its attributes. *)

val check_snapshot : snapshot -> Relational.Value.t array -> bool
(** Same answer as [check (snapshot_compiled z)] (property-tested).
    The cost depends on what the snapshot has learned: a candidate
    containing a stored nogood, or disagreeing with a forced value,
    costs no chase; otherwise a delta proportional to what the
    candidate's fills wake up, plus, when it is rejected, a few
    partial deltas to learn its nogood. Raises [Invalid_argument] if
    the tuple has a null attribute. *)

type session
(** An {e incremental} chase: the terminal state of one run, kept
    alive so that later target-template assignments (the user fills
    of Fig. 3) continue the chase from where it stopped instead of
    re-chasing from scratch. Sound because the chase state is
    monotone — orders only grow and [te] attributes are write-once —
    so a fill is just one more event into the same index. The result
    always equals a from-scratch run with the enlarged template
    (property-tested). *)

val session_start :
  ?template:Relational.Value.t array ->
  compiled ->
  (session, string * string) result
(** Chase to the terminal instance; [Error (rule, reason)] when the
    specification is not Church-Rosser. *)

val session_te : session -> Relational.Value.t array
(** Current deduced target. *)

val session_complete : session -> bool
val session_null_attrs : session -> int list

val session_fill :
  session ->
  (int * Relational.Value.t) list ->
  (unit, string * string) result
(** Assign target attributes (non-null values only — raises
    [Invalid_argument] otherwise) and continue the chase. [Error]
    when a fill contradicts a deduced value or the continuation hits
    a conflict; the session is then {e broken} and any further
    [session_fill] raises. An empty fill list is allowed (a no-op
    drain). *)

val run_stat : Specification.t -> verdict * stat

val is_church_rosser : Specification.t -> bool
