(** Execution budgets: chase-step caps and wall-clock deadlines.

    A {!limits} value is a declarative description (what the CLI
    flags produce); {!start} arms it into a mutable meter that the
    engines charge as they work. Once any dimension trips, the meter
    stays tripped — engines observe this and return a tagged
    {e partial} result instead of spinning. All charge operations
    are O(1); a meter with no deadline never reads the clock.

    The meter charges work that happens — a fired chase step, a
    frontier pull — never the size of Γ: a ground step that never
    fires costs a budgeted run nothing (DESIGN.md §30). *)

type limits = {
  max_steps : int option;  (** chase steps / frontier pulls *)
  deadline_ms : float option;  (** monotonic-clock, relative to {!start} *)
}

val unlimited : limits

val limits : ?max_steps:int -> ?deadline_ms:float -> unit -> limits
(** Raises [Invalid_argument] on a negative cap. *)

val is_unlimited : limits -> bool

val relax : ?factor:int -> limits -> limits
(** Multiply every set cap by [factor] (default 4) — the bounded
    retry policy for transient exhaustion. Saturates at [max_int]. *)

type t
(** An armed meter. Meters are plain mutable state, {e not}
    domain-safe: arm one per unit of work, on the domain doing that
    work, and never share it. The {!Framework.Cleaner} honours this
    by calling {!start} per entity {e inside} the worker — the
    [limits] value (immutable) is what crosses domains. *)

val start : ?clock:(unit -> float) -> limits -> t
(** Arm the limits. The deadline is measured against the
    {e monotonic} clock ({!Util.Timing.mono_ms}), so wall-clock
    adjustments (NTP steps) in a long-lived process can neither
    spuriously trip nor silently extend it. [clock] overrides the
    source {e for tests only} — it must be non-decreasing. *)

val step : t -> Error.trip option
(** Charge one unit of work; [Some trip] once exhausted (sticky). *)

val check : t -> Error.trip option
(** Deadline / sticky-trip check without charging work. *)

val tripped : t -> Error.trip option
val steps_used : t -> int
val limits_of : t -> limits
val elapsed_ms : t -> float

val to_error : ?detail:string -> t -> Error.t
(** The {!Error.Budget_exhausted} report for a tripped meter. *)
