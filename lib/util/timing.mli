(** Timing helpers for the experiment drivers and the bench harness
    (the figure-series printers report milliseconds like §7). All of
    them read the monotonic clock. *)

val mono_ms : unit -> float
(** [CLOCK_MONOTONIC] milliseconds since an arbitrary origin.
    Strictly non-decreasing within a process; immune to wall-clock
    adjustments. The clock {!Robust.Budget} deadlines are armed
    against. Only differences are meaningful. *)

val time_ms : (unit -> 'a) -> 'a * float
(** [time_ms f] runs [f ()] once and returns its result with the
    elapsed time in milliseconds, on the {!mono_ms} clock. *)

val best_of : int -> (unit -> 'a) -> 'a * float
(** [best_of n f] runs [f] [n] times and returns the last result with
    the minimum elapsed milliseconds, damping scheduler noise.
    Requires [n >= 1]. *)
