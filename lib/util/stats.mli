(** Small descriptive-statistics helpers for the experiment drivers. *)

val mean : float array -> float
(** Arithmetic mean; [nan] on an empty array. *)

val variance : float array -> float
(** Population variance; [nan] on an empty array. *)

val stddev : float array -> float
(** Population standard deviation. *)

val median : float array -> float
(** Median (average of middle two for even sizes); input is not
    modified. [nan] on an empty array. *)

val percentile : float array -> float -> float
(** [percentile xs p] with [p] in [\[0, 100\]], nearest-rank with
    linear interpolation. *)

val minimum : float array -> float
val maximum : float array -> float

type online
(** Welford online accumulator for the mean without storing
    samples. *)

val online_create : unit -> online
val online_add : online -> float -> unit
val online_mean : online -> float
