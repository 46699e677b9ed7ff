(** Tuples: a value per schema position, plus provenance metadata.

    Provenance ([source], [snapshot]) is irrelevant to the chase
    itself but carried for the truth-discovery baselines (§7):
    [copyCEF] needs to know which data source produced a tuple, and
    the Rest workload orders observations by weekly snapshot. *)

type t

val make : ?tid:int -> ?source:int -> ?snapshot:int -> Value.t array -> t
(** Builds a tuple over (a defensive copy of) the value array.
    Defaults: [tid = -1], [source = 0], [snapshot = 0]. *)

val unsafe_make : ?tid:int -> Value.t array -> t
(** {!make} without the copy, at [source = 0] and [snapshot = 0]: the
    tuple takes the array itself, which the caller must never mutate
    afterwards. For loaders that fill a fresh array per row. *)

val arity : t -> int
val get : t -> int -> Value.t
val values : t -> Value.t array

val tid : t -> int
(** Caller-assigned identifier (position in its entity instance, by
    convention). *)

val source : t -> int
val snapshot : t -> int

val set : t -> int -> Value.t -> t
(** Functional update of one position. *)

val with_tid : t -> int -> t

val equal_values : t -> t -> bool
(** Position-wise {!Value.equal}; ignores provenance. *)

val compare_values : t -> t -> int
(** Lexicographic {!Value.compare}; ignores provenance. *)

val pp : Schema.t -> Format.formatter -> t -> unit
(** [(attr=v, ...)] rendering against a schema. *)
