(** The accuracy order [⪯_A] of one attribute of an entity instance
    (§2.1), represented over *value classes*.

    §2.1 defines [≺_A] as a strict partial order on the A-attribute
    values of [Ie], and axiom φ9 makes equal-valued tuples
    order-equivalent, so we quotient the tuples of [Ie] by their
    A-value: each distinct value is a class, [≺] is a strict order
    over classes ({!Poset}), and at tuple level

    - [t1 ⪯_A t2] iff same class, or class edge;
    - [t1 ≺_A t2] iff distinct classes and class edge

    which is literally the paper's "[t1 ≺_A t2] iff [t1 ⪯_A t2] and
    [t1\[A\] ≠ t2\[A\]]". A validity violation of §2.2 (mutual [⪯]
    between distinct values) is exactly a {!Poset} cycle. *)

type t

type numbering
(** The value-class numbering of one column — tuple→class map, class
    values and class members — without any order state. A pure
    function of the column, so one numbering can back every fresh
    order (and every ground-step compilation) over the same entity
    relation without rehashing the values. Immutable; safe to share
    across instances and domains. *)

type add_result =
  | No_change  (** already implied (same class or existing edge) *)
  | Extended of (int * int) list
      (** new strict class pairs added by transitive closure *)
  | Conflict  (** would order two distinct values both ways *)

val numbering_of_column : Relational.Value.t array -> numbering

val of_numbering : numbering -> t
(** A fresh edge-free order over an existing numbering (shared, not
    copied). *)

val numbering : t -> numbering
(** The numbering underlying an order. *)

val numbering_tuples : numbering -> int
val numbering_classes : numbering -> int
val numbering_class_of_tuple : numbering -> int -> int
val numbering_class_value : numbering -> int -> Relational.Value.t

val numbering_tuple_classes : numbering -> int array
(** Every tuple's class, by tuple index: the numbering's own array,
    shared. Do not mutate. *)

val numbering_majority :
  ?weight:(Relational.Value.t -> float) -> numbering -> Relational.Value.t
(** The column's heaviest non-null value class, a tie going to the
    least value by {!Relational.Value.compare}, spelled as the class's
    first occurrence; [Null] when the column is all null. A class
    weighs [weight v] at its spelling [v], by default its size (the
    occurrence count, {!Relational.Value.equal} classes counted). This
    is the vote of [Truth.Voting.resolve]. *)

val of_column : Relational.Value.t array -> t
(** Build the empty order from the A-column of [Ie] (tuple order
    defines tuple indices). [of_column c] is
    [of_numbering (numbering_of_column c)]. *)

val num_tuples : t -> int
val num_classes : t -> int

val class_of_tuple : t -> int -> int
val class_value : t -> int -> Relational.Value.t
val class_of_value : t -> Relational.Value.t -> int option
val tuples_of_class : t -> int -> int list

val leq_tuples : t -> int -> int -> bool
(** [t1 ⪯_A t2] at tuple level. *)

val lt_tuples : t -> int -> int -> bool
(** [t1 ≺_A t2] at tuple level. *)

val lt_classes : t -> int -> int -> bool

val add_tuples : t -> int -> int -> add_result
(** Assert [t1 ⪯_A t2] (the RHS of a form (1) AR). Same class ⇒
    [No_change]. *)

val add_classes : t -> int -> int -> add_result

val remove_classes : t -> int -> int -> unit
(** Undo one strict class pair previously reported by
    {!add_result.Extended} — see {!Poset.remove_pair} for the
    batch-undo contract. *)

val greatest : t -> Relational.Value.t option
(** The value [v] such that every tuple [t'] satisfies [t' ⪯_A t]
    for the tuples [t] with [t\[A\] = v] — the paper's [λ] — if it
    exists. *)

val strict_pair_count : t -> int
(** Number of strict class pairs currently derived. *)

val copy : t -> t

val pp : Format.formatter -> t -> unit
