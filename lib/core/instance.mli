(** An accuracy instance [(D, te^D)] (§2.2): the entity instance
    equipped with one accuracy order per attribute, plus the target
    tuple template, with the chase-step enforcement semantics
    (including the λ update and the validity conditions). *)

type t

(** Events produced by a successful enforcement; the chase engines
    feed them back into their predicate indices. *)
type event =
  | Edge of { attr : int; c1 : int; c2 : int }
      (** strict class pair newly added to the attr's order *)
  | Te_set of { attr : int; value : Relational.Value.t; vid : int }
      (** target attribute instantiated (value is non-null); [vid] is
          the value's id in the specification's intern table, so
          engines can test compiled equality constraints without
          re-hashing the value *)

(** Result of enforcing one ground action. *)
type outcome =
  | Unchanged  (** not a chase step: the instance is unaffected *)
  | Changed of event list
  | Invalid of { reason : string; applied : event list }
      (** the step would violate validity: an order cycle between
          distinct values, or a change to a non-null [te] attribute
          (directly or through λ). [applied] lists the events that
          mutated the instance before the violation surfaced (a
          failed [Add_order] may extend the order before λ detects
          the clash) — callers that roll back must {!undo_event}
          them; one-shot engines can ignore them and stop. *)

val init : Specification.t -> t
(** [D0] with the specification's initial template; accuracy orders
    are empty. *)

val relation : t -> Relational.Relation.t
val schema : t -> Relational.Schema.t
val order : t -> int -> Ordering.Attr_order.t

val te : t -> Relational.Value.t array
(** Snapshot of the current target template. *)

val te_value : t -> int -> Relational.Value.t

val te_id : t -> int -> int
(** Interned id of [te\[a\]] in the specification's shared table;
    [Intern.null_id] while the cell is null. *)

val te_complete : t -> bool
(** No null attribute remains in the template. *)

val null_attrs : t -> int list
(** Template positions still null (the [Z] of §6). *)

val apply : t -> Rules.Ground.action -> outcome
(** Enforce a ground action:
    - [Add_order]: extend the attribute's order (transitively
      closed), then apply λ — if the order now has a greatest
      {e non-null} value [v], set [te\[A\] := v] when null, no-op
      when equal, and fail as [Invalid] when [te\[A\]] holds a
      different non-null value (a null greatest carries no
      information and never constrains);
    - [Refresh]: λ only (the effect of a same-value-class order
      assertion such as axiom φ9's);
    - [Assign]: set [te\[A\]] from master data — no-op when equal,
      [Invalid] when a different non-null value is present.

    [Invalid] leaves the instance unchanged except that a failed
    [Add_order] may have recorded the extension before λ detection —
    such events are reported in the [applied] payload. *)

val undo_event : t -> event -> unit
(** Reverse one previously applied event: a [Te_set] resets the
    attribute to null (te is write-once, so null is always the prior
    state), an [Edge] removes the strict class pair. Undoing every
    event of a suffix of the event stream — in any order — restores
    the instance to its state before that suffix. *)

val leq : t -> int -> int -> int -> bool
(** [leq inst attr t1 t2] — current [t1 ⪯_A t2] at tuple level. *)

val lt : t -> int -> int -> int -> bool

val copy : t -> t

val pp : Format.formatter -> t -> unit
