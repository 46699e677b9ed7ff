(** Accuracy rules (ARs), §2.1.

    Form (1) rules relate two tuples of the entity instance:

    {v φ = ∀ t1, t2 (R(t1) ∧ R(t2) ∧ ω → t1 ⪯_Ai t2) v}

    where ω conjoins (a) comparisons [t1[Al] op t2[Al]],
    (b) comparisons [ti[Al] op c] with [c] a constant or [te[Al]],
    and (c) order atoms [t1 ≺_Al t2] / [t1 ⪯_Al t2].

    Form (2) rules copy master values into the target template:

    {v φ' = ∀ tm (Rm(tm) ∧ ω → te[Ai] = tm[B]) v}

    where ω conjoins [te[Al] = c] and [te[Al] = tm[B']] (we also
    accept [tm[B'] op c], which the paper's example φ6 uses).

    Attributes are referenced by position in the entity schema [R]
    (and master schema [Rm] for form 2). *)

type op = Eq | Neq | Lt | Gt | Leq | Geq

val eval_op : op -> Relational.Value.t -> Relational.Value.t -> bool
(** FO semantics on the value carrier: [Eq]/[Neq] are
    {!Relational.Value.equal}-based (so [null = null] holds, as
    axiom φ7's test requires), the inequalities use domain order and
    are [false] on null or cross-type operands. *)

val negate_op : op -> op
val mirror_op : op -> op
(** [mirror_op o] is the operator [o'] with [x o y ⇔ y o' x]. *)

val pp_op : Format.formatter -> op -> unit

type side = T1 | T2

(** A term of a form (1) predicate. *)
type term =
  | Tuple_attr of side * int  (** [ti\[Al\]] *)
  | Target_attr of int  (** [te\[Al\]] *)
  | Const of Relational.Value.t

(** One conjunct of a form (1) LHS. *)
type pred =
  | Cmp of term * op * term
  | Ord of { strict : bool; left : side; right : side; attr : int }
      (** [t_left ≺_attr t_right] (strict) or [⪯] *)

(** RHS of a form (1) rule: [t_left ⪯_attr t_right] ([≺] if
    [strict]; by Example 3's identity the strict form adds the same
    order pair and additionally requires distinct values). *)
type ord_atom = { strict : bool; left : side; right : side; attr : int }

type form1 = { f1_name : string; f1_lhs : pred list; f1_rhs : ord_atom }

(** One conjunct of a form (2) LHS. *)
type mpred =
  | Te_const of int * op * Relational.Value.t  (** [te\[Al\] op c] *)
  | Te_master of int * int  (** [te\[Al\] = tm\[B'\]] *)
  | Master_const of int * op * Relational.Value.t  (** [tm\[B'\] op c] *)

type form2 = {
  f2_name : string;
  f2_lhs : mpred list;
  f2_te_attr : int;  (** the [Ai] of [te\[Ai\] = tm\[B\]] *)
  f2_tm_attr : int;  (** the [B] *)
}

type t = Form1 of form1 | Form2 of form2

val name : t -> string
val is_form1 : t -> bool
val is_form2 : t -> bool

val validate :
  schema:Relational.Schema.t ->
  master:Relational.Schema.t option ->
  t ->
  (unit, string) result
(** Checks every attribute position is in range and that form (2)
    rules only appear when a master schema exists. *)

val attr_written : t -> int
(** The position the rule concludes about ([Ai]). *)

val pp :
  schema:Relational.Schema.t ->
  ?master:Relational.Schema.t ->
  Format.formatter ->
  t ->
  unit
(** Renders in the concrete syntax accepted by {!Parser}. *)
