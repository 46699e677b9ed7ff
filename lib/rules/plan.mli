(** The grounding plan of a ruleset: everything {!Ground.instantiate}
    needs that does not depend on the entity, compiled once per
    {!Ruleset.t} (DESIGN.md §18).

    Per rule, in {!Ruleset.rules} order, the plan holds a {!recipe}:
    guards and residuals over dense {e shape}, {e matrix},
    {e read-set} and {e side} ids shared across rules, packed
    residual bases (an attribute and an operator, with the value or
    class id or-ed in per entity), and indices into {!consts}, the
    ruleset's distinct constants. Instantiation then interns those few
    constants, builds one tuple bitset per distinct shape and read set,
    one representative list per side, and runs each recipe's pair
    loop.

    The plan is immutable and built eagerly — never a [Lazy.t], which
    two domains forcing at once would break — so one plan serves every
    entity on every domain. *)

(** {2 Packed words}

    Every residual predicate and every action of a ground step packs
    into one non-negative 61-bit word over value-class ids and
    interned value ids. Layout: tag(3) | attr(12) | x(23) | y(23),
    where x/y carry value class ids, interned value ids, or an
    operator tag. *)

val bits_xy : int
val max_xy : int
val max_attr : int

val check_master_ids : master:string -> int -> unit
(** [check_master_ids ~master n] — the guard {!Master_index} applies
    each time a fill leaves the master generation of relation [master]
    with [n] ids (one per distinct value, null included): raises
    [Invalid_argument], naming [master], when [n] reaches {!max_xy},
    since entity generations number on from [n] and a packed word
    holds only ids below {!max_xy}. *)

val tag_ord : int
(** Predicate [P_ord]: x = c1, y = c2. *)

val tag_te : int
(** Predicate [P_te]: x = operator tag, y = interned value id. *)

val tag_add : int
(** Action [Add_order]: x = c1, y = c2. *)

val tag_refresh : int
(** Action [Refresh]. *)

val tag_assign : int
(** Action [Assign]: y = interned value id. *)

val pack : tag:int -> attr:int -> x:int -> y:int -> int
(** Raises [Invalid_argument] when a field exceeds its range. *)

val unpack_tag : int -> int
val unpack_attr : int -> int

val unpack_x : int -> int
(** c1 of a [P_ord] word; the operator tag of a [P_te] word. *)

val unpack_y : int -> int
(** c2 of a [P_ord] word; the interned value id of a [P_te] word. *)

val op_tag : Ar.op -> int
val op_of_tag : int -> Ar.op

val unpack_op : int -> Ar.op
(** The operator of a [P_te] word. *)

val ord_key : attr:int -> c1:int -> c2:int -> int
(** The word of [P_ord { attr; c1; c2 }], or [-1] (no word) outside
    the packed ranges: the key a chase event rebuilds. *)

val te_eq_key : attr:int -> vid:int -> int
(** The word of the [P_te] equality [te\[attr\] = v] with [v]
    interned as [vid], or [-1] outside the packed ranges. *)

(** {2 Recipes} *)

(** A single-sided guard: a test over one tuple's values, tabulated
    per entity into a bitset over tuples. *)
type shape =
  | Sh_const of { attr : int; op : Ar.op; const : int }
      (** [t\[attr\] op consts.(const)] ([c op t\[A\]] is stored
          mirrored) *)
  | Sh_attrs of { a : int; op : Ar.op; b : int }  (** [t\[a\] op t\[b\]] *)

type mat = { ia : int; op : Ar.op; ja : int }
(** A two-sided compare on the pair [(i, j)]: [ti\[ia\] op tj\[ja\]],
    tabulated per entity over class pairs. *)

(** A two-sided guard. *)
type cross =
  | X_cls_eq of int  (** same attribute, equal classes *)
  | X_cls_neq of int
  | X_mat of int  (** id into {!mats} *)

(** A residual predicate. *)
type res =
  | R_const of { base : int; const : int }  (** [base lor vid(consts.(const))] *)
  | R_te of { side : Ar.side; base : int; read : int }
      (** [base lor] the interned id of the [side] tuple's [read] value *)
  | R_ord of { strict : bool; left : Ar.side; right : Ar.side; base : int; attr : int }
      (** an order atom: the class pair on [attr], or nothing on one
          class (the step is dropped if [strict]) *)

type form1 = {
  name : string;
  side1 : int;  (** id into {!sides} for the T1 tuple *)
  side2 : int;
  cross : cross array;  (** two-sided guards, predicate order *)
  res : res array;  (** residuals, predicate order *)
  rhs : Ar.ord_atom;
}

(** A form-(2) residual item: a static [te] test, or a join against a
    master column. *)
type item = I_static of { base : int; const : int } | I_join of { attr : int; col : int }

type form2 = {
  f2_name : string;
  tests : (int * Ar.op * Relational.Value.t) list;  (** [Master_const] selections *)
  select : (int * Relational.Value.t) option;
      (** the first [Master_const (b, Eq, c)]: rows come from the
          master index *)
  items : item array;  (** residual recipe, [f2_lhs] order *)
  te_attr : int;
  tm_attr : int;
  join : (int * int) option;  (** the first [Te_master]: a template's trigger *)
}

type recipe =
  | Form1 of form1
  | Dead  (** a constant predicate folds to false: no step *)
  | Invalid of string
      (** outside the packed ranges or the paper's grammar;
          grounding the rule raises [Invalid_argument] with this
          message *)
  | Form2 of form2

type t

val make : Ar.t list -> t
(** The plan of a rule list (axioms included), in order. *)

val rules : t -> Ar.t array
val recipes : t -> recipe array

val consts : t -> Relational.Value.t array
(** Distinct constants of the rules' predicates, up to
    [Value.compare]. *)

val master_cols : t -> int array
(** The master columns whose value ids the rules read, ascending: each
    form-(2) rule's copied column and the columns its [Te_master]
    conjuncts join on — what grounding, the top-k active domains and
    session affectedness compare as ids. ([Master_const] selections
    compare values.) *)

val shapes : t -> shape array
val mats : t -> mat array

val read_sets : t -> int array array
(** Sorted attribute sets a tuple variable reads. *)

val sides : t -> (int * int array) array
(** A tuple variable's (read set id, sorted shape ids): its
    representatives, filtered by those shapes' tables. *)

val subsumers : t -> int array array
(** Per rule, the indices of the earlier form-(1) rules that subsume
    it, ascending. Rule [r] subsumes a later [r'] when both conclude
    the same order atom from an equal residual recipe, [r]'s
    two-sided guards are among [r']'s, and on each tuple variable
    [r]'s shapes are among [r']'s (so its read sets are inside
    [r']'s too). Every candidate
    step of [r'] is then one [r] has already offered, so a grounding
    that also grounds one of [r']'s subsumers skips [r'] without
    changing Γ (DESIGN.md §27). *)
