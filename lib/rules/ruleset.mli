(** A validated set Σ of accuracy rules over an entity schema [R]
    and optional master schema [Rm]. *)

type t

val make :
  ?include_axioms:bool ->
  schema:Relational.Schema.t ->
  ?master:Relational.Schema.t ->
  Ar.t list ->
  (t, string) result
(** Validates every rule. [include_axioms] (default [true]) appends
    φ7–φ9 for every attribute, per the paper ("axioms that are
    included in any set of ARs"). *)

val make_exn :
  ?include_axioms:bool ->
  schema:Relational.Schema.t ->
  ?master:Relational.Schema.t ->
  Ar.t list ->
  t
(** Raises [Invalid_argument] on a validation error. *)

val schema : t -> Relational.Schema.t
val master_schema : t -> Relational.Schema.t option

val rules : t -> Ar.t list
(** All rules, axioms included (if requested), in order: the axioms
    first, then the user rules. *)

val axioms : t -> Ar.t list
(** The generated axioms ({!Axioms.all}: φ7, φ8, φ9 for each attribute
    in turn), or [[]] without [include_axioms]. They lead {!rules} and
    {!plan}; {!Ground.instantiate} grounds no step of theirs and
    {!Core.Is_cr} applies them itself (DESIGN.md §29). *)

val plan : t -> Plan.t
(** The grounding plan of {!rules}, built by every constructor. *)

val user_rules : t -> Ar.t list
(** Rules excluding the generated axioms. *)

val subsumed : t -> (Ar.t * Ar.t) list
(** Each user rule the grounding plan skips, in order, with the first
    earlier rule that subsumes it ({!Plan.subsumers}): every ground
    step the skipped rule could add is already one of that rule's, so
    Σ says the same without it. *)

val size : t -> int
(** Number of user rules (the ‖Σ‖ that §7 varies — axioms are not
    counted, matching the paper's rule counts). *)

val form1_count : t -> int
val form2_count : t -> int
(** Counts over user rules. *)

val restrict : t -> [ `Form1_only | `Form2_only | `Both ] -> t
(** Keep only user rules of the given form (axioms are retained);
    the ablation switch of Fig. 6(e). *)

val add : t -> Ar.t -> (t, string) result
(** Append one validated user rule. *)

val find : t -> string -> Ar.t option
(** Look up a rule by name. *)

val remove : t -> string -> t
(** Drop a user rule by name (no-op if absent). *)

val pp : Format.formatter -> t -> unit
