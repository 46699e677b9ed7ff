(** Concrete text syntax for accuracy rules.

    One rule per [rule] keyword; [#] starts a line comment. Form (1)
    rules quantify [t1, t2]; form (2) rules quantify [tm]. Examples
    (φ1, φ2 and φ6 of Table 3):

    {v
    rule phi1: forall t1, t2 in stat:
      t1.league = t2.league and t1.rnds < t2.rnds -> t1 <[rnds] t2
    rule phi2: forall t1, t2: t1 <[rnds] t2 -> t1 <="J#"] t2   # or <=["J#"]
    rule phi6: forall tm in nba:
      te.FN = tm.FN and te.LN = tm.LN and tm.season = "1994-95"
      -> te.league := tm.league; te.team := tm.team
    v}

    Grammar sketch:
    - predicates: [term op term] with op one of [= != <> < > <= >=],
      or order atoms [t1 <[A] t2] / [t1 <=[A] t2];
    - terms: [t1.A], [t2.A], [te.A], [tm.B], string/int/float
      literals, [true], [false], [null];
    - conjunction: [and] (or [/\]); an empty LHS is written [true];
    - a form (2) RHS may list several [te.A := tm.B] assignments
      separated by [;]; the rule is expanded into one AR per
      assignment, named [name#k];
    - attribute names that are not plain identifiers are written as
      string literals: [t1."J#"];
    - the optional [in <name>] after the quantifier is checked
      against the corresponding schema name when present. *)

val parse_robust :
  schema:Relational.Schema.t ->
  ?master:Relational.Schema.t ->
  ?file:string ->
  string ->
  (Ar.t list, Robust.Error.t) result
(** Parses any number of rules; errors are typed
    {!Robust.Error.Rule_parse} values carrying the file (when given)
    and the 1-based line of the offending token. *)

val parse :
  schema:Relational.Schema.t ->
  ?master:Relational.Schema.t ->
  string ->
  (Ar.t list, string) result
(** {!parse_robust} with errors rendered to text. *)

val parse_exn :
  schema:Relational.Schema.t ->
  ?master:Relational.Schema.t ->
  string ->
  Ar.t list

val parse_file_robust :
  schema:Relational.Schema.t ->
  ?master:Relational.Schema.t ->
  string ->
  (Ar.t list, Robust.Error.t) result
(** Reads and parses a rule file; unreadable files surface as
    {!Robust.Error.Io} instead of an exception. *)

val to_string :
  schema:Relational.Schema.t ->
  ?master:Relational.Schema.t ->
  Ar.t list ->
  string
(** Renders rules back to parseable text (inverse of {!parse} up to
    formatting; [parse ∘ to_string] is the identity on rule ASTs —
    property-tested). *)
