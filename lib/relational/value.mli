(** Attribute values.

    The paper's model is untyped first-order logic over attribute
    domains with a distinguished [null]; we provide the obvious typed
    carrier. Comparisons across different runtime types are resolved
    by a fixed type ordering so that every pair of values is
    comparable (needed for deterministic heaps), but the rule
    evaluator treats cross-type [<]/[>] tests as false, mirroring the
    standard semantics where predicates range over a single domain. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string

val null : t
val is_null : t -> bool

val equal : t -> t -> bool
(** Structural equality. [Null] equals only [Null]; note that the
    paper's rule predicates ([=], [<>]) never match on null operands
    — see {!Rules.Predicate} — this is plain equality of the carrier.
    Mixed [Int]/[Float] pairs are equal exactly when they denote the
    same number ([equal a b] iff [compare a b = 0]). *)

val compare : t -> t -> int
(** Total order: [Null] < [Bool] < [Int]/[Float] < [String], with
    the natural order within each type. Ints and floats are compared
    numerically against each other, {e exactly} (no float-conversion
    rounding, so the order stays transitive beyond 2^53); the zeroes
    [Float (-0.)], [Int 0] and [Float 0.] are one value, as
    [Float.compare] treats [-0.] and [0.], and [Float nan] sorts below
    every number, again as in [Float.compare]. [compare a b = 0]
    exactly when [equal a b]. *)

val lt : t -> t -> bool
(** Domain less-than: numeric for [Int]/[Float] (mixed allowed,
    exact), lexicographic for [String], [false <. true] for [Bool];
    [false] when either side is [Null] or the types are otherwise
    mixed, and [false] on any comparison against [Float nan]. *)

val hash : t -> int
(** Consistent with {!compare}: [compare a b = 0] implies
    [hash a = hash b] — in particular every integral float in the
    63-bit int range hashes as the equal int, so value-keyed
    hashtables never split numerically-equal keys. *)

module Tbl : Hashtbl.S with type key = t
(** Hashtables keyed by {!equal}: numeric twins ([Int 2], [Float 2.])
    share a key. *)

val pp : Format.formatter -> t -> unit
(** Prints [null], [true], [42], [3.14], or the raw string. *)

val to_string : t -> string
(** The bytes {!pp} prints. *)

val of_string_guess : string -> t
(** Trims the spelling with [String.trim], then parses [""] and
    ["null"] (any case) as [Null], ["true"]/["false"] (any case) as
    [Bool], then tries [int_of_string] and [float_of_string], falling
    back to [String] of the trimmed spelling. Used by the CSV loader.
    A spelling that starts with an ASCII letter other than
    [n t f i] (either case) and ends in no byte [String.trim] strips
    is returned as [String] at once, without the trim or the number
    parses; that shortcut types every spelling as the full guess
    does. *)
