(** Value interning: a bijection between the distinct values of one
    {e scope} and dense non-negative ids. A scope is one master
    relation — its {!Rules.Master_index} owns the table, and every
    specification over that master (entity columns, master columns,
    rule constants, templates, fills, across all of a corpus's
    entities) interns into it — or a single specification that has
    no master.

    Identity is {!Value.equal} — which, with the {!Value.compare}-
    consistent {!Value.hash}, unifies numerically-equal [Int]/[Float]
    keys ([Int 2] and [Float 2.] intern to the {e same} id). The hot
    paths of grounding and the chase then work on flat [int] arrays
    of ids: dedup keys, the per-attribute master-tuple index and the
    [te] slot state compare and hash machine words instead of
    walking value structure.

    Ids are allocated densely from 0 in first-intern order, so they
    depend on the order in which the scope first sees values (which
    entities came first, which domain won a race). Nothing may depend
    on an id's value, only on id equality. Likewise a value decoded
    back from an id ({!value}) is the scope's {e first} spelling of
    its class: a ground [P_te] constant [Float 2.] decodes as [Int 2]
    if the scope met [Int 2] first — [Value.equal] to what the rule
    read, but not necessarily the same spelling. Id {!null_id}
    (= 0) is pre-assigned to [Value.Null] at creation.

    A table may be hit from several worker domains at once; all
    operations are serialized by an internal mutex. Interning is a
    boundary operation — once per distinct value at compile time,
    once per fill or template attribute at run time — never an
    inner-loop one. *)

type t

val create : unit -> t
(** A fresh table holding only [Value.Null] at {!null_id}. *)

val null_id : int
(** The id of [Value.Null]: always [0]. *)

val intern : t -> Value.t -> int
(** The id of [v], allocating the next dense id on first sight.
    [Value.equal]-equal values always receive the same id. *)

val find_opt : t -> Value.t -> int option
(** The id of [v] if already interned, without allocating one. *)

val value : t -> int -> Value.t
(** The canonical representative of an id: the first-interned value
    of its equality class (so an [Int]/[Float] pair is represented
    by whichever arrived first). Raises [Invalid_argument] on an id
    never returned by {!intern}. *)

val size : t -> int
(** Number of allocated ids, including {!null_id}. *)
