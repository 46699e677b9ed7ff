(** Value interning: a bijection between distinct values and dense
    non-negative ids, kept in generations.

    - The {e master generation} of one master relation is a chain of
      frozen segments that {!Rules.Master_index} fills: a root table
      ({!create}) with the cells of the columns the first ruleset over
      the master reads as ids, then, for a ruleset reading a column
      the chain lacks, a segment ({!extend}) with that column's new
      values, each {!freeze}d once filled. A frozen segment is never
      written again, so every read of the chain is lock-free, and
      every specification over that master shares it: a master value
      is interned once per master relation, process-wide, and master
      ids are the same for every entity.
    - An {e entity generation} ({!extend}) sits over the newest
      segment when it is made. Its own ids start at that segment's
      {!size}; it holds only what one specification meets beyond the
      master generation (entity cells, rule constants, fills and
      template cells) and is dropped with that specification. So a
      clean's table work is sized by each entity, not by everything
      the corpus has shown so far.

    A specification without a master interns into a root table of its
    own, which is never frozen. A generation gives a new id only to a
    value none of the segments under it holds, so such a value always
    has its first id, and an id below a segment's size means one value
    in every generation over that segment. (An entity generation also
    remembers each master value it has met, so the chase's repeated
    interning of a fill stays in its own small table.) A segment added
    later is invisible to the generations made before it: they go on
    giving their own ids to its values, consistently, and do not read
    its columns.

    Identity is {!Value.equal} — which, with the {!Value.compare}-
    consistent {!Value.hash}, unifies numerically-equal [Int]/[Float]
    keys ([Int 2] and [Float 2.] intern to the {e same} id). The hot
    paths of grounding and the chase then work on flat [int] arrays
    of ids: dedup keys, the per-attribute master-tuple index and the
    [te] slot state compare and hash machine words instead of
    walking value structure.

    Ids are allocated densely in first-intern order, so they depend
    on the order in which a generation first sees values. Nothing may
    depend on an id's value, only on id equality. Likewise a value
    decoded back from an id ({!value}) is the {e first} spelling of
    its class: the master's spelling for a master value, otherwise
    the first the entity generation met — [Value.equal] to what a rule
    read, but not necessarily the same spelling. Id {!null_id}
    (= 0) is pre-assigned to [Value.Null] in every root.

    A generation may be hit from several worker domains at once:
    writes to a generation that is not frozen are serialized by its
    mutex. Interning is a boundary operation — once per distinct
    value at compile time, once per fill or template attribute at run
    time — never an inner-loop one. *)

type t

val create : unit -> t
(** A fresh root table holding only [Value.Null] at {!null_id}. *)

val freeze : t -> unit
(** No value is added to [t] after this: {!intern} of a value neither
    [t] nor a generation under it holds raises [Invalid_argument], and
    reads take no lock. Only the table's builder may call it, before
    sharing [t]. *)

val extend : ?size:int -> t -> t
(** [extend g] — a fresh generation over the frozen [g] (a root or a
    frozen extension); its ids start at [size g], and a value [g] or a
    generation under it holds keeps that id. [size] (default 32) is
    the number of values the generation is expected to meet, its own
    and [g]'s alike: its table starts with room for that many, and
    grows past it. Raises [Invalid_argument] when [g] is not
    frozen. *)

val parent : t -> t option
(** The frozen generation a generation extends; [None] for a root. *)

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
(** Number of allocated ids, including {!null_id} and, for an extension,
    every id of the generations under it. *)
