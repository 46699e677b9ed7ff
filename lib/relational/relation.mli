(** A relation instance: a schema plus tuples.

    Entity instances [Ie] and master relations [Im] are both plain
    relations; an entity instance is conventionally small (§2.1). On
    construction each tuple receives its position as [tid] so that
    the chase can address tuples stably. *)

type t

val make : Schema.t -> Tuple.t list -> t
(** Raises [Invalid_argument] if any tuple's arity differs from the
    schema's. Tuples are renumbered [0 .. n-1]. *)

val schema : t -> Schema.t
val size : t -> int
val tuple : t -> int -> Tuple.t
val tuples : t -> Tuple.t list
val tuple_array : t -> Tuple.t array

val get : t -> int -> int -> Value.t
(** [get r ti ai] is tuple [ti]'s value at position [ai]. *)

val column : t -> int -> Value.t array
(** All values of one attribute position, in tuple order. Its
    distinct values are its {!Value.equal} classes: deduplicate
    through {!Value.Tbl}. *)

val filter : t -> (Tuple.t -> bool) -> t
val append : t -> Tuple.t list -> t
val map : t -> (Tuple.t -> Tuple.t) -> t

val pp : Format.formatter -> t -> unit
