(** A minimal JSON codec for the service's line protocol.

    The repository deliberately avoids a JSON dependency; requests
    and responses are small and flat, so a ~200-line recursive
    descent parser plus a compact printer cover the protocol,
    checkpoints and SLO reports. Numbers are floats (as in JSON
    itself); object member order is preserved on print so responses
    are byte-stable — the warm-restart acceptance check compares
    response bytes. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Parse one JSON document (surrounding whitespace allowed). The
    error string says what was expected and at which byte offset;
    it never raises — corrupted payloads are data, not faults. *)

val to_string : t -> string
(** Compact (no whitespace) rendering. Strings are escaped per RFC
    8259; integral floats print without a decimal point. *)

(** {2 Accessors} — total, for picking requests apart. *)

val member : string -> t -> t option
(** [member k (Obj _)] is the first binding of [k]; [None] on
    missing keys and non-objects. *)

val to_str : t -> string option
val to_num : t -> float option
val to_int : t -> int option

(** {2 Constructors} *)

val int : int -> t
val list : ('a -> t) -> 'a list -> t
