(** Minimal RFC-4180-ish CSV reader/writer, enough to ship the
    synthetic datasets to disk and load them back. Supports quoted
    fields with embedded commas, quotes and newlines.

    The [_result] functions are the primary API: they return
    {!Robust.Error.t} values carrying the file name and the 1-based
    row number of the offending input. The historical exception
    variants raise {!Robust.Error.Error} with the same payload. *)

val parse_string_result :
  ?file:string -> string -> (string list list, Robust.Error.t) result
(** Rows of fields; [Error] on an unterminated quote, located by
    row. *)

val parse_string : string -> string list list
(** Raises [Robust.Error.Error] on an unterminated quote. *)

val read_file_result : string -> (string list list, Robust.Error.t) result
(** IO failures become {!Robust.Error.Io}; parse failures carry the
    file name. *)

val render : string list list -> string
(** Quotes fields when needed; rows end with ['\n']. *)

val write_file : string -> string list list -> unit

val relation_to_rows : Relation.t -> string list list
(** Header row (attribute names) followed by one row per tuple,
    values rendered with {!Value.to_string} ([null] for nulls). *)

val relation_of_rows_result :
  ?file:string ->
  name:string ->
  string list list ->
  (Relation.t, Robust.Error.t) result
(** Inverse of {!relation_to_rows}: first row is the header; field
    values are re-typed with {!Value.of_string_guess}. Empty input,
    a bad header, and ragged rows yield {!Robust.Error.Csv_shape}
    errors locating the row (header = row 1). *)

val relation_of_rows : name:string -> string list list -> Relation.t
(** Raises [Robust.Error.Error]. *)

val read_relation : ?name:string -> string -> (Relation.t, Robust.Error.t) result
(** [read_file_result] + [relation_of_rows_result]; [name] defaults
    to the file's basename without extension (the convention rule
    files quantify over). *)
