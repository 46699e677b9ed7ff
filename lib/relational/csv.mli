(** Minimal RFC-4180-ish CSV reader/writer, enough to ship the
    synthetic datasets to disk and load them back. Supports quoted
    fields with embedded commas, quotes and newlines.

    Both readers run one scanner in one pass over the text. A field
    that holds none of ['"'] and ['\r'] is sliced from the input as it
    stands; a quote or carriage return hands the rest of the field to
    a character loop that decodes it. A quote opens a quoted field
    only while the field has no bytes yet (elsewhere it is literal),
    and a ['\r'] outside quotes is dropped. A last record with no byte
    of content is no row unless a quote opened in it: a final [""]
    with no newline after it is a row holding one empty field.

    The [_result] functions are the primary API: they return
    {!Robust.Error.t} values carrying the file name and the 1-based
    row number of the offending input. The historical exception
    variants raise {!Robust.Error.Error} with the same payload. *)

val parse_string_result :
  ?file:string -> string -> (string list list, Robust.Error.t) result
(** Rows of fields; [Error] on an unterminated quote, located by the
    input line where the text ran out (newlines inside quotes
    count). *)

val parse_string : string -> string list list
(** Raises [Robust.Error.Error] on an unterminated quote. *)

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
    values are typed with {!Value.of_string_guess}. Empty input,
    a bad header, and ragged rows yield {!Robust.Error.Csv_shape}
    errors locating the row (header = row 1, then one row per
    record). Equal cells of one column share one physical value (see
    {!read_relation}). *)

val relation_of_rows : name:string -> string list list -> Relation.t
(** Raises [Robust.Error.Error]. *)

val read_relation : ?name:string -> string -> (Relation.t, Robust.Error.t) result
(** Reads a file and loads it as {!relation_of_rows_result} would load
    its {!parse_string_result} rows, in one pass: each cell is typed
    as it is scanned, straight into its tuple's value array. The
    errors are those of the two steps in order: IO failures are
    {!Robust.Error.Io}, and an unterminated quote anywhere wins over a
    bad header or a ragged row earlier in the file. [name] defaults
    to the file's basename without extension (the convention rule
    files quantify over).

    Each column keeps a small direct-mapped cache (256 slots) from a
    cell's spelling to its value, so equal cells of a column usually
    share one physical {!Value.t} and a repeated cell allocates
    nothing. Values are immutable, so sharing changes no result. Each
    load adds its data rows, its typed cells and the cells its caches
    answered to the counters [csv_rows_total], [csv_cells_total] and
    [csv_cells_shared_total]. *)
