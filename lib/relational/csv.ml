module Error = Robust.Error

(* The one scanner behind both readers. [field src off len] receives
   each field as a byte range and [eol ()] ends each record. A field
   starts in a tight scan that slices [input] itself up to the next
   [','] or ['\n']; a ['"'] or ['\r'] hands the rest of the field to
   the character loop, which decodes quotes into [buf] (a quote opens
   only while [buf] is empty, and ['\r'] outside quotes is dropped).
   [line] is the 1-based input line, newlines inside quotes included,
   so an unterminated quote names the line where the input ran out. A
   record at the end of the input with no byte of content keeps its
   row only if a quote opened in it: [""] is one empty field, a lone
   ['\r'] is nothing. *)
let scan ?file input ~field ~eol =
  let len = String.length input in
  let buf = Buffer.create 64 in
  let line = ref 1 and opened = ref false in
  (* The rest of a field from [i]: where it ends (a delimiter's index
     or [len]), or -1 when the input ends inside quotes. *)
  let rec plain i =
    if i >= len then i
    else
      match String.unsafe_get input i with
      | ',' | '\n' -> i
      | '\r' -> plain (i + 1)
      | '"' when Buffer.length buf = 0 ->
          opened := true;
          quoted (i + 1)
      | c ->
          Buffer.add_char buf c;
          plain (i + 1)
  and quoted i =
    if i >= len then -1
    else
      match String.unsafe_get input i with
      | '"' ->
          if i + 1 < len && String.unsafe_get input (i + 1) = '"' then begin
            Buffer.add_char buf '"';
            quoted (i + 2)
          end
          else plain (i + 1)
      | '\n' ->
          Buffer.add_char buf '\n';
          incr line;
          quoted (i + 1)
      | c ->
          Buffer.add_char buf c;
          quoted (i + 1)
  in
  let rec record i = if i >= len then Ok () else field_at ~first:true i
  and field_at ~first i =
    let j = ref i in
    while
      !j < len
      &&
      match String.unsafe_get input !j with
      | ',' | '\n' | '"' | '\r' -> false
      | _ -> true
    do
      incr j
    done;
    let j = !j in
    if j < len && (input.[j] = '"' || input.[j] = '\r') then begin
      Buffer.clear buf;
      Buffer.add_substring buf input i (j - i);
      opened := false;
      let stop = plain j in
      if stop < 0 then
        Error (Error.csv_shape ?file ~row:!line "unterminated quoted field")
      else if stop >= len && first && Buffer.length buf = 0 && not !opened then
        Ok ()
      else begin
        field (Buffer.contents buf) 0 (Buffer.length buf);
        next stop
      end
    end
    else begin
      field input i (j - i);
      next j
    end
  and next stop =
    if stop >= len then begin
      eol ();
      Ok ()
    end
    else if input.[stop] = ',' then field_at ~first:false (stop + 1)
    else begin
      eol ();
      incr line;
      record (stop + 1)
    end
  in
  record 0

let slice src off len =
  if off = 0 && len = String.length src then src else String.sub src off len

let parse_string_result ?file input =
  let rows = ref [] and fields = ref [] in
  let field src off len = fields := slice src off len :: !fields in
  let eol () =
    rows := List.rev !fields :: !rows;
    fields := []
  in
  Result.map (fun () -> List.rev !rows) (scan ?file input ~field ~eol)

let parse_string input =
  match parse_string_result input with
  | Ok rows -> rows
  | Error e -> Error.raise_error e

let needs_quoting s =
  String.exists (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r') s

let render_field s =
  if needs_quoting s then begin
    let buf = Buffer.create (String.length s + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buf "\"\"" else Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"';
    Buffer.contents buf
  end
  else s

let render rows =
  let buf = Buffer.create 1024 in
  List.iter
    (fun row ->
      Buffer.add_string buf (String.concat "," (List.map render_field row));
      Buffer.add_char buf '\n')
    rows;
  Buffer.contents buf

let write_file path rows =
  let oc = open_out_bin path in
  output_string oc (render rows);
  close_out oc

let relation_to_rows rel =
  let schema = Relation.schema rel in
  let header = Array.to_list (Schema.attributes schema) in
  let row_of_tuple t =
    List.init (Tuple.arity t) (fun i -> Value.to_string (Tuple.get t i))
  in
  header :: List.map row_of_tuple (Relation.tuples rel)

(* Each column keeps a direct-mapped cache from a spelling to the value
   it types as, so equal cells of a column share one [Value.t] and a
   repeated cell allocates nothing. Every slot starts as [""], which
   {!Value.of_string_guess} types as [Null], so no slot is ever wrong. *)
let slots = 256

type column = { spellings : string array; values : Value.t array }

let m_rows =
  Obs.Counter.make ~help:"data rows loaded from CSV" "csv_rows_total"

let m_cells =
  Obs.Counter.make ~help:"cells typed while loading CSV" "csv_cells_total"

let m_shared =
  Obs.Counter.make
    ~help:"CSV cells answered by their column's spelling cache"
    "csv_cells_shared_total"

(* FNV-1a over a byte range, high bits folded into the slot bits. *)
let slot src off len =
  let h = ref 0x811c9dc5 in
  for i = off to off + len - 1 do
    h := (!h lxor Char.code (String.unsafe_get src i)) * 0x01000193
  done;
  (!h lxor (!h lsr 17)) land (slots - 1)

let rec same_bytes s src off i len =
  i = len
  || String.unsafe_get s i = String.unsafe_get src (off + i)
     && same_bytes s src off (i + 1) len

(* Builds a relation from fields as they arrive: the first record is
   the header, every later one a tuple whose cells are typed straight
   into its value array. The first shape error is kept and every field
   after it ignored, so a scan still running can report a later
   unterminated quote in its place. *)
type loader = {
  name : string;
  file : string option;
  mutable header : string list; (* reversed, until the first record ends *)
  mutable schema : Schema.t option;
  mutable columns : column array;
  mutable row : Value.t array;
  mutable width : int; (* fields seen in the current record *)
  mutable tuples : Tuple.t list; (* reversed *)
  mutable count : int;
  mutable shared : int;
  mutable failed : Error.t option;
}

let loader ?file ~name () =
  {
    name;
    file;
    header = [];
    schema = None;
    columns = [||];
    row = [||];
    width = 0;
    tuples = [];
    count = 0;
    shared = 0;
    failed = None;
  }

let cell l col src off len =
  let k = slot src off len in
  let s = col.spellings.(k) in
  if String.length s = len && same_bytes s src off 0 len then begin
    l.shared <- l.shared + 1;
    col.values.(k)
  end
  else begin
    let s = slice src off len in
    let v = Value.of_string_guess s in
    col.spellings.(k) <- s;
    col.values.(k) <- v;
    v
  end

let field l src off len =
  match (l.failed, l.schema) with
  | Some _, _ -> ()
  | None, None -> l.header <- slice src off len :: l.header
  | None, Some _ ->
      if l.width < Array.length l.row then
        l.row.(l.width) <- cell l l.columns.(l.width) src off len;
      l.width <- l.width + 1

let eol l =
  match (l.failed, l.schema) with
  | Some _, _ -> ()
  | None, None -> (
      match Schema.make l.name (List.rev l.header) with
      | exception Invalid_argument msg ->
          l.failed <- Some (Error.csv_shape ?file:l.file ~row:1 msg)
      | schema ->
          let arity = Schema.arity schema in
          l.schema <- Some schema;
          l.columns <-
            Array.init arity (fun _ ->
                { spellings = Array.make slots ""; values = Array.make slots Value.Null });
          l.row <- Array.make arity Value.Null)
  | None, Some _ ->
      let arity = Array.length l.row in
      (* The header is row 1; data row [i] is row [i + 2]. *)
      if l.width <> arity then
        l.failed <-
          Some
            (Error.csv_shape ?file:l.file ~row:(l.count + 2)
               (Printf.sprintf "ragged row: %d fields, header has %d" l.width arity))
      else begin
        l.tuples <- Tuple.unsafe_make ~tid:l.count l.row :: l.tuples;
        l.count <- l.count + 1;
        l.row <- Array.make arity Value.Null
      end;
      l.width <- 0

let finish l =
  match (l.failed, l.schema) with
  | Some e, _ -> Error e
  | None, None ->
      Error (Error.csv_shape ?file:l.file "empty input, expected a header row")
  | None, Some schema ->
      Obs.Counter.add m_rows l.count;
      Obs.Counter.add m_cells (l.count * Schema.arity schema);
      Obs.Counter.add m_shared l.shared;
      Ok (Relation.make schema (List.rev l.tuples))

let relation_of_rows_result ?file ~name rows =
  let l = loader ?file ~name () in
  List.iter
    (fun row ->
      List.iter (fun s -> field l s 0 (String.length s)) row;
      eol l)
    rows;
  finish l

let relation_of_rows ~name rows =
  match relation_of_rows_result ~name rows with
  | Ok rel -> rel
  | Error e -> Error.raise_error e

let read_relation ?name path =
  let name =
    match name with
    | Some n -> n
    | None -> Filename.remove_extension (Filename.basename path)
  in
  match
    Error.guard_io ~path (fun () ->
        In_channel.with_open_bin path In_channel.input_all)
  with
  | Error _ as e -> e
  | Ok input -> (
      let l = loader ~file:path ~name () in
      match scan ~file:path input ~field:(field l) ~eol:(fun () -> eol l) with
      | Error _ as e -> e
      | Ok () -> finish l)
