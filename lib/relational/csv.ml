module Error = Robust.Error

(* The parser tracks the 1-based row every field belongs to, so shape
   errors can say *where* the input is malformed. *)
let parse_string_result ?file input =
  let len = String.length input in
  let rows = ref [] in
  let fields = ref [] in
  let buf = Buffer.create 64 in
  let flush_field () =
    fields := Buffer.contents buf :: !fields;
    Buffer.clear buf
  in
  let flush_row () =
    flush_field ();
    rows := List.rev !fields :: !rows;
    fields := []
  in
  let rec plain i row =
    if i >= len then begin
      if Buffer.length buf > 0 || !fields <> [] then flush_row ();
      Ok ()
    end
    else
      match input.[i] with
      | ',' ->
          flush_field ();
          plain (i + 1) row
      | '\n' ->
          flush_row ();
          plain (i + 1) (row + 1)
      | '\r' -> plain (i + 1) row
      | '"' when Buffer.length buf = 0 -> quoted (i + 1) row
      | c ->
          Buffer.add_char buf c;
          plain (i + 1) row
  and quoted i row =
    if i >= len then
      Error (Error.csv_shape ?file ~row "unterminated quoted field")
    else
      match input.[i] with
      | '"' ->
          if i + 1 < len && input.[i + 1] = '"' then begin
            Buffer.add_char buf '"';
            quoted (i + 2) row
          end
          else plain (i + 1) row
      | '\n' ->
          Buffer.add_char buf '\n';
          quoted (i + 1) (row + 1)
      | c ->
          Buffer.add_char buf c;
          quoted (i + 1) row
  in
  match plain 0 1 with
  | Ok () -> Ok (List.rev !rows)
  | Error _ as e -> e

let parse_string input =
  match parse_string_result input with
  | Ok rows -> rows
  | Error e -> Error.raise_error e

let read_file_result path =
  match
    Error.guard_io ~path (fun () ->
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic)))
  with
  | Error _ as e -> e
  | Ok contents -> parse_string_result ~file:path contents

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

let relation_of_rows_result ?file ~name rows =
  match rows with
  | [] -> Error (Error.csv_shape ?file "empty input, expected a header row")
  | header :: data -> (
      match Schema.make name header with
      | exception Invalid_argument msg -> Error (Error.csv_shape ?file ~row:1 msg)
      | schema ->
          let arity = Schema.arity schema in
          (* The header is row 1; data row [i] is row [i + 2]. *)
          let rec convert i acc = function
            | [] -> Ok (Relation.make schema (List.rev acc))
            | row :: rest ->
                let n = List.length row in
                if n <> arity then
                  Error
                    (Error.csv_shape ?file ~row:(i + 2)
                       (Printf.sprintf "ragged row: %d fields, header has %d" n
                          arity))
                else
                  convert (i + 1)
                    (Tuple.make
                       (Array.of_list (List.map Value.of_string_guess row))
                     :: acc)
                    rest
          in
          convert 0 [] data)

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
  match read_file_result path with
  | Error _ as e -> e
  | Ok rows -> relation_of_rows_result ~file:path ~name rows
