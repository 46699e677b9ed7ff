module Value = Relational.Value
module Schema = Relational.Schema

(* ------------------------------------------------------------------ *)
(* Lexer                                                              *)
(* ------------------------------------------------------------------ *)

type token =
  | IDENT of string
  | STRING of string
  | INT of int
  | FLOAT of float
  | KW_RULE
  | KW_FORALL
  | KW_AND
  | KW_IN
  | KW_TRUE
  | KW_FALSE
  | KW_NULL
  | COLON
  | SEMI
  | COMMA
  | DOT
  | ARROW
  | ASSIGN
  | OP_EQ
  | OP_NEQ
  | OP_LT
  | OP_GT
  | OP_LEQ
  | OP_GEQ
  | LBRACKET
  | RBRACKET
  | EOF

let token_to_string = function
  | IDENT s -> Printf.sprintf "identifier %S" s
  | STRING s -> Printf.sprintf "string %S" s
  | INT i -> Printf.sprintf "integer %d" i
  | FLOAT f -> Printf.sprintf "float %g" f
  | KW_RULE -> "'rule'"
  | KW_FORALL -> "'forall'"
  | KW_AND -> "'and'"
  | KW_IN -> "'in'"
  | KW_TRUE -> "'true'"
  | KW_FALSE -> "'false'"
  | KW_NULL -> "'null'"
  | COLON -> "':'"
  | SEMI -> "';'"
  | COMMA -> "','"
  | DOT -> "'.'"
  | ARROW -> "'->'"
  | ASSIGN -> "':='"
  | OP_EQ -> "'='"
  | OP_NEQ -> "'!='"
  | OP_LT -> "'<'"
  | OP_GT -> "'>'"
  | OP_LEQ -> "'<='"
  | OP_GEQ -> "'>='"
  | LBRACKET -> "'['"
  | RBRACKET -> "']'"
  | EOF -> "end of input"

exception Syntax_error of int * string

let fail line fmt = Printf.ksprintf (fun m -> raise (Syntax_error (line, m))) fmt

let is_ident_start = function 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false

let is_ident_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '#' -> true
  | _ -> false

let is_digit = function '0' .. '9' -> true | _ -> false

let tokenize input =
  let len = String.length input in
  let tokens = ref [] in
  let line = ref 1 in
  let emit t = tokens := (t, !line) :: !tokens in
  let i = ref 0 in
  while !i < len do
    let c = input.[!i] in
    (match c with
    | ' ' | '\t' | '\r' -> incr i
    | '\n' ->
        incr line;
        incr i
    | '#' ->
        while !i < len && input.[!i] <> '\n' do
          incr i
        done
    | '/' when !i + 1 < len && input.[!i + 1] = '\\' ->
        emit KW_AND;
        i := !i + 2
    | ':' when !i + 1 < len && input.[!i + 1] = '=' ->
        emit ASSIGN;
        i := !i + 2
    | ':' ->
        emit COLON;
        incr i
    | ';' ->
        emit SEMI;
        incr i
    | ',' ->
        emit COMMA;
        incr i
    | '.' ->
        emit DOT;
        incr i
    | '[' ->
        emit LBRACKET;
        incr i
    | ']' ->
        emit RBRACKET;
        incr i
    | '=' ->
        emit OP_EQ;
        incr i
    | '!' when !i + 1 < len && input.[!i + 1] = '=' ->
        emit OP_NEQ;
        i := !i + 2
    | '-' when !i + 1 < len && input.[!i + 1] = '>' ->
        emit ARROW;
        i := !i + 2
    | '<' when !i + 1 < len && input.[!i + 1] = '>' ->
        emit OP_NEQ;
        i := !i + 2
    | '<' when !i + 1 < len && input.[!i + 1] = '=' ->
        emit OP_LEQ;
        i := !i + 2
    | '<' ->
        emit OP_LT;
        incr i
    | '>' when !i + 1 < len && input.[!i + 1] = '=' ->
        emit OP_GEQ;
        i := !i + 2
    | '>' ->
        emit OP_GT;
        incr i
    | '"' ->
        let buf = Buffer.create 16 in
        incr i;
        let closed = ref false in
        while (not !closed) && !i < len do
          (match input.[!i] with
          | '"' -> closed := true
          | '\\' when !i + 1 < len ->
              incr i;
              Buffer.add_char buf
                (match input.[!i] with
                | 'n' -> '\n'
                | 't' -> '\t'
                | c -> c)
          | '\n' -> fail !line "newline in string literal"
          | c -> Buffer.add_char buf c);
          incr i
        done;
        if not !closed then fail !line "unterminated string literal";
        emit (STRING (Buffer.contents buf))
    | c when is_digit c || (c = '-' && !i + 1 < len && is_digit input.[!i + 1]) ->
        let start = !i in
        if c = '-' then incr i;
        let is_float = ref false in
        while
          !i < len
          && (is_digit input.[!i]
             || input.[!i] = '.'
                && !i + 1 < len
                && is_digit input.[!i + 1]
             || input.[!i] = 'e' || input.[!i] = 'E'
             || (input.[!i] = '-' && !i > start
                && (input.[!i - 1] = 'e' || input.[!i - 1] = 'E')))
        do
          if input.[!i] = '.' || input.[!i] = 'e' || input.[!i] = 'E' then
            is_float := true;
          incr i
        done;
        let text = String.sub input start (!i - start) in
        if !is_float then (
          match float_of_string_opt text with
          | Some f -> emit (FLOAT f)
          | None -> fail !line "malformed number %S" text)
        else (
          match int_of_string_opt text with
          | Some n -> emit (INT n)
          | None -> fail !line "malformed number %S" text)
    | c when is_ident_start c ->
        let start = !i in
        while !i < len && is_ident_char input.[!i] do
          incr i
        done;
        let word = String.sub input start (!i - start) in
        emit
          (match word with
          | "rule" -> KW_RULE
          | "forall" -> KW_FORALL
          | "and" -> KW_AND
          | "in" -> KW_IN
          | "true" -> KW_TRUE
          | "false" -> KW_FALSE
          | "null" -> KW_NULL
          | _ -> IDENT word)
    | c -> fail !line "unexpected character %C" c);
    ()
  done;
  emit EOF;
  List.rev !tokens

(* ------------------------------------------------------------------ *)
(* Parser state                                                       *)
(* ------------------------------------------------------------------ *)

type state = { mutable toks : (token * int) list }

let peek st = match st.toks with [] -> (EOF, 0) | t :: _ -> t
let peek2 st = match st.toks with _ :: t :: _ -> fst t | _ -> EOF

let advance st =
  match st.toks with [] -> () | _ :: rest -> st.toks <- rest

let next st =
  let t = peek st in
  advance st;
  t

let expect st tok =
  let got, line = next st in
  if got <> tok then
    fail line "expected %s, found %s" (token_to_string tok) (token_to_string got)

let parse_op st =
  match next st with
  | OP_EQ, _ -> Ar.Eq
  | OP_NEQ, _ -> Ar.Neq
  | OP_LT, _ -> Ar.Lt
  | OP_GT, _ -> Ar.Gt
  | OP_LEQ, _ -> Ar.Leq
  | OP_GEQ, _ -> Ar.Geq
  | t, line -> fail line "expected a comparison operator, found %s" (token_to_string t)

let attr_name st =
  match next st with
  | IDENT s, _ | STRING s, _ -> s
  | t, line -> fail line "expected an attribute name, found %s" (token_to_string t)

let lookup_attr line schema kind name =
  match Schema.index_opt schema name with
  | Some i -> i
  | None -> fail line "unknown %s attribute %S" kind name

(* ------------------------------------------------------------------ *)
(* Form (1)                                                           *)
(* ------------------------------------------------------------------ *)

let parse_f1_term st schema =
  match peek st with
  | IDENT "t1", line ->
      advance st;
      expect st DOT;
      Ar.Tuple_attr (Ar.T1, lookup_attr line schema "entity" (attr_name st))
  | IDENT "t2", line ->
      advance st;
      expect st DOT;
      Ar.Tuple_attr (Ar.T2, lookup_attr line schema "entity" (attr_name st))
  | IDENT "te", line ->
      advance st;
      expect st DOT;
      Ar.Target_attr (lookup_attr line schema "entity" (attr_name st))
  | STRING s, _ ->
      advance st;
      Ar.Const (Value.String s)
  | INT i, _ ->
      advance st;
      Ar.Const (Value.Int i)
  | FLOAT f, _ ->
      advance st;
      Ar.Const (Value.Float f)
  | KW_TRUE, _ ->
      advance st;
      Ar.Const (Value.Bool true)
  | KW_FALSE, _ ->
      advance st;
      Ar.Const (Value.Bool false)
  | KW_NULL, _ ->
      advance st;
      Ar.Const Value.Null
  | t, line -> fail line "expected a term, found %s" (token_to_string t)

let side_of_ident line = function
  | "t1" -> Ar.T1
  | "t2" -> Ar.T2
  | s -> fail line "expected t1 or t2, found %S" s

(* An order atom looks like:  t1 <[attr] t2  or  t1 <=[attr] t2.
   We detect it by lookahead: a side identifier followed by </<= and
   then '['. *)
let looks_like_ord st =
  match st.toks with
  | (IDENT ("t1" | "t2"), _) :: ((OP_LT | OP_LEQ), _) :: (LBRACKET, _) :: _ -> true
  | _ -> false

let parse_ord st schema =
  let side_tok, line = next st in
  let left =
    match side_tok with
    | IDENT s -> side_of_ident line s
    | t -> fail line "expected t1 or t2, found %s" (token_to_string t)
  in
  let strict =
    match next st with
    | OP_LT, _ -> true
    | OP_LEQ, _ -> false
    | t, line -> fail line "expected < or <=, found %s" (token_to_string t)
  in
  expect st LBRACKET;
  let attr = lookup_attr line schema "entity" (attr_name st) in
  expect st RBRACKET;
  let right_tok, line2 = next st in
  let right =
    match right_tok with
    | IDENT s -> side_of_ident line2 s
    | t -> fail line2 "expected t1 or t2, found %s" (token_to_string t)
  in
  (strict, left, right, attr)

let parse_f1_pred st schema =
  if looks_like_ord st then begin
    let strict, left, right, attr = parse_ord st schema in
    Some (Ar.Ord { strict; left; right; attr })
  end
  else
    match peek st with
    | KW_TRUE, _ when peek2 st = KW_AND || peek2 st = ARROW ->
        (* bare 'true': the empty conjunction *)
        advance st;
        None
    | _ ->
        let l = parse_f1_term st schema in
        let op = parse_op st in
        let r = parse_f1_term st schema in
        Some (Ar.Cmp (l, op, r))

let parse_form1 st schema name =
  let preds = ref [] in
  let rec lhs () =
    (match parse_f1_pred st schema with
    | Some p -> preds := p :: !preds
    | None -> ());
    match peek st with
    | KW_AND, _ ->
        advance st;
        lhs ()
    | _ -> ()
  in
  lhs ();
  expect st ARROW;
  let strict, left, right, attr = parse_ord st schema in
  Ar.Form1
    {
      f1_name = name;
      f1_lhs = List.rev !preds;
      f1_rhs = { strict; left; right; attr };
    }

(* ------------------------------------------------------------------ *)
(* Form (2)                                                           *)
(* ------------------------------------------------------------------ *)

let parse_const st =
  match next st with
  | STRING s, _ -> Value.String s
  | INT i, _ -> Value.Int i
  | FLOAT f, _ -> Value.Float f
  | KW_TRUE, _ -> Value.Bool true
  | KW_FALSE, _ -> Value.Bool false
  | KW_NULL, _ -> Value.Null
  | t, line -> fail line "expected a constant, found %s" (token_to_string t)

let parse_f2_pred st schema master =
  match next st with
  | IDENT "te", line -> (
      expect st DOT;
      let a = lookup_attr line schema "entity" (attr_name st) in
      let op = parse_op st in
      match peek st with
      | IDENT "tm", line2 ->
          advance st;
          expect st DOT;
          if op <> Ar.Eq then fail line2 "te/tm predicates must use '='";
          Ar.Te_master (a, lookup_attr line2 master "master" (attr_name st))
      | _ -> Ar.Te_const (a, op, parse_const st))
  | IDENT "tm", line -> (
      expect st DOT;
      let b = lookup_attr line master "master" (attr_name st) in
      let op = parse_op st in
      match peek st with
      | IDENT "te", line2 ->
          advance st;
          expect st DOT;
          if op <> Ar.Eq then fail line2 "te/tm predicates must use '='";
          Ar.Te_master (lookup_attr line2 schema "entity" (attr_name st), b)
      | _ -> Ar.Master_const (b, op, parse_const st))
  | t, line ->
      fail line "expected a te/tm predicate, found %s" (token_to_string t)

let parse_form2 st schema master name =
  let preds = ref [] in
  let rec lhs () =
    (match peek st with
    | KW_TRUE, _ -> advance st
    | _ -> preds := parse_f2_pred st schema master :: !preds);
    match peek st with
    | KW_AND, _ ->
        advance st;
        lhs ()
    | _ -> ()
  in
  lhs ();
  expect st ARROW;
  (* One or more te.A := tm.B assignments separated by ';'. *)
  let assignments = ref [] in
  let rec rhs () =
    let _, line = peek st in
    expect st (IDENT "te");
    expect st DOT;
    let a = lookup_attr line schema "entity" (attr_name st) in
    expect st ASSIGN;
    expect st (IDENT "tm");
    expect st DOT;
    let b = lookup_attr line master "master" (attr_name st) in
    assignments := (a, b) :: !assignments;
    match peek st with
    | SEMI, _ ->
        advance st;
        rhs ()
    | _ -> ()
  in
  rhs ();
  let assignments = List.rev !assignments in
  let lhs_preds = List.rev !preds in
  match assignments with
  | [ (a, b) ] ->
      [ Ar.Form2 { f2_name = name; f2_lhs = lhs_preds; f2_te_attr = a; f2_tm_attr = b } ]
  | many ->
      List.mapi
        (fun k (a, b) ->
          Ar.Form2
            {
              f2_name = Printf.sprintf "%s#%d" name (k + 1);
              f2_lhs = lhs_preds;
              f2_te_attr = a;
              f2_tm_attr = b;
            })
        many

(* ------------------------------------------------------------------ *)
(* Rules                                                              *)
(* ------------------------------------------------------------------ *)

let parse_rule st schema master =
  expect st KW_RULE;
  let name =
    match next st with
    | IDENT s, _ | STRING s, _ -> s
    | t, line -> fail line "expected a rule name, found %s" (token_to_string t)
  in
  expect st COLON;
  expect st KW_FORALL;
  let first_var, line = next st in
  match first_var with
  | IDENT "t1" ->
      expect st COMMA;
      expect st (IDENT "t2");
      (match peek st with
      | KW_IN, _ ->
          advance st;
          let rel = attr_name st in
          if rel <> Schema.name schema then
            fail line "rule quantifies over %S but the entity schema is %S" rel
              (Schema.name schema)
      | _ -> ());
      expect st COLON;
      [ parse_form1 st schema name ]
  | IDENT "tm" -> (
      (match peek st with
      | KW_IN, _ ->
          advance st;
          let rel = attr_name st in
          (match master with
          | Some m when rel <> Schema.name m ->
              fail line "rule quantifies over %S but the master schema is %S" rel
                (Schema.name m)
          | _ -> ())
      | _ -> ());
      expect st COLON;
      match master with
      | None -> fail line "form (2) rule but no master schema was supplied"
      | Some m -> parse_form2 st schema m name)
  | t ->
      fail line "expected quantified variables (t1, t2 or tm), found %s"
        (token_to_string t)

let parse_robust ~schema ?master ?file text =
  match
    let st = { toks = tokenize text } in
    let rec go acc =
      match peek st with
      | EOF, _ -> List.rev acc
      | KW_RULE, _ -> go (List.rev_append (parse_rule st schema master) acc)
      | t, line -> fail line "expected 'rule', found %s" (token_to_string t)
    in
    go []
  with
  | rules -> Ok rules
  | exception Syntax_error (line, msg) ->
      Error (Robust.Error.rule_parse ?file ~line msg)

let parse ~schema ?master text =
  match parse_robust ~schema ?master text with
  | Ok rules -> Ok rules
  | Error (Robust.Error.Rule_parse { line = Some line; detail; _ }) ->
      Error (Printf.sprintf "line %d: %s" line detail)
  | Error e -> Error (Robust.Error.to_string e)

let parse_exn ~schema ?master text =
  match parse ~schema ?master text with
  | Ok rules -> rules
  | Error e -> invalid_arg ("Parser.parse_exn: " ^ e)

let parse_file_robust ~schema ?master path =
  match
    Robust.Error.guard_io ~path (fun () ->
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic)))
  with
  | Error _ as e -> e
  | Ok contents -> parse_robust ~schema ?master ~file:path contents

let to_string ~schema ?master rules =
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  List.iter
    (fun r ->
      Ar.pp ~schema ?master ppf r;
      Format.pp_print_newline ppf ())
    rules;
  Format.pp_print_flush ppf ();
  Buffer.contents buf
