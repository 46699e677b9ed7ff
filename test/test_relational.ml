(* Unit and property tests for the relational substrate: values,
   schemas, tuples, relations and CSV I/O. *)

module Value = Relational.Value
module Schema = Relational.Schema
module Tuple = Relational.Tuple
module Relation = Relational.Relation
module Csv = Relational.Csv

let check = Alcotest.check

let value_testable =
  Alcotest.testable Value.pp Value.equal

(* A qcheck generator of values (no floats, to keep equality crisp in
   roundtrips; floats are tested separately). *)
let value_gen =
  QCheck.Gen.(
    oneof
      [
        return Value.Null;
        map (fun b -> Value.Bool b) bool;
        map (fun i -> Value.Int i) (int_range (-1000) 1000);
        map (fun s -> Value.String s) (string_size ~gen:(char_range 'a' 'z') (int_range 1 8));
      ])

let value_arb = QCheck.make ~print:Value.to_string value_gen

(* ------------------------------------------------------------------ *)
(* Value                                                              *)
(* ------------------------------------------------------------------ *)

let test_value_equal () =
  check Alcotest.bool "null=null" true (Value.equal Value.Null Value.Null);
  check Alcotest.bool "null<>0" false (Value.equal Value.Null (Value.Int 0));
  check Alcotest.bool "int=float" true (Value.equal (Value.Int 2) (Value.Float 2.0));
  check Alcotest.bool "string" true
    (Value.equal (Value.String "x") (Value.String "x"));
  check Alcotest.bool "bool<>int" false (Value.equal (Value.Bool true) (Value.Int 1))

let test_value_lt () =
  check Alcotest.bool "1<2" true (Value.lt (Value.Int 1) (Value.Int 2));
  check Alcotest.bool "2<1 false" false (Value.lt (Value.Int 2) (Value.Int 1));
  check Alcotest.bool "int<float mixed" true (Value.lt (Value.Int 1) (Value.Float 1.5));
  check Alcotest.bool "null never lt" false (Value.lt Value.Null (Value.Int 5));
  check Alcotest.bool "lt null false" false (Value.lt (Value.Int 5) Value.Null);
  check Alcotest.bool "string lexicographic" true
    (Value.lt (Value.String "abc") (Value.String "abd"));
  check Alcotest.bool "cross-type false" false
    (Value.lt (Value.Bool true) (Value.Int 5));
  check Alcotest.bool "false < true" true
    (Value.lt (Value.Bool false) (Value.Bool true))

let test_value_parse () =
  check value_testable "int" (Value.Int 42) (Value.of_string_guess "42");
  check value_testable "float" (Value.Float 3.5) (Value.of_string_guess "3.5");
  check value_testable "bool" (Value.Bool true) (Value.of_string_guess "true");
  check value_testable "null word" Value.Null (Value.of_string_guess "null");
  check value_testable "empty" Value.Null (Value.of_string_guess "");
  check value_testable "string" (Value.String "NBA") (Value.of_string_guess "NBA");
  check value_testable "trimmed" (Value.Int 7) (Value.of_string_guess " 7 ")

let value_qcheck =
  let open QCheck in
  [
    Test.make ~count:500 ~name:"value compare total order: antisymmetry"
      (pair value_arb value_arb)
      (fun (a, b) ->
        let c1 = Value.compare a b and c2 = Value.compare b a in
        (c1 = 0) = (c2 = 0) && (c1 > 0) = (c2 < 0));
    Test.make ~count:500 ~name:"value equal consistent with compare"
      (pair value_arb value_arb)
      (fun (a, b) -> Value.equal a b = (Value.compare a b = 0));
    Test.make ~count:500 ~name:"equal values share hash"
      (pair value_arb value_arb)
      (fun (a, b) -> (not (Value.equal a b)) || Value.hash a = Value.hash b);
    Test.make ~count:500 ~name:"lt is irreflexive and asymmetric"
      (pair value_arb value_arb)
      (fun (a, b) -> (not (Value.lt a b)) || not (Value.lt b a));
    Test.make ~count:500 ~name:"string roundtrip through of_string_guess"
      value_arb
      (fun v ->
        match v with
        | Value.String s
          when String.lowercase_ascii s <> "null"
               && String.lowercase_ascii s <> "true"
               && String.lowercase_ascii s <> "false"
               && int_of_string_opt s = None
               && float_of_string_opt s = None ->
            Value.equal (Value.of_string_guess (Value.to_string v)) v
        | Value.String _ -> true
        | _ -> Value.equal (Value.of_string_guess (Value.to_string v)) v);
  ]

(* The guess as it was before its string shortcut: the reference the
   shortcut must agree with. *)
let reference_guess s =
  let s = String.trim s in
  if s = "" || String.lowercase_ascii s = "null" then Value.Null
  else
    match String.lowercase_ascii s with
    | "true" -> Value.Bool true
    | "false" -> Value.Bool false
    | _ -> (
        match int_of_string_opt s with
        | Some i -> Value.Int i
        | None -> (
            match float_of_string_opt s with
            | Some f -> Value.Float f
            | None -> Value.String s))

(* Spellings biased toward the edges of the shortcut: keywords and
   number syntax in every case, letters next to whitespace String.trim
   strips (and the vertical tab it keeps), non-ASCII first bytes. *)
let spelling_gen =
  QCheck.Gen.(
    let piece =
      oneof
        [
          oneofl
            [
              "nan"; "NaN"; "Inf"; "inf"; "infinity"; "_5"; "\0115"; "0x1F";
              "1_000"; " 7 "; "NULL"; "null"; "True"; "FALSE"; "e5"; "E";
              "x1"; "a "; "Z\t"; "b\n"; "c\012"; "d\011"; "\xc3\xa9"; "\xff"; "-"; "+3"; ".5";
              "1e3"; "0b1"; "Bulls"; "q"; "";
            ];
          string_size ~gen:char (int_range 0 3);
          string_size
            ~gen:
              (oneofl
                 [ 'a'; 'N'; 'i'; 't'; 'x'; '1'; '_'; ' '; '\011'; '\012'; '\r'; '.'; 'e' ])
            (int_range 1 4);
        ]
    in
    map (String.concat "") (list_size (int_range 1 3) piece))

let guess_qcheck =
  QCheck.Test.make ~count:3000 ~name:"of_string_guess = the reference guess"
    (QCheck.make ~print:(Printf.sprintf "%S") spelling_gen)
    (fun s -> compare (Value.of_string_guess s) (reference_guess s) = 0)

(* Mixed numeric values, biased toward the regions where the old
   compare/hash pair broke: ints beyond the 2^53 float grid, integral
   floats up to the 63-bit boundary, signed zeroes, infinities, nan. *)
let numeric_value_gen =
  QCheck.Gen.(
    let big = 1 lsl 53 in
    oneof
      [
        map (fun i -> Value.Int i) (int_range (-10) 10);
        map
          (fun i -> Value.Int i)
          (oneofl
             [ max_int; min_int; big - 1; big; big + 1; -big; -big - 1 ]);
        map (fun d -> Value.Int (big + d)) (int_range 0 64);
        map (fun i -> Value.Float (float_of_int i)) (int_range (-10) 10);
        (* integral floats with large magnitudes (exact up to 2^62) *)
        map
          (fun i -> Value.Float (Float.ldexp (float_of_int i) 40))
          (int_range (-1000) 1000);
        map
          (fun f -> Value.Float f)
          (oneofl
             [
               0.; -0.; 0.5; -0.5; 0x1p53; 0x1p53 +. 2.; 0x1p62; -0x1p62;
               1e300; -1e300; infinity; neg_infinity; nan;
             ]);
        float |> map (fun f -> Value.Float f);
      ])

let numeric_arb = QCheck.make ~print:Value.to_string numeric_value_gen

let numeric_qcheck =
  let open QCheck in
  let cmp = Value.compare in
  [
    Test.make ~count:2000 ~name:"numeric compare: antisymmetry"
      (pair numeric_arb numeric_arb)
      (fun (a, b) ->
        let c1 = cmp a b and c2 = cmp b a in
        (c1 = 0) = (c2 = 0) && (c1 > 0) = (c2 < 0));
    Test.make ~count:2000 ~name:"numeric compare: transitivity"
      (triple numeric_arb numeric_arb numeric_arb)
      (fun (a, b, c) ->
        (not (cmp a b <= 0 && cmp b c <= 0)) || cmp a c <= 0);
    Test.make ~count:2000 ~name:"numeric equal consistent with compare"
      (pair numeric_arb numeric_arb)
      (fun (a, b) -> Value.equal a b = (cmp a b = 0));
    Test.make ~count:2000 ~name:"compare a b = 0 implies hash a = hash b"
      (pair numeric_arb numeric_arb)
      (fun (a, b) -> cmp a b <> 0 || Value.hash a = Value.hash b);
    (* [lt] keeps IEEE semantics (nan incomparable, always false),
       [compare] totalizes nan below everything — so they only have
       to agree away from nan. *)
    Test.make ~count:2000 ~name:"lt agrees with compare on non-nan numerics"
      (pair numeric_arb numeric_arb)
      (fun (a, b) ->
        let is_nan = function Value.Float f -> Float.is_nan f | _ -> false in
        is_nan a || is_nan b || Value.lt a b = (cmp a b < 0));
  ]

(* ------------------------------------------------------------------ *)
(* Intern                                                             *)
(* ------------------------------------------------------------------ *)

module Intern = Relational.Intern

let test_intern_basic () =
  let t = Intern.create () in
  check Alcotest.int "null pre-interned" Intern.null_id
    (Intern.intern t Value.Null);
  let a = Intern.intern t (Value.Int 3) in
  check Alcotest.int "second intern hits" a (Intern.intern t (Value.Int 3));
  check Alcotest.int "numerically equal float shares the id" a
    (Intern.intern t (Value.Float 3.0));
  check value_testable "round-trip keeps the first spelling" (Value.Int 3)
    (Intern.value t a);
  let b = Intern.intern t (Value.String "x") in
  check Alcotest.bool "distinct values, distinct ids" true (a <> b);
  check (Alcotest.option Alcotest.int) "find_opt hit" (Some b)
    (Intern.find_opt t (Value.String "x"));
  check (Alcotest.option Alcotest.int) "find_opt does not allocate ids" None
    (Intern.find_opt t (Value.Int 99));
  check Alcotest.int "size = null + 2" 3 (Intern.size t);
  Alcotest.check_raises "unknown id rejected"
    (Invalid_argument "Intern.value: unknown id") (fun () ->
      ignore (Intern.value t 99))

let test_intern_growth () =
  (* Push the table through several growths of its id->value array. *)
  let t = Intern.create () in
  let ids = Array.init 500 (fun i -> Intern.intern t (Value.Int i)) in
  Array.iteri
    (fun i id -> check value_testable "survives growth" (Value.Int i) (Intern.value t id))
    ids;
  check Alcotest.int "dense ids" 501 (Intern.size t)

let intern_qcheck =
  let open QCheck in
  [
    Test.make ~count:500 ~name:"intern ids coincide exactly on equal values"
      (pair numeric_arb numeric_arb)
      (fun (a, b) ->
        let t = Intern.create () in
        let ia = Intern.intern t a and ib = Intern.intern t b in
        (ia = ib) = Value.equal a b
        && Value.equal (Intern.value t ia) a
        && Value.equal (Intern.value t ib) b);
  ]

(* The hash-table interner as it was before the flat one-hash tables:
   a test-only oracle for the generation chain's observable behaviour.
   Its two counters stand in for [intern_hits_total] and
   [intern_table_size]. *)
module Intern_oracle = struct
  type t = {
    parent : t option;
    base : int;
    ids : int Value.Tbl.t;
    mutable values : Value.t array;
    mutable count : int;
    mutable frozen : bool;
  }

  let hits = ref 0
  let inserts = ref 0

  let create () =
    let t =
      {
        parent = None;
        base = 0;
        ids = Value.Tbl.create 256;
        values = Array.make 64 Value.Null;
        count = 1;
        frozen = false;
      }
    in
    Value.Tbl.replace t.ids Value.Null 0;
    t

  let freeze t = t.frozen <- true

  let extend parent =
    if not parent.frozen then invalid_arg "Intern.extend: the parent is not frozen";
    {
      parent = Some parent;
      base = parent.count;
      ids = Value.Tbl.create 64;
      values = Array.make 64 Value.Null;
      count = parent.count;
      frozen = false;
    }

  let rec find_frozen g v =
    match Value.Tbl.find g.ids v with
    | id -> id
    | exception Not_found -> ( match g.parent with Some p -> find_frozen p v | None -> -1)

  let intern_local t v =
    match Value.Tbl.find t.ids v with
    | id ->
        incr hits;
        id
    | exception Not_found -> (
        match match t.parent with Some p -> find_frozen p v | None -> -1 with
        | -1 ->
            let id = t.count in
            let k = id - t.base in
            if k = Array.length t.values then begin
              let grown = Array.make (2 * k) Value.Null in
              Array.blit t.values 0 grown 0 k;
              t.values <- grown
            end;
            t.values.(k) <- v;
            t.count <- id + 1;
            Value.Tbl.add t.ids v id;
            incr inserts;
            id
        | id ->
            Value.Tbl.add t.ids v id;
            incr hits;
            id)

  let intern t v =
    if t.frozen then (
      match find_frozen t v with
      | -1 -> invalid_arg "Intern.intern: a value new to a frozen generation"
      | id ->
          incr hits;
          id)
    else intern_local t v

  let find_opt t v =
    if t.frozen then match find_frozen t v with -1 -> None | id -> Some id
    else
      match Value.Tbl.find_opt t.ids v with
      | Some _ as found -> found
      | None -> (
          match t.parent with
          | Some p -> ( match find_frozen p v with -1 -> None | id -> Some id)
          | None -> None)

  let rec value t id =
    if id < 0 || id >= t.count then invalid_arg "Intern.value: unknown id"
    else if id < t.base then
      match t.parent with Some p -> value p id | None -> invalid_arg "Intern.value: unknown id"
    else t.values.(id - t.base)

  let size t = t.count
end

(* Operations on a chain of up to three generations: [g] picks one of
   the live generations (modulo their number); [Advance] freezes the
   newest and extends it, up to twice. *)
type intern_op =
  | I_intern of int * Value.t
  | I_find of int * Value.t
  | I_value of int * int
  | I_size of int
  | I_advance

let intern_op_gen =
  let open QCheck.Gen in
  (* Int/Float twins, null, a boolean, and more strings than the
     tables' first sizes: growth and collisions both happen. *)
  let value =
    frequency
      [
        (1, return Value.Null);
        (1, map (fun b -> Value.Bool b) bool);
        (3, map (fun i -> Value.Int i) (int_range (-20) 20));
        (3, map (fun i -> Value.Float (float_of_int i)) (int_range (-20) 20));
        (1, map (fun i -> Value.Float (float_of_int i +. 0.5)) (int_range (-5) 5));
        (6, map (fun i -> Value.String (Printf.sprintf "s%d" i)) (int_bound 400));
      ]
  in
  let g = int_bound 2 in
  frequency
    [
      (12, map2 (fun g v -> I_intern (g, v)) g value);
      (3, map2 (fun g v -> I_find (g, v)) g value);
      (2, map2 (fun g i -> I_value (g, i)) g (int_bound 500));
      (1, map (fun g -> I_size g) g);
      (1, return I_advance);
    ]

let show_intern_op = function
  | I_intern (g, v) -> Printf.sprintf "intern %d %s" g (Format.asprintf "%a" Value.pp v)
  | I_find (g, v) -> Printf.sprintf "find %d %s" g (Format.asprintf "%a" Value.pp v)
  | I_value (g, i) -> Printf.sprintf "value %d %d" g i
  | I_size g -> Printf.sprintf "size %d" g
  | I_advance -> "advance"

let obs_counter name = match Obs.find name with Some (Obs.Counter n) -> n | _ -> 0

(* Same result on both sides: equal ids, the same spelling of a
   value, or the same [Invalid_argument]. Spellings are compared
   structurally: [Int 2] and [Float 2.] are different first
   spellings. *)
let intern_matches_oracle =
  QCheck.Test.make ~count:300 ~name:"intern = the hash-table oracle over a three-generation chain"
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_intern_op ops))
       QCheck.Gen.(list_size (int_range 1 600) intern_op_gen))
    (fun ops ->
      let was = Obs.enabled () in
      Obs.set_enabled true;
      Fun.protect ~finally:(fun () -> Obs.set_enabled was) @@ fun () ->
      let hits0 = obs_counter "intern_hits_total" and size0 = obs_counter "intern_table_size" in
      Intern_oracle.hits := 0;
      Intern_oracle.inserts := 0;
      let real = ref [| Intern.create () |] and oracle = ref [| Intern_oracle.create () |] in
      let pick gens k = gens.(k mod Array.length gens) in
      let outcome f = match f () with r -> Ok r | exception Invalid_argument m -> Error m in
      let step op =
        match op with
        | I_advance ->
            let n = Array.length !real in
            if n < 3 then begin
              Intern.freeze !real.(n - 1);
              Intern_oracle.freeze !oracle.(n - 1);
              real := Array.append !real [| Intern.extend !real.(n - 1) |];
              oracle := Array.append !oracle [| Intern_oracle.extend !oracle.(n - 1) |]
            end;
            true
        | I_intern (k, v) ->
            outcome (fun () -> Intern.intern (pick !real k) v)
            = outcome (fun () -> Intern_oracle.intern (pick !oracle k) v)
        | I_find (k, v) -> Intern.find_opt (pick !real k) v = Intern_oracle.find_opt (pick !oracle k) v
        | I_value (k, i) ->
            outcome (fun () -> Intern.value (pick !real k) i)
            = outcome (fun () -> Intern_oracle.value (pick !oracle k) i)
        | I_size k -> Intern.size (pick !real k) = Intern_oracle.size (pick !oracle k)
      in
      List.for_all
        (fun op -> step op || QCheck.Test.fail_reportf "differs at: %s" (show_intern_op op))
        ops
      && obs_counter "intern_hits_total" - hits0 = !Intern_oracle.hits
      && obs_counter "intern_table_size" - size0 = !Intern_oracle.inserts)

(* Two domains intern the same fresh values, in opposite orders, into
   one generation that is not frozen: every value gets one id, whichever
   domain inserted it, and the generation holds each value once. *)
let test_intern_two_domains () =
  let root = Intern.create () in
  ignore (Intern.intern root (Value.String "master") : int);
  Intern.freeze root;
  let g = Intern.extend root in
  let values =
    Array.init 3000 (fun i ->
        if i mod 3 = 0 then Value.Int (i / 3)
        else if i mod 3 = 1 then Value.Float (float_of_int (i / 3))
        else Value.String (Printf.sprintf "v%d" i))
  in
  let n = Array.length values in
  let run order = Domain.spawn (fun () -> Array.init n (fun k -> Intern.intern g values.(order k))) in
  let a = run Fun.id and b = run (fun k -> n - 1 - k) in
  let ids_a = Domain.join a and ids_b = Domain.join b in
  Array.iteri
    (fun k id ->
      check Alcotest.int "one id per value, whichever domain inserted it" id ids_b.(n - 1 - k);
      check value_testable "the id decodes to its value" values.(k) (Intern.value g id))
    ids_a;
  (* Int k and Float k are one value: 2,000 distinct, over the root's 2. *)
  check Alcotest.int "size counts each distinct value once" (2 + 2000) (Intern.size g)

(* ------------------------------------------------------------------ *)
(* Schema                                                             *)
(* ------------------------------------------------------------------ *)

let test_schema_basic () =
  let s = Schema.make "r" [ "a"; "b"; "c" ] in
  check Alcotest.int "arity" 3 (Schema.arity s);
  check Alcotest.string "name" "r" (Schema.name s);
  check Alcotest.int "index b" 1 (Schema.index s "b");
  check Alcotest.string "attribute 2" "c" (Schema.attribute s 2);
  check Alcotest.bool "mem" true (Schema.mem s "a");
  check Alcotest.bool "not mem" false (Schema.mem s "z");
  check Alcotest.(option int) "index_opt" None (Schema.index_opt s "z")

let test_schema_errors () =
  Alcotest.check_raises "duplicate attr"
    (Invalid_argument "Schema.make: duplicate attribute \"a\"") (fun () ->
      ignore (Schema.make "r" [ "a"; "a" ]));
  Alcotest.check_raises "empty" (Invalid_argument "Schema.make: empty attribute list")
    (fun () -> ignore (Schema.make "r" []))

let test_schema_project () =
  let s = Schema.make "r" [ "a"; "b"; "c" ] in
  let p = Schema.project s [ "c"; "a" ] in
  check Alcotest.int "projected arity" 2 (Schema.arity p);
  check Alcotest.string "order kept" "c" (Schema.attribute p 0)

(* ------------------------------------------------------------------ *)
(* Tuple                                                              *)
(* ------------------------------------------------------------------ *)

let test_tuple_basic () =
  let t = Tuple.make ~tid:3 ~source:1 ~snapshot:2 [| Value.Int 1; Value.Null |] in
  check Alcotest.int "arity" 2 (Tuple.arity t);
  check Alcotest.int "tid" 3 (Tuple.tid t);
  check Alcotest.int "source" 1 (Tuple.source t);
  check Alcotest.int "snapshot" 2 (Tuple.snapshot t);
  check value_testable "get" (Value.Int 1) (Tuple.get t 0);
  let t2 = Tuple.set t 1 (Value.String "x") in
  check value_testable "set fresh" (Value.String "x") (Tuple.get t2 1);
  check value_testable "original untouched" Value.Null (Tuple.get t 1)

let test_tuple_defensive_copy () =
  let arr = [| Value.Int 1 |] in
  let t = Tuple.make arr in
  arr.(0) <- Value.Int 99;
  check value_testable "make copies input" (Value.Int 1) (Tuple.get t 0);
  let values = Tuple.values t in
  values.(0) <- Value.Int 42;
  check value_testable "values copies output" (Value.Int 1) (Tuple.get t 0)

let test_tuple_compare () =
  let a = Tuple.make [| Value.Int 1; Value.Int 2 |] in
  let b = Tuple.make [| Value.Int 1; Value.Int 3 |] in
  check Alcotest.bool "equal_values" true
    (Tuple.equal_values a (Tuple.make [| Value.Int 1; Value.Int 2 |]));
  check Alcotest.bool "lexicographic" true (Tuple.compare_values a b < 0)

(* ------------------------------------------------------------------ *)
(* Relation                                                           *)
(* ------------------------------------------------------------------ *)

let sample_relation () =
  let s = Schema.make "r" [ "a"; "b" ] in
  Relation.make s
    [
      Tuple.make [| Value.Int 1; Value.String "x" |];
      Tuple.make [| Value.Int 2; Value.String "x" |];
      Tuple.make [| Value.Int 1; Value.Null |];
    ]

let test_relation_basic () =
  let r = sample_relation () in
  check Alcotest.int "size" 3 (Relation.size r);
  check value_testable "get" (Value.Int 2) (Relation.get r 1 0);
  check Alcotest.int "tids renumbered" 2 (Tuple.tid (Relation.tuple r 2));
  check Alcotest.int "column length" 3 (Array.length (Relation.column r 0))

let test_relation_arity_mismatch () =
  let s = Schema.make "r" [ "a"; "b" ] in
  Alcotest.check_raises "arity checked"
    (Invalid_argument "Relation.make: tuple arity 1, schema r has arity 2")
    (fun () -> ignore (Relation.make s [ Tuple.make [| Value.Int 1 |] ]))

let test_relation_filter_map () =
  let r = sample_relation () in
  let f = Relation.filter r (fun t -> not (Value.is_null (Tuple.get t 1))) in
  check Alcotest.int "filtered" 2 (Relation.size f);
  let m = Relation.map r (fun t -> Tuple.set t 0 (Value.Int 0)) in
  check value_testable "mapped" (Value.Int 0) (Relation.get m 2 0)

(* ------------------------------------------------------------------ *)
(* CSV                                                                *)
(* ------------------------------------------------------------------ *)

let test_csv_parse_simple () =
  check
    Alcotest.(list (list string))
    "basic" [ [ "a"; "b" ]; [ "1"; "2" ] ]
    (Csv.parse_string "a,b\n1,2\n")

let test_csv_quotes () =
  check
    Alcotest.(list (list string))
    "quoted comma and newline"
    [ [ "a,b"; "c\nd"; "e\"f" ] ]
    (Csv.parse_string "\"a,b\",\"c\nd\",\"e\"\"f\"\n")

let test_csv_unterminated () =
  (* The typed error carries the 1-based row where the quote opened. *)
  match Csv.parse_string_result "a,b\n\"abc" with
  | Ok _ -> Alcotest.fail "expected Csv_shape error"
  | Error (Robust.Error.Csv_shape { row; detail; _ }) ->
      check Alcotest.(option int) "row" (Some 2) row;
      let contains s sub =
        let n = String.length s and m = String.length sub in
        let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
        go 0
      in
      check Alcotest.bool "mentions quote" true (contains detail "unterminated")
  | Error e -> Alcotest.failf "wrong error class: %s" (Robust.Error.to_string e)

let test_csv_unterminated_raises () =
  match Csv.parse_string "\"abc" with
  | _ -> Alcotest.fail "expected Robust.Error.Error"
  | exception Robust.Error.Error (Robust.Error.Csv_shape _) -> ()

let csv_qcheck =
  let open QCheck in
  let field =
    string_gen_of_size (Gen.int_bound 8)
      Gen.(oneof [ char_range 'a' 'z'; return ','; return '"'; return '\n' ])
  in
  [
    Test.make ~count:300 ~name:"csv render/parse roundtrip"
      (list_of_size (Gen.int_range 1 6) (list_of_size (Gen.int_range 1 5) field))
      (fun rows -> Csv.parse_string (Csv.render rows) = rows);
  ]

let test_csv_ragged_rejected () =
  (match
     Csv.relation_of_rows_result ~file:"t.csv" ~name:"r"
       [ [ "a"; "b" ]; [ "1"; "2" ]; [ "1" ] ]
   with
  | Ok _ -> Alcotest.fail "expected ragged-row error"
  | Error (Robust.Error.Csv_shape { file; row; _ }) ->
      check Alcotest.(option string) "file" (Some "t.csv") file;
      (* header is row 1, so the ragged data row is row 3 *)
      check Alcotest.(option int) "row" (Some 3) row
  | Error e -> Alcotest.failf "wrong error class: %s" (Robust.Error.to_string e));
  (match Csv.relation_of_rows_result ~name:"r" [] with
  | Error (Robust.Error.Csv_shape _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected empty-input error");
  match Csv.relation_of_rows ~name:"r" [ [ "a" ]; [ "1"; "2" ] ] with
  | _ -> Alcotest.fail "expected Robust.Error.Error"
  | exception Robust.Error.Error (Robust.Error.Csv_shape _) -> ()

(* The two-pass loader as it was before the one-pass scanner: a
   character loop into a [string list list], then a typing pass. It
   is the reference the scanner is compared against. *)
let reference_parse ?file input =
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
      Error (Robust.Error.csv_shape ?file ~row "unterminated quoted field")
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

let reference_relation ?file ~name rows =
  match rows with
  | [] ->
      Error (Robust.Error.csv_shape ?file "empty input, expected a header row")
  | header :: data -> (
      match Schema.make name header with
      | exception Invalid_argument msg ->
          Error (Robust.Error.csv_shape ?file ~row:1 msg)
      | schema ->
          let arity = Schema.arity schema in
          let rec convert i acc = function
            | [] -> Ok (Relation.make schema (List.rev acc))
            | row :: rest ->
                let n = List.length row in
                if n <> arity then
                  Error
                    (Robust.Error.csv_shape ?file ~row:(i + 2)
                       (Printf.sprintf "ragged row: %d fields, header has %d" n
                          arity))
                else
                  convert (i + 1)
                    (Tuple.make (Array.of_list (List.map reference_guess row))
                    :: acc)
                    rest
          in
          convert 0 [] data)

(* The reference parse, except in the one place the scanner differs on
   purpose: a last record that opens a quote but holds no byte of
   content keeps its row, as if the text ended in a newline. Such a
   record has no newline in it, so it is the text after the last
   ['\n']. *)
let expected_parse ?file text =
  match reference_parse ?file text with
  | Error _ as e -> e
  | Ok rows ->
      let tail =
        match String.rindex_opt text '\n' with
        | Some i -> String.sub text (i + 1) (String.length text - i - 1)
        | None -> text
      in
      if String.contains tail '"' then reference_parse ?file (text ^ "\n")
      else Ok rows

let same_relation a b =
  Schema.name (Relation.schema a) = Schema.name (Relation.schema b)
  && Schema.attributes (Relation.schema a) = Schema.attributes (Relation.schema b)
  && Relation.size a = Relation.size b
  && List.for_all2
       (fun x y ->
         Tuple.tid x = Tuple.tid y
         && Tuple.source x = Tuple.source y
         && Tuple.snapshot x = Tuple.snapshot y
         (* constructor-exact, nan included *)
         && compare (Tuple.values x) (Tuple.values y) = 0)
       (Relation.tuples a) (Relation.tuples b)

let same_result same a b =
  match (a, b) with
  | Ok x, Ok y -> same x y
  | Error e, Error f -> Robust.Error.to_string e = Robust.Error.to_string f
  | Ok _, Error _ | Error _, Ok _ -> false

(* Texts over the bytes and pieces that steer the scanner: delimiters,
   quotes (doubled, unterminated), carriage returns, empty lines,
   ragged rows, repeated headers, and cells of every type. *)
let csv_text_gen =
  QCheck.Gen.(
    map (String.concat "")
      (list_size (int_range 0 40)
         (frequency
            [
              (4, oneofl [ ","; "\n" ]);
              (2, oneofl [ "\""; "\"\""; "\r"; "\r\n"; "\n\n" ]);
              ( 6,
                oneofl
                  [
                    "a"; "b"; "ab"; "x y"; " 7 "; "1"; "2.5"; "-3"; "null"; "TRUE";
                    "nan"; "_5"; "Bulls"; "é";
                  ] );
            ])))

let scanner_qcheck =
  QCheck.Test.make ~count:1000
    ~name:"parse_string_result and read_relation = the two-pass reference"
    (QCheck.make ~print:(Printf.sprintf "%S") csv_text_gen)
    (fun text ->
      let path = Filename.temp_file "relacc_csv" ".csv" in
      Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc text);
      let expected = expected_parse ~file:path text in
      same_result ( = ) (Csv.parse_string_result ~file:path text) expected
      && same_result same_relation
           (Csv.read_relation ~name:"r" path)
           (Result.bind expected (reference_relation ~file:path ~name:"r")))

let test_csv_final_empty_quoted () =
  (* The two-pass parser dropped this row: the final record opens a
     quote but holds no byte of content. *)
  check
    Alcotest.(list (list string))
    "final empty quoted field" [ [ "a" ]; [ "" ] ]
    (Csv.parse_string "a\n\"\"");
  check
    Alcotest.(list (list string))
    "final carriage return is still no row" [ [ "a" ] ]
    (Csv.parse_string "a\n\r");
  let r = Csv.relation_of_rows ~name:"r" (Csv.parse_string "a\n\"\"") in
  check Alcotest.int "one-column relation keeps the row" 1 (Relation.size r);
  check value_testable "as null" Value.Null (Relation.get r 0 0)

(* Equal cells of a column share one value; a thousand distinct cells
   of one length after them, more than a column's cache holds, must
   each still read as its own spelling. *)
let test_csv_shared_spellings () =
  let path = Filename.temp_file "relacc_csv" ".csv" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Out_channel.with_open_bin path (fun oc ->
      output_string oc "n,s\n12,Bulls\n12,Bulls\n\"12\",\"Bulls\"\n";
      for i = 0 to 999 do
        Printf.fprintf oc "%d,w%03d\n" (1000 + i) i
      done);
  match Csv.read_relation path with
  | Error e -> Alcotest.fail (Robust.Error.to_string e)
  | Ok r ->
      check value_testable "typed" (Value.Int 12) (Relation.get r 0 0);
      for c = 0 to 1 do
        for i = 1 to 2 do
          check Alcotest.bool
            (Printf.sprintf "column %d, row %d shares row 0's value" c i)
            true
            (Relation.get r 0 c == Relation.get r i c)
        done
      done;
      for i = 0 to 999 do
        if
          Relation.get r (3 + i) 0 <> Value.Int (1000 + i)
          || Relation.get r (3 + i) 1 <> Value.String (Printf.sprintf "w%03d" i)
        then Alcotest.failf "row %d misread" (3 + i)
      done

let test_csv_relation_roundtrip () =
  let r = sample_relation () in
  let r2 = Csv.relation_of_rows ~name:"r" (Csv.relation_to_rows r) in
  check Alcotest.int "same size" (Relation.size r) (Relation.size r2);
  check Alcotest.bool "same tuples" true
    (List.for_all2 Tuple.equal_values (Relation.tuples r) (Relation.tuples r2))

let () =
  Alcotest.run "relational"
    [
      ( "value",
        [
          Alcotest.test_case "equality" `Quick test_value_equal;
          Alcotest.test_case "domain lt" `Quick test_value_lt;
          Alcotest.test_case "parse" `Quick test_value_parse;
        ]
        @ List.map QCheck_alcotest.to_alcotest value_qcheck
        @ List.map QCheck_alcotest.to_alcotest (numeric_qcheck @ [ guess_qcheck ])
      );
      ( "intern",
        [
          Alcotest.test_case "basic" `Quick test_intern_basic;
          Alcotest.test_case "growth" `Quick test_intern_growth;
        ]
        @ List.map QCheck_alcotest.to_alcotest intern_qcheck
        @ [
            QCheck_alcotest.to_alcotest intern_matches_oracle;
            Alcotest.test_case "two domains, one generation" `Quick test_intern_two_domains;
          ] );
      ( "schema",
        [
          Alcotest.test_case "basic" `Quick test_schema_basic;
          Alcotest.test_case "errors" `Quick test_schema_errors;
          Alcotest.test_case "project" `Quick test_schema_project;
        ] );
      ( "tuple",
        [
          Alcotest.test_case "basic" `Quick test_tuple_basic;
          Alcotest.test_case "defensive copies" `Quick test_tuple_defensive_copy;
          Alcotest.test_case "compare" `Quick test_tuple_compare;
        ] );
      ( "relation",
        [
          Alcotest.test_case "basic" `Quick test_relation_basic;
          Alcotest.test_case "arity mismatch" `Quick test_relation_arity_mismatch;
          Alcotest.test_case "filter/map" `Quick test_relation_filter_map;
        ] );
      ( "csv",
        [
          Alcotest.test_case "parse simple" `Quick test_csv_parse_simple;
          Alcotest.test_case "quotes" `Quick test_csv_quotes;
          Alcotest.test_case "unterminated" `Quick test_csv_unterminated;
          Alcotest.test_case "unterminated raises typed" `Quick
            test_csv_unterminated_raises;
          Alcotest.test_case "relation roundtrip" `Quick test_csv_relation_roundtrip;
          Alcotest.test_case "ragged/empty rejected" `Quick test_csv_ragged_rejected;
          Alcotest.test_case "final empty quoted field" `Quick
            test_csv_final_empty_quoted;
          Alcotest.test_case "shared spellings" `Quick test_csv_shared_spellings;
        ]
        @ List.map QCheck_alcotest.to_alcotest (scanner_qcheck :: csv_qcheck) );
    ]
