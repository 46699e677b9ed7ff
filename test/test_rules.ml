(* Tests for the rules library: operator semantics, rule validation,
   axioms, the concrete-syntax parser (including a printer/parser
   roundtrip property over random rule ASTs), and Instantiation. *)

module Value = Relational.Value
module Schema = Relational.Schema
module Tuple = Relational.Tuple
module Relation = Relational.Relation
module Ar = Rules.Ar
module Axioms = Rules.Axioms
module Ruleset = Rules.Ruleset
module Parser = Rules.Parser
module Ground = Rules.Ground

let check = Alcotest.check

let schema = Schema.make "r" [ "a"; "b"; "c"; "weird name" ]
let master = Schema.make "m" [ "ma"; "mb" ]

(* ------------------------------------------------------------------ *)
(* Operator semantics                                                 *)
(* ------------------------------------------------------------------ *)

let test_eval_op () =
  let t = Alcotest.bool in
  check t "null = null" true (Ar.eval_op Ar.Eq Value.Null Value.Null);
  check t "null != 1" true (Ar.eval_op Ar.Neq Value.Null (Value.Int 1));
  check t "null < 1 is false" false (Ar.eval_op Ar.Lt Value.Null (Value.Int 1));
  check t "1 <= 1" true (Ar.eval_op Ar.Leq (Value.Int 1) (Value.Int 1));
  check t "2 >= 1" true (Ar.eval_op Ar.Geq (Value.Int 2) (Value.Int 1));
  check t "cross-type < false" false
    (Ar.eval_op Ar.Lt (Value.String "1") (Value.Int 2))

let ops = [ Ar.Eq; Ar.Neq; Ar.Lt; Ar.Gt; Ar.Leq; Ar.Geq ]

let test_negate_mirror () =
  (* mirror holds universally; negate is a logical complement only on
     comparable (same-domain, non-null) operands — with null or
     cross-type operands both an inequality and its negation evaluate
     to false under the FO semantics. *)
  let all = [ Value.Null; Value.Int 1; Value.Int 2; Value.String "x"; Value.String "y" ] in
  let comparable = [ Value.Int 1; Value.Int 2; Value.Int 3 ] in
  List.iter
    (fun op ->
      List.iter
        (fun a ->
          List.iter
            (fun b ->
              check Alcotest.bool "mirror swaps" (Ar.eval_op op a b)
                (Ar.eval_op (Ar.mirror_op op) b a))
            all)
        all;
      List.iter
        (fun a ->
          List.iter
            (fun b ->
              check Alcotest.bool "negate flips on comparable values"
                (Ar.eval_op op a b)
                (not (Ar.eval_op (Ar.negate_op op) a b)))
            comparable)
        comparable)
    ops

(* ------------------------------------------------------------------ *)
(* Validation                                                         *)
(* ------------------------------------------------------------------ *)

let ord ?(strict = false) attr : Ar.ord_atom =
  { strict; left = Ar.T1; right = Ar.T2; attr }

let test_validate () =
  let ok =
    Ar.Form1 { f1_name = "ok"; f1_lhs = []; f1_rhs = ord 0 }
  in
  check Alcotest.bool "valid rule" true
    (Result.is_ok (Ar.validate ~schema ~master:None ok));
  let bad = Ar.Form1 { f1_name = "bad"; f1_lhs = []; f1_rhs = ord 9 } in
  check Alcotest.bool "attr out of range" true
    (Result.is_error (Ar.validate ~schema ~master:None bad));
  let f2 =
    Ar.Form2 { f2_name = "m"; f2_lhs = []; f2_te_attr = 0; f2_tm_attr = 1 }
  in
  check Alcotest.bool "form2 without master rejected" true
    (Result.is_error (Ar.validate ~schema ~master:None f2));
  check Alcotest.bool "form2 with master ok" true
    (Result.is_ok (Ar.validate ~schema ~master:(Some master) f2))

let test_ruleset_counts () =
  let r1 = Ar.Form1 { f1_name = "x"; f1_lhs = []; f1_rhs = ord 0 } in
  let r2 =
    Ar.Form2 { f2_name = "y"; f2_lhs = []; f2_te_attr = 0; f2_tm_attr = 0 }
  in
  let rs = Ruleset.make_exn ~schema ~master [ r1; r2 ] in
  check Alcotest.int "user size" 2 (Ruleset.size rs);
  check Alcotest.int "form1" 1 (Ruleset.form1_count rs);
  check Alcotest.int "form2" 1 (Ruleset.form2_count rs);
  (* 3 axioms per attribute *)
  check Alcotest.int "all rules includes axioms"
    (2 + (3 * Schema.arity schema))
    (List.length (Ruleset.rules rs));
  let restricted = Ruleset.restrict rs `Form1_only in
  check Alcotest.int "restricted" 1 (Ruleset.size restricted);
  check Alcotest.bool "find" true (Ruleset.find rs "x" <> None);
  check Alcotest.int "remove" 1 (Ruleset.size (Ruleset.remove rs "x"))

let test_axioms_recognized () =
  List.iter
    (fun r -> check Alcotest.bool "is_axiom" true (Axioms.is_axiom r))
    (Axioms.all schema);
  check Alcotest.bool "user rule is not axiom" false
    (Axioms.is_axiom (Ar.Form1 { f1_name = "u"; f1_lhs = []; f1_rhs = ord 0 }))

(* ------------------------------------------------------------------ *)
(* Parser                                                             *)
(* ------------------------------------------------------------------ *)

let parse_ok text = Parser.parse_exn ~schema ~master text

let test_parse_form1 () =
  match parse_ok "rule p: forall t1, t2: t1.a = t2.a and t1.b < t2.b -> t1 <=[c] t2" with
  | [ Ar.Form1 r ] ->
      check Alcotest.string "name" "p" r.f1_name;
      check Alcotest.int "two preds" 2 (List.length r.f1_lhs);
      check Alcotest.int "concl attr" 2 r.f1_rhs.attr;
      check Alcotest.bool "non-strict" false r.f1_rhs.strict
  | _ -> Alcotest.fail "expected one form1 rule"

let test_parse_strict_and_quoted () =
  match parse_ok {|rule q: forall t1, t2: t1 <["weird name"] t2 -> t2 <[a] t1|} with
  | [ Ar.Form1 r ] ->
      (match r.f1_lhs with
      | [ Ar.Ord { strict = true; attr = 3; _ } ] -> ()
      | _ -> Alcotest.fail "expected strict ord pred on quoted attr");
      check Alcotest.bool "rhs strict" true r.f1_rhs.strict;
      check Alcotest.bool "rhs sides swapped" true
        (r.f1_rhs.left = Ar.T2 && r.f1_rhs.right = Ar.T1)
  | _ -> Alcotest.fail "expected one rule"

let test_parse_constants () =
  match
    parse_ok
      {|rule c: forall t1, t2: t1.a = "NBA" and t2.b != null and t1.c >= 3 -> t1 <=[a] t2|}
  with
  | [ Ar.Form1 r ] -> check Alcotest.int "three preds" 3 (List.length r.f1_lhs)
  | _ -> Alcotest.fail "expected one rule"

let test_parse_te_reference () =
  match parse_ok "rule t: forall t1, t2: t2.a = te.a -> t1 <=[b] t2" with
  | [ Ar.Form1 { f1_lhs = [ Ar.Cmp (Ar.Tuple_attr (Ar.T2, 0), Ar.Eq, Ar.Target_attr 0) ]; _ } ]
    -> ()
  | _ -> Alcotest.fail "expected te-referencing predicate"

let test_parse_form2 () =
  match
    parse_ok
      {|rule m: forall tm: te.a = tm.ma and tm.mb = "x" -> te.b := tm.mb; te.c := tm.ma|}
  with
  | [ Ar.Form2 r1; Ar.Form2 r2 ] ->
      check Alcotest.string "expanded name 1" "m#1" r1.f2_name;
      check Alcotest.string "expanded name 2" "m#2" r2.f2_name;
      check Alcotest.int "te attr 1" 1 r1.f2_te_attr;
      check Alcotest.int "tm attr 2" 0 r2.f2_tm_attr
  | _ -> Alcotest.fail "expected two expanded form2 rules"

let test_parse_errors () =
  let err text =
    match Parser.parse ~schema ~master text with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail ("should not parse: " ^ text)
  in
  err "rule x: forall t1, t2: t1.zzz = 1 -> t1 <=[a] t2";
  err "rule x: forall t1, t2: t1.a -> t1 <=[a] t2";
  err "rule x: forall t1, t2: t1.a = t2.a t1 <=[a] t2";
  err "rule x: forall t1, t2 in wrong_name: t1.a = t2.a -> t1 <=[a] t2";
  err "nonsense"

let test_parse_comments_and_empty_lhs () =
  match parse_ok "# a comment\nrule e: forall t1, t2: true -> t1 <=[a] t2" with
  | [ Ar.Form1 { f1_lhs = []; _ } ] -> ()
  | _ -> Alcotest.fail "expected empty LHS"

(* Roundtrip property over random rule ASTs. *)
let gen_rule =
  let open QCheck.Gen in
  let attr = int_bound (Schema.arity schema - 1) in
  let mattr = int_bound (Schema.arity master - 1) in
  let side = oneofl [ Ar.T1; Ar.T2 ] in
  let op = oneofl ops in
  let const =
    oneof
      [
        return Value.Null;
        map (fun i -> Value.Int i) (int_range (-9) 9);
        map (fun b -> Value.Bool b) bool;
        map (fun s -> Value.String s) (string_size ~gen:(char_range 'a' 'z') (int_range 1 5));
      ]
  in
  let term =
    oneof
      [
        map2 (fun s a -> Ar.Tuple_attr (s, a)) side attr;
        map (fun a -> Ar.Target_attr a) attr;
        map (fun v -> Ar.Const v) const;
      ]
  in
  let pred =
    oneof
      [
        (* avoid the unsupported te-vs-te comparison *)
        (map3 (fun l o a -> Ar.Cmp (l, o, Ar.Tuple_attr (Ar.T2, a))) term op attr);
        map3
          (fun s a strict -> Ar.Ord { strict; left = s; right = (if s = Ar.T1 then Ar.T2 else Ar.T1); attr = a })
          side attr bool;
      ]
  in
  let form1 =
    map3
      (fun name lhs (strict, attr) ->
        Ar.Form1 { f1_name = "r" ^ string_of_int name; f1_lhs = lhs; f1_rhs = { strict; left = Ar.T1; right = Ar.T2; attr } })
      (int_bound 999)
      (list_size (int_bound 4) pred)
      (pair bool attr)
  in
  let mpred =
    oneof
      [
        map3 (fun a o v -> Ar.Te_const (a, o, v)) attr op const;
        map2 (fun a b -> Ar.Te_master (a, b)) attr mattr;
        map3 (fun b o v -> Ar.Master_const (b, o, v)) mattr op const;
      ]
  in
  let form2 =
    map3
      (fun name lhs (a, b) ->
        Ar.Form2 { f2_name = "m" ^ string_of_int name; f2_lhs = lhs; f2_te_attr = a; f2_tm_attr = b })
      (int_bound 999)
      (list_size (int_bound 4) mpred)
      (pair attr mattr)
  in
  oneof [ form1; form2 ]

let rule_print r =
  Format.asprintf "%a" (fun ppf -> Ar.pp ~schema ~master ppf) r

(* The parser must never raise on arbitrary input — only return
   Error (fuzz). *)
let parser_total =
  QCheck.Test.make ~count:500 ~name:"parser total on arbitrary input"
    QCheck.(string_gen_of_size (Gen.int_bound 60) Gen.printable)
    (fun text ->
      match Parser.parse ~schema ~master text with
      | Ok _ | Error _ -> true)

let parser_roundtrip =
  QCheck.Test.make ~count:400 ~name:"printer/parser roundtrip"
    (QCheck.make ~print:rule_print gen_rule)
    (fun rule ->
      match Parser.parse ~schema ~master (Parser.to_string ~schema ~master [ rule ]) with
      | Ok [ parsed ] -> parsed = rule
      | Ok _ -> false
      | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* Grounding                                                          *)
(* ------------------------------------------------------------------ *)

let instance =
  Relation.make schema
    [
      Tuple.make [| Value.Int 1; Value.String "x"; Value.Null; Value.Int 0 |];
      Tuple.make [| Value.Int 2; Value.String "x"; Value.Null; Value.Int 0 |];
      Tuple.make [| Value.Int 2; Value.String "y"; Value.Int 5; Value.Int 0 |];
    ]

let orders_of rel =
  Array.init (Schema.arity (Relation.schema rel)) (fun a ->
      Ordering.Attr_order.numbering_of_column (Relation.column rel a))

(* A fresh scope: the master's own index and an entity generation
   over its generation, or a table of its own without a master. *)
let scope ruleset master =
  let midx = Option.map Rules.Master_index.create master in
  let intern =
    match midx with
    | Some m -> Rules.Master_index.extend m ruleset
    | None -> Relational.Intern.create ()
  in
  (intern, midx)

(* The engine's Γ with every template materialized over every master
   row, decoded into step records: the literal Γ less its axiom steps
   (up to the provenance of a materialized duplicate, see
   {!Ground.instantiate}). *)
let ground_steps ~ruleset ~entity ~master ~orders =
  let intern, midx = scope ruleset master in
  let g = Ground.fork (Ground.instantiate ~intern ~ruleset ~entity ~master:midx ~orders ()) in
  Option.iter
    (fun m ->
      let rows = List.init (Relation.size m) Fun.id in
      Array.iter
        (fun t -> Ground.materialize g ~rows (Ground.template_id t) ~on_new:ignore)
        (Ground.templates g))
    master;
  List.init (Ground.count g) (Ground.step g)

(* The literal grounding of a ruleset, axioms included. *)
let literal_steps ~ruleset ~entity ~master ~orders =
  Oracle.Literal_ground.ground ~rules:(Ruleset.rules ruleset) ~entity ~master ~orders

let ground rules =
  let rs = Ruleset.make_exn ~include_axioms:false ~schema ~master rules in
  ground_steps ~ruleset:rs ~entity:instance ~master:None ~orders:(orders_of instance)

let test_ground_constant_folding () =
  (* t1.a < t2.a -> t1 ⪯a t2: only the pairs with a strictly smaller
     a-value survive; conclusions are class edges. *)
  let rule =
    Ar.Form1
      {
        f1_name = "cur";
        f1_lhs = [ Ar.Cmp (Ar.Tuple_attr (Ar.T1, 0), Ar.Lt, Ar.Tuple_attr (Ar.T2, 0)) ];
        f1_rhs = ord 0;
      }
  in
  match ground [ rule ] with
  | [ { Ground.preds = []; action = Ground.Add_order { attr = 0; _ }; _ } ] -> ()
  | steps ->
      Alcotest.failf "expected exactly one deduped ground step, got %d"
        (List.length steps)

let test_ground_strict_same_class_dropped () =
  (* t1 ≺b t2 premise between equal values can never hold: the pair
     (t1, t2) with b = "x" on both is dropped at grounding. *)
  let rule =
    Ar.Form1
      {
        f1_name = "dep";
        f1_lhs = [ Ar.Ord { strict = true; left = Ar.T1; right = Ar.T2; attr = 1 } ];
        f1_rhs = ord 0;
      }
  in
  let steps = ground [ rule ] in
  List.iter
    (fun (s : Ground.step) ->
      match s.preds with
      | [ Ground.P_ord { attr = 1; c1; c2 } ] ->
          if c1 = c2 then Alcotest.fail "same-class strict pred survived"
      | _ -> Alcotest.fail "expected one residual ord predicate")
    steps;
  check Alcotest.bool "some steps remain" true (steps <> [])

let test_ground_refresh_for_same_class_rhs () =
  (* φ9's shape on equal values ⇒ a Refresh action. *)
  let rule =
    Ar.Form1
      {
        f1_name = "eq";
        f1_lhs = [ Ar.Cmp (Ar.Tuple_attr (Ar.T1, 1), Ar.Eq, Ar.Tuple_attr (Ar.T2, 1)) ];
        f1_rhs = ord 1;
      }
  in
  let steps = ground [ rule ] in
  check Alcotest.bool "refresh present" true
    (List.exists (fun (s : Ground.step) -> s.action = Ground.Refresh 1) steps)

let test_ground_te_predicate () =
  (* t2.b = te.b folds to a pending P_te on the tuple's value. *)
  let rule =
    Ar.Form1
      {
        f1_name = "phi8ish";
        f1_lhs = [ Ar.Cmp (Ar.Tuple_attr (Ar.T2, 1), Ar.Eq, Ar.Target_attr 1) ];
        f1_rhs = ord 1;
      }
  in
  let steps = ground [ rule ] in
  check Alcotest.bool "has P_te predicate" true
    (List.exists
       (fun (s : Ground.step) ->
         List.exists
           (function Ground.P_te { attr = 1; op = Ar.Eq; _ } -> true | _ -> false)
           s.preds)
       steps)

let test_ground_form2 () =
  let m_rel =
    Relation.make master
      [
        Tuple.make [| Value.String "k"; Value.String "v" |];
        Tuple.make [| Value.String "skip"; Value.Null |];
      ]
  in
  let rule =
    Ar.Form2
      {
        f2_name = "m";
        f2_lhs = [ Ar.Te_master (0, 0) ];
        f2_te_attr = 1;
        f2_tm_attr = 1;
      }
  in
  let rs = Ruleset.make_exn ~include_axioms:false ~schema ~master [ rule ] in
  let steps =
    ground_steps ~ruleset:rs ~entity:instance ~master:(Some m_rel)
      ~orders:(orders_of instance)
  in
  (* The null-valued master row must not produce an assignment. *)
  check Alcotest.int "one step" 1 (List.length steps);
  match steps with
  | [ { Ground.action = Ground.Assign { attr = 1; value }; preds; _ } ] ->
      check Alcotest.bool "assign v" true (Value.equal value (Value.String "v"));
      check Alcotest.int "one pending te pred" 1 (List.length preds)
  | _ -> Alcotest.fail "unexpected ground step shape"

(* A selection [tm.ma = null] holds on exactly the null rows
   ([Value.equal Null Null]): the engine selects them through the
   master index, which files null cells too, and the literal grounding
   agrees. A table other than the index's own is refused. *)
let test_ground_null_selection () =
  let m_rel =
    Relation.make master
      [
        Tuple.make [| Value.String "k"; Value.String "v1" |];
        Tuple.make [| Value.Null; Value.String "v2" |];
        Tuple.make [| Value.String "j"; Value.String "v3" |];
        Tuple.make [| Value.Null; Value.String "v4" |];
      ]
  in
  let rule =
    Ar.Form2
      {
        f2_name = "nullsel";
        f2_lhs = [ Ar.Master_const (0, Ar.Eq, Value.Null) ];
        f2_te_attr = 1;
        f2_tm_attr = 1;
      }
  in
  let ruleset = Ruleset.make_exn ~include_axioms:false ~schema ~master [ rule ] in
  let orders = orders_of instance in
  let assigned g =
    List.init (Ground.count g) (fun sid ->
        match Ground.action g sid with
        | Ground.Assign { value; _ } -> Value.to_string value
        | _ -> "?")
  in
  let expect = [ "v2"; "v4" ] in
  let intern, midx = scope ruleset (Some m_rel) in
  check (Alcotest.list Alcotest.string) "engine Γ" expect
    (assigned
       (Ground.instantiate ~intern ~ruleset ~entity:instance ~master:midx ~orders ()));
  check (Alcotest.list Alcotest.int) "index null rows" [ 1; 3 ]
    (Rules.Master_index.rows (Option.get midx) ~col:0 Value.Null);
  check (Alcotest.list Alcotest.string) "literal Γ" expect
    (List.map
       (fun (s : Ground.step) ->
         match s.action with Ground.Assign { value; _ } -> Value.to_string value | _ -> "?")
       (literal_steps ~ruleset ~entity:instance ~master:(Some m_rel) ~orders));
  let intern, midx = scope ruleset (Some m_rel) in
  let refused name intern =
    Alcotest.check_raises name
      (Invalid_argument "Ground.instantiate: intern does not extend the master index's table")
      (fun () ->
        ignore
          (Ground.instantiate ~intern ~ruleset ~entity:instance ~master:midx ~orders ()
            : Ground.t))
  in
  refused "foreign table refused" (Relational.Intern.create ());
  (* The master generation itself is frozen: entity values need a
     generation over it. *)
  refused "master generation refused" (Option.get (Relational.Intern.parent intern))

(* A master generation that would leave no packable id for an entity
   value is refused when it is filled, naming the master. (A master of
   2^23 distinct values is too large to build here, so the fill's
   guard is called at the boundary directly.) *)
let test_master_id_space () =
  Rules.Plan.check_master_ids ~master:"roster" (Rules.Plan.max_xy - 1);
  match Rules.Plan.check_master_ids ~master:"roster" Rules.Plan.max_xy with
  | () -> Alcotest.fail "a master filling the id space was accepted"
  | exception Invalid_argument msg ->
      check Alcotest.bool "the error names the master" true
        (Astring_contains.contains msg "master relation roster holds")

(* The master generation holds only the columns some ruleset reads as
   ids. A ruleset reading another column adds a segment over the first:
   a value both columns hold keeps its first id, a generation made for
   the first ruleset does not cover the second (grounding refuses it),
   and one made after both fills covers either. *)
let test_master_generation_segments () =
  let s_ v = Value.String v in
  let m_rel =
    Relation.make master
      [
        Tuple.make [| s_ "x"; s_ "y" |];
        Tuple.make [| s_ "y"; s_ "z" |];
        Tuple.make [| s_ "w"; Value.Null |];
      ]
  in
  let copy name col =
    Ar.Form2
      {
        f2_name = name;
        f2_lhs = [ Ar.Te_const (0, Ar.Eq, Value.Int 1) ];
        f2_te_attr = 1;
        f2_tm_attr = col;
      }
  in
  let rs_a = Ruleset.make_exn ~include_axioms:false ~schema ~master [ copy "from-ma" 0 ] in
  let rs_b = Ruleset.make_exn ~include_axioms:false ~schema ~master [ copy "from-mb" 1 ] in
  let midx = Rules.Master_index.create m_rel in
  (* the segment a generation extends, and the ids it holds *)
  let size g = Relational.Intern.size (Option.get (Relational.Intern.parent g)) in
  let ia = Rules.Master_index.extend midx rs_a in
  check Alcotest.int "null plus x, y, w" 4 (size ia);
  check Alcotest.bool "covers its own rules" true (Rules.Master_index.covers midx ia rs_a);
  check Alcotest.bool "not a column it lacks" false (Rules.Master_index.covers midx ia rs_b);
  let ib = Rules.Master_index.extend midx rs_b in
  check Alcotest.int "z is the only new value" 5 (size ib);
  check Alcotest.bool "the newer covers both" true
    (Rules.Master_index.covers midx ib rs_a && Rules.Master_index.covers midx ib rs_b);
  let ma = Rules.Master_index.vids midx ~col:0 and mb = Rules.Master_index.vids midx ~col:1 in
  check Alcotest.int "y keeps its first id" ma.(1) mb.(0);
  check Alcotest.int "null is null_id" Relational.Intern.null_id mb.(2);
  let orders = orders_of instance in
  Alcotest.check_raises "an older segment refused"
    (Invalid_argument "Ground.instantiate: intern does not extend the master index's table")
    (fun () ->
      ignore
        (Ground.instantiate ~intern:ia ~ruleset:rs_b ~entity:instance ~master:(Some midx)
           ~orders ()
          : Ground.t));
  let assigned g =
    List.init (Ground.count g) (fun sid ->
        match Ground.action g sid with
        | Ground.Assign { value; _ } -> Value.to_string value
        | _ -> "?")
    |> List.sort compare
  in
  check (Alcotest.list Alcotest.string) "the newer grounds the second ruleset" [ "y"; "z" ]
    (assigned
       (Ground.instantiate ~intern:ib ~ruleset:rs_b ~entity:instance ~master:(Some midx)
          ~orders ()))

let test_ground_axiom7_immediate () =
  (* φ7 on column c ({null, null, 5}) grounds, literally, to an
     immediately applicable step null ⪯ 5 (the engine applies it
     itself). *)
  let rs = Ruleset.make_exn ~schema ~master [] in
  let steps =
    literal_steps ~ruleset:rs ~entity:instance ~master:None
      ~orders:(orders_of instance)
  in
  check Alcotest.bool "null-below-5 step exists" true
    (List.exists
       (fun (s : Ground.step) ->
         s.preds = []
         && match s.action with Ground.Add_order { attr = 2; _ } -> true | _ -> false)
       steps)

(* User rules restating the axioms offer only axiom steps: φ8 with
   its predicates swapped, φ7 and φ9 with an order atom on one tuple
   that folds away. Their recipes differ from the axioms', so no
   axiom subsumes them, but the literal grounding's dedup drops
   every step they offer, and so does the engine's, though it grounds
   no axiom. Without the axioms they ground. *)
let test_ground_axiom_copies () =
  let restated name lhs = function
    | Ar.Form1 r -> Ar.Form1 { r with f1_name = name; f1_lhs = lhs r.f1_lhs }
    | r -> r
  in
  let self a = Ar.Ord { strict = false; left = Ar.T1; right = Ar.T1; attr = a } in
  let rules =
    List.concat_map
      (fun a ->
        [
          restated "my7" (fun l -> l @ [ self a ]) (Axioms.phi7 schema a);
          restated "my8" List.rev (Axioms.phi8 schema a);
          restated "my9" (fun l -> l @ [ self a ]) (Axioms.phi9 schema a);
        ])
      (List.init (Schema.arity schema) Fun.id)
  in
  check Alcotest.int "no axiom subsumes them" 0
    (List.length (Ruleset.subsumed (Ruleset.make_exn ~schema ~master rules)));
  let orders = orders_of instance in
  let engine include_axioms =
    Ground.count
      (Ground.instantiate ~intern:(Relational.Intern.create ())
         ~ruleset:(Ruleset.make_exn ~include_axioms ~schema ~master rules)
         ~entity:instance ~master:None ~orders ())
  in
  check Alcotest.int "no user step survives the axioms" 0 (engine true);
  check Alcotest.int "the same rules ground alone"
    (List.length (ground rules))
    (engine false);
  check Alcotest.bool "and ground some" true (engine false > 0);
  check Alcotest.bool "the reference credits the axioms" true
    (List.for_all
       (fun (s : Ground.step) -> String.length s.rule_name > 5 && String.sub s.rule_name 0 5 = "axiom")
       (literal_steps
          ~ruleset:(Ruleset.make_exn ~schema ~master rules)
          ~entity:instance ~master:None ~orders))

(* ------------------------------------------------------------------ *)
(* Structural dedup + master index observability                      *)
(* ------------------------------------------------------------------ *)

let counter name =
  match Obs.find name with
  | Some (Obs.Counter n) -> n
  | _ -> Alcotest.failf "counter %s not registered" name

let with_obs f =
  let was = Obs.enabled () in
  Obs.set_enabled true;
  Obs.reset ();
  Fun.protect ~finally:(fun () -> Obs.set_enabled was) f

let test_ground_dedup_counter () =
  (* Two differently-named rules whose bodies differ, but which ground
     to the same step: one survives (first-occurrence provenance), the
     duplicate is discarded, and the discard is observable. [cur2]'s
     guards are not a superset of [cur1]'s, so the plan does not skip
     it as subsumed: the duplicate is met, and dropped, by dedup. *)
  let a s = Ar.Tuple_attr (s, 0) in
  let rule name lhs = Ar.Form1 { f1_name = name; f1_lhs = lhs; f1_rhs = ord 0 } in
  let cur1 = rule "cur1" [ Ar.Cmp (a Ar.T1, Ar.Lt, a Ar.T2) ] in
  let cur2 = rule "cur2" [ Ar.Cmp (a Ar.T1, Ar.Leq, a Ar.T2); Ar.Cmp (a Ar.T1, Ar.Neq, a Ar.T2) ] in
  check Alcotest.int "cur2 is not subsumed" 0
    (List.length
       (Ruleset.subsumed (Ruleset.make_exn ~include_axioms:false ~schema ~master [ cur1; cur2 ])));
  with_obs (fun () ->
      match ground [ cur1; cur2 ] with
      | [ { Ground.rule_name = "cur1"; _ } ] ->
          check Alcotest.bool "duplicates counted" true
            (counter "instantiation_dedup_skipped_total" >= 1)
      | steps ->
          Alcotest.failf "expected one step from cur1, got %d"
            (List.length steps))

(* Two identical rules: the plan marks the second as subsumed by the
   first, and grounding skips it, so Γ is the first rule's alone and
   no duplicate is even offered. With the first rule filtered out by
   [only], the second is grounded after all. *)
let test_ground_subsumed_identical () =
  let rule name =
    Ar.Form1
      {
        f1_name = name;
        f1_lhs = [ Ar.Cmp (Ar.Tuple_attr (Ar.T1, 0), Ar.Lt, Ar.Tuple_attr (Ar.T2, 0)) ];
        f1_rhs = ord 0;
      }
  in
  let rs = Ruleset.make_exn ~include_axioms:false ~schema ~master [ rule "cur1"; rule "cur2" ] in
  check
    Alcotest.(list (pair string string))
    "cur2 under cur1" [ ("cur2", "cur1") ]
    (List.map (fun (r, by) -> (Ar.name r, Ar.name by)) (Ruleset.subsumed rs));
  with_obs (fun () ->
      (match ground [ rule "cur1"; rule "cur2" ] with
      | [ { Ground.rule_name = "cur1"; _ } ] -> ()
      | steps -> Alcotest.failf "expected one step from cur1, got %d" (List.length steps));
      check Alcotest.int "no duplicate offered" 0 (counter "instantiation_dedup_skipped_total"));
  let only r = Ar.name r <> "cur1" in
  let g =
    Ground.instantiate ~only ~intern:(Relational.Intern.create ()) ~ruleset:rs ~entity:instance
      ~master:None ~orders:(orders_of instance) ()
  in
  check Alcotest.(list string) "cur2 grounds without cur1" [ "cur2" ]
    (List.init (Ground.count g) (Ground.rule_name g))

(* Med's generator follows the paper's rules that "share the same
   LHS": per dependency, [dep] and four variants [dep1]-[dep4], each
   with one extra key-equality guard. The plan skips exactly the 68
   variants, each under its own family's [dep]. *)
let test_subsumed_med () =
  let ds = Datagen.Med_gen.dataset ~entities:20 ~seed:1 () in
  let subsumed = Ruleset.subsumed ds.Datagen.Entity_gen.ruleset in
  check Alcotest.int "68 subsumed rules" 68 (List.length subsumed);
  List.iter
    (fun (r, by) ->
      (* "depK:c->d" under "dep:c->d" *)
      let name = Ar.name r in
      let n = String.length name in
      if n > 4 && String.sub name 0 3 = "dep" && String.contains "1234" name.[3] && name.[4] = ':'
      then check Alcotest.string name ("dep" ^ String.sub name 4 (n - 4)) (Ar.name by)
      else Alcotest.failf "%s is subsumed, but is no dep variant" name)
    subsumed

(* A variant with an extra guard placed {e before} its base is not
   subsumed: the base grounds later, and the variant is narrower, not
   wider. Nor is the base subsumed by the variant. *)
let test_subsumed_before () =
  let a s = Ar.Tuple_attr (s, 0) and b s = Ar.Tuple_attr (s, 1) in
  let rule name lhs = Ar.Form1 { f1_name = name; f1_lhs = lhs; f1_rhs = ord 0 } in
  let base = [ Ar.Cmp (a Ar.T1, Ar.Lt, a Ar.T2) ] in
  let rs =
    Ruleset.make_exn ~include_axioms:false ~schema ~master
      [ rule "v0" (Ar.Cmp (b Ar.T1, Ar.Eq, b Ar.T2) :: base); rule "b0" base ]
  in
  check Alcotest.int "nothing subsumed" 0 (List.length (Ruleset.subsumed rs));
  check Alcotest.bool "the plan skips nothing" true
    (Array.for_all (fun by -> by = [||]) (Rules.Plan.subsumers (Ruleset.plan rs)))

let test_ground_dedup_mixed_spelling () =
  (* Regression for the Int/Float hash split: two form-(2) rules
     whose only difference is the spelling of a numeric selection
     constant (Int 3 vs Float 3.0) must (a) both find the Int-keyed
     master row through the interned per-attribute index and (b)
     ground to the SAME step, so the second is discarded by dedup.
     With a structural [Value.hash] the Float spelling missed the
     index bucket entirely and the duplicate survived. The rules join
     nothing, so both ground into the prefix through their selection
     (a rule with a [Te_master] join is a template, whose rows only a
     join probe visits). *)
  let m_rel =
    Relation.make master
      [
        Tuple.make [| Value.Int 3; Value.String "v" |];
        Tuple.make [| Value.Int 4; Value.String "w" |];
      ]
  in
  let rule name spelling =
    Ar.Form2
      {
        f2_name = name;
        f2_lhs = [ Ar.Master_const (0, Ar.Eq, spelling) ];
        f2_te_attr = 1;
        f2_tm_attr = 1;
      }
  in
  let rs =
    Ruleset.make_exn ~include_axioms:false ~schema ~master
      [ rule "int-spelled" (Value.Int 3); rule "float-spelled" (Value.Float 3.0) ]
  in
  with_obs (fun () ->
      let steps =
        ground_steps ~ruleset:rs
          ~entity:instance ~master:(Some m_rel) ~orders:(orders_of instance)
      in
      (match steps with
      | [ { Ground.rule_name = "int-spelled";
            action = Ground.Assign { attr = 1; value }; _ } ] ->
          check Alcotest.bool "assigns v" true
            (Value.equal value (Value.String "v"))
      | _ ->
          Alcotest.failf "expected one step from int-spelled, got %d"
            (List.length steps));
      check Alcotest.int "float spelling deduped against int spelling" 1
        (counter "instantiation_dedup_skipped_total");
      (* Both rules probed the index and visited exactly the one
         matching row each — the Float probe did not degrade to a
         miss (0 rows) or a scan (2 rows). *)
      check Alcotest.int "index hit for both spellings" 2
        (counter "instantiation_master_rows_visited_total"))

let test_ground_master_index_selective () =
  (* A [tm.ma = "k7"] selection over a 200-row master must visit only
     the matching rows (via the per-attribute value index), not scan
     the whole relation. The rules join nothing, so they ground into
     the prefix (a joined rule is a template). *)
  let rows = 200 in
  let m_rel =
    Relation.make master
      (List.init rows (fun i ->
           Tuple.make
             [| Value.String (Printf.sprintf "k%d" i);
                Value.String (Printf.sprintf "v%d" i) |]))
  in
  let rule =
    Ar.Form2
      {
        f2_name = "m";
        f2_lhs = [ Ar.Te_const (0, Ar.Eq, Value.String "k7"); Ar.Master_const (0, Ar.Eq, Value.String "k7") ];
        f2_te_attr = 1;
        f2_tm_attr = 1;
      }
  in
  let rs = Ruleset.make_exn ~include_axioms:false ~schema ~master [ rule ] in
  with_obs (fun () ->
      let steps =
        ground_steps ~ruleset:rs ~entity:instance ~master:(Some m_rel)
          ~orders:(orders_of instance)
      in
      (* correctness: exactly the k7 row grounds, assigning v7 *)
      (match steps with
      | [ { Ground.action = Ground.Assign { attr = 1; value }; _ } ] ->
          check Alcotest.bool "assigns v7" true
            (Value.equal value (Value.String "v7"))
      | _ -> Alcotest.failf "expected one step, got %d" (List.length steps));
      (* efficiency: the index pruned the scan to the single match *)
      check Alcotest.int "master rows visited" 1
        (counter "instantiation_master_rows_visited_total"));
  (* An unselective form (2) rule still visits every row. *)
  let unselective =
    Ar.Form2
      {
        f2_name = "m";
        f2_lhs = [ Ar.Te_const (0, Ar.Eq, Value.String "k7") ];
        f2_te_attr = 1;
        f2_tm_attr = 1;
      }
  in
  let rs = Ruleset.make_exn ~include_axioms:false ~schema ~master [ unselective ] in
  with_obs (fun () ->
      ignore
        (ground_steps ~ruleset:rs ~entity:instance ~master:(Some m_rel)
           ~orders:(orders_of instance)
          : Ground.step list);
      check Alcotest.int "full scan without a selection" rows
        (counter "instantiation_master_rows_visited_total"))

(* ------------------------------------------------------------------ *)
(* The engine's Γ against the literal grounding                       *)
(* ------------------------------------------------------------------ *)

let same_gpred p q =
  match (p, q) with
  | Ground.P_ord a, Ground.P_ord b -> a.attr = b.attr && a.c1 = b.c1 && a.c2 = b.c2
  | Ground.P_te a, Ground.P_te b -> a.attr = b.attr && a.op = b.op && Value.equal a.value b.value
  | _ -> false

(* Step by step: rule name, residuals (values up to [Value.equal] —
   a decoded [P_te] carries the intern scope's spelling) and action
   ([Assign] keeps the master row's own spelling, compared exactly). *)
let same_steps (steps : Ground.step list) (reference : Ground.step list) =
  List.length steps = List.length reference
  && List.for_all2
       (fun (s : Ground.step) (r : Ground.step) ->
         s.rule_name = r.rule_name
         && List.length s.preds = List.length r.preds
         && List.for_all2 same_gpred s.preds r.preds
         && s.action = r.action)
       steps reference

(* Random cases for the oracle: rulesets over [schema]/[master] whose
   form-(1) rules draw their predicates from a small shared pool (so
   shapes repeat across rules), with constants that include null and
   Int/Float twins, plus a random entity and master relation and a set
   of base rules an [only] filter excludes. Each base rule [b<k>] may
   carry an overlapping variant [v<k>], so that rules offer each other
   duplicate candidates:
   - [`Guards]: the base plus extra guards, shuffled, after the base;
   - [`Residual]: the base plus an order atom or a [te] predicate;
   - [`Before]: the base plus extra guards, placed before the base. *)
type grounding_case = {
  rules : Ar.t list;
  axioms : bool;
  entity : Relation.t;
  mrel : Relation.t;
  excluded : string list;
}

let gen_value =
  QCheck.Gen.oneofl
    [
      Value.Null; Value.Int 0; Value.Int 1; Value.Float 1.0; Value.Float 1.5; Value.Int 2;
      Value.Float 2.0; Value.String "x"; Value.String "y";
    ]

let is_guard_pred = function
  | Ar.Cmp ((Ar.Tuple_attr _ | Ar.Const _), _, (Ar.Tuple_attr _ | Ar.Const _)) -> true
  | Ar.Cmp _ | Ar.Ord _ -> false

let gen_grounding_case =
  let open QCheck.Gen in
  let arity = Schema.arity schema in
  let attr = int_bound (arity - 1) in
  let side = oneofl [ Ar.T1; Ar.T2 ] in
  let op = oneofl ops in
  let tattr = pair side attr in
  let guard =
    oneof
      [
        map3 (fun (s, a) o c -> Ar.Cmp (Ar.Tuple_attr (s, a), o, Ar.Const c)) tattr op gen_value;
        map3 (fun (s, a) o c -> Ar.Cmp (Ar.Const c, o, Ar.Tuple_attr (s, a))) tattr op gen_value;
        map3
          (fun (s1, a) o (s2, b) -> Ar.Cmp (Ar.Tuple_attr (s1, a), o, Ar.Tuple_attr (s2, b)))
          tattr op tattr;
      ]
  in
  let ord_atom =
    map3
      (fun s a strict ->
        Ar.Ord { strict; left = s; right = (if s = Ar.T1 then Ar.T2 else Ar.T1); attr = a })
      side attr bool
  in
  (* A constant no other predicate mentions. *)
  let fresh k = Ar.Const (Value.String (Printf.sprintf "z%d" k)) in
  let residual_fresh k = map2 (fun a o -> Ar.Cmp (Ar.Target_attr a, o, fresh k)) attr op in
  let residual =
    oneof
      [
        ord_atom;
        map3 (fun a o c -> Ar.Cmp (Ar.Target_attr a, o, Ar.Const c)) attr op gen_value;
        map3 (fun a o c -> Ar.Cmp (Ar.Const c, o, Ar.Target_attr a)) attr op gen_value;
        map3 (fun a o (s, b) -> Ar.Cmp (Ar.Target_attr a, o, Ar.Tuple_attr (s, b))) attr op tattr;
        map3 (fun (s, b) o a -> Ar.Cmp (Ar.Tuple_attr (s, b), o, Ar.Target_attr a)) tattr op attr;
      ]
  in
  let mattr = int_bound (Schema.arity master - 1) in
  let mpred =
    oneof
      [
        map3 (fun a o v -> Ar.Te_const (a, o, v)) attr op gen_value;
        map2 (fun a b -> Ar.Te_master (a, b)) attr mattr;
        map3 (fun b o v -> Ar.Master_const (b, o, v)) mattr op gen_value;
      ]
  in
  let* pool = list_size (int_range 2 6) (frequency [ (2, guard); (1, residual) ]) in
  let pool_guards = List.filter is_guard_pred pool in
  let extra_guard = if pool_guards = [] then guard else oneof [ guard; oneofl pool_guards ] in
  let base k =
    let* lhs = list_size (int_bound 3) (oneofl pool) in
    let* strict, a = pair bool attr in
    let* kind = oneofl [ `None; `Guards; `Guards; `Residual; `Before ] in
    let* extra = list_size (int_range 1 2) extra_guard in
    (* The extra residual is new to the rule: an order atom the base
       lacks, else a [te] test on a fresh constant. *)
    let* res =
      let* o = ord_atom in
      if List.mem o lhs then residual_fresh k else oneof [ return o; residual_fresh k ]
    in
    (* A guard on a fresh constant: the early variant of [`Before] is
       then strictly narrower than its base. *)
    let* narrow = map2 (fun (s, a) o -> Ar.Cmp (Ar.Tuple_attr (s, a), o, fresh k)) tattr op in
    let* variant_lhs =
      match kind with
      | `Guards -> shuffle_l (lhs @ extra)
      | `Before -> shuffle_l ((narrow :: extra) @ lhs)
      | `Residual -> shuffle_l (res :: lhs)
      | `None -> return []
    in
    let rhs = { Ar.strict; left = Ar.T1; right = Ar.T2; attr = a } in
    let rule name lhs = Ar.Form1 { f1_name = name; f1_lhs = lhs; f1_rhs = rhs } in
    let b = Printf.sprintf "b%d" k and v = Printf.sprintf "v%d" k in
    return
      (match kind with
      | `None -> [ rule b lhs ]
      | `Guards | `Residual -> [ rule b lhs; rule v variant_lhs ]
      | `Before -> [ rule v variant_lhs; rule b lhs ])
  in
  let* nbase = int_range 1 5 in
  let* bases = flatten_l (List.init nbase base) in
  let form2 k =
    map3
      (fun lhs a b ->
        Ar.Form2 { f2_name = Printf.sprintf "m%d" k; f2_lhs = lhs; f2_te_attr = a; f2_tm_attr = b })
      (list_size (int_bound 3) mpred) attr mattr
  in
  let* form2s = int_bound 2 >>= fun k -> flatten_l (List.init k form2) in
  let* axioms = bool in
  let* tuples = list_size (int_range 1 6) (array_repeat arity gen_value) in
  let* mrows = list_size (int_bound 5) (array_repeat (Schema.arity master) gen_value) in
  let* excluded = list_repeat nbase (frequencyl [ (2, false); (1, true) ]) in
  return
    {
      rules = List.concat bases @ form2s;
      axioms;
      entity = Relation.make schema (List.map Tuple.make tuples);
      mrel = Relation.make master (List.map Tuple.make mrows);
      excluded =
        List.concat (List.mapi (fun k x -> if x then [ Printf.sprintf "b%d" k ] else []) excluded);
    }

let print_grounding_case c =
  let rel r =
    String.concat "; "
      (List.map
         (fun t ->
           "("
           ^ String.concat ", "
               (Array.to_list (Array.map (Format.asprintf "%a" Value.pp) (Tuple.values t)))
           ^ ")")
         (Relation.tuples r))
  in
  Printf.sprintf "axioms=%b excluded=[%s]\n%s\nentity: %s\nmaster: %s" c.axioms
    (String.concat "," c.excluded)
    (Parser.to_string ~schema ~master c.rules)
    (rel c.entity) (rel c.mrel)

let decoded g = List.init (Ground.count g) (Ground.step g)

(* A step's identity up to provenance: its action and its set of
   residuals, values keyed by id in one shared table (numeric twins
   unify, as in Γ's own dedup). *)
let step_key ids (s : Ground.step) =
  let vid v = Relational.Intern.intern ids v in
  let pred = function
    | Ground.P_ord { attr; c1; c2 } -> `Ord (attr, c1, c2)
    | Ground.P_te { attr; op; value } -> `Te (attr, op, vid value)
  in
  let action =
    match s.action with
    | Ground.Add_order { attr; c1; c2 } -> `Add (attr, c1, c2)
    | Ground.Refresh attr -> `Refresh attr
    | Ground.Assign { attr; value } -> `Assign (attr, vid value)
  in
  (action, List.sort_uniq compare (List.map pred s.preds))

let is_assign (s : Ground.step) = match s.action with Ground.Assign _ -> true | _ -> false
let show_steps l = String.concat "\n" (List.map (Format.asprintf "%a" Ground.pp_step) l)

(* On a mismatch, report both step lists. *)
let agree steps expected =
  same_steps steps expected
  || QCheck.Test.fail_reportf "Γ:\n%s\nreference:\n%s" (show_steps steps) (show_steps expected)

(* The engine's Γ with every template materialized over every master
   row is the literal Γ less its axiom steps: the form-(1) steps, which
   no template touches, step by step with names and order; the
   [Assign]s as a multiset of identities, since a materialized step
   that a later join-less rule duplicates keeps that rule's name
   ({!Ground.instantiate}). With an [only] filter and no master, Γ is
   all prefix and equals the literal grounding of the admitted rules,
   less the axiom steps, step by step. *)
let grounding_matches_reference =
  QCheck.Test.make ~count:400 ~name:"fully materialized Γ = literal Γ less axioms (random rulesets)"
    (QCheck.make ~print:print_grounding_case gen_grounding_case)
    (fun c ->
      let ruleset = Ruleset.make_exn ~include_axioms:c.axioms ~schema ~master c.rules in
      let all = Ruleset.rules ruleset in
      let orders = orders_of c.entity in
      let axiom_names = List.map Ar.name (Ruleset.axioms ruleset) in
      let less_axioms = List.filter (fun (s : Ground.step) -> not (List.mem s.rule_name axiom_names)) in
      let materialized =
        ground_steps ~ruleset ~entity:c.entity ~master:(Some c.mrel) ~orders
      and literal =
        less_axioms (Oracle.Literal_ground.ground ~rules:all ~entity:c.entity ~master:(Some c.mrel) ~orders)
      in
      let ids = Relational.Intern.create () in
      let assigns l = List.sort compare (List.map (step_key ids) (List.filter is_assign l)) in
      let only r = not (List.mem (Ar.name r) c.excluded) in
      let filtered =
        decoded
          (Ground.instantiate ~only ~intern:(Relational.Intern.create ()) ~ruleset
             ~entity:c.entity ~master:None ~orders ())
      in
      let not_assign = List.filter (fun s -> not (is_assign s)) in
      agree (not_assign materialized) (not_assign literal)
      && (assigns materialized = assigns literal
         || QCheck.Test.fail_reportf "assigns differ.\nΓ:\n%s\nreference:\n%s"
              (show_steps (List.filter is_assign materialized))
              (show_steps (List.filter is_assign literal)))
      && agree filtered
           (less_axioms
              (Oracle.Literal_ground.ground ~rules:(List.filter only all) ~entity:c.entity ~master:None
                 ~orders)))

(* The engine's Γ is the literal Γ less its axiom steps, step by step
   and in order: the chase applies the axioms itself, and the user
   steps they deduplicated or subsumed stay out. Without a master
   only form-(1) rules ground, each on at most |Ie|² tuple pairs, so
   |Γ| ≤ |Σ_user|·|Ie|² (Fig. 4's grounding bound, which the axioms'
   k² φ8 steps per attribute no longer count against). *)
let engine_gamma_drops_only_axioms =
  QCheck.Test.make ~count:400
    ~name:"engine Γ = literal Γ less its axiom steps (random rulesets)"
    (QCheck.make ~print:print_grounding_case gen_grounding_case)
    (fun c ->
      let ruleset = Ruleset.make_exn ~include_axioms:true ~schema ~master c.rules in
      let orders = orders_of c.entity and intern = Relational.Intern.create () in
      let engine = Ground.instantiate ~intern ~ruleset ~entity:c.entity ~master:None ~orders () in
      let literal =
        List.filter
          (fun (s : Ground.step) ->
            match Ruleset.find ruleset s.rule_name with
            | Some r -> not (Axioms.is_axiom r)
            | None -> true)
          (Oracle.Literal_ground.ground ~rules:(Ruleset.rules ruleset) ~entity:c.entity ~master:None ~orders)
      in
      let n = Relation.size c.entity in
      let bound = Ruleset.size ruleset * n * n in
      if Ground.count engine > bound then
        QCheck.Test.fail_reportf "|Γ| = %d > |Σ_user|·|Ie|² = %d" (Ground.count engine) bound;
      agree (decoded engine) literal)

(* End to end: IsCR over the engine's Γ (templates, the axioms
   applied by the run) against the naive chase over the literal Γ, on
   the same random rulesets with a master. A Church-Rosser verdict
   must be the chase's terminal target; a rejection is not checked
   (one chasing sequence may terminate on a spec that is not
   Church-Rosser). *)
let is_cr_agrees_with_chase =
  QCheck.Test.make ~count:400 ~name:"Is_cr == Chase on random rulesets with a master (verdict, te)"
    (QCheck.make ~print:print_grounding_case gen_grounding_case)
    (fun c ->
      let ruleset = Ruleset.make_exn ~include_axioms:c.axioms ~schema ~master c.rules in
      let spec = Core.Specification.make_exn ~entity:c.entity ~master:c.mrel ruleset in
      match Oracle.Chase.versus_is_cr spec with
      | Ok _ -> true
      | Error msg -> QCheck.Test.fail_report msg)

(* A read set over 64 attributes, whose class ids together need more
   than a word. Attributes 0-2 hold the base-3 digits of the row
   number (3 classes); the other 61 are constant. A representative is
   the first tuple of its class signature, so the rows must stay apart
   on the digits, and nothing later separates two rows merged here;
   20 tuples, two of them repeats.
   Residuals read every T1 value, so each distinct T1 signature
   yields steps of its own and merging two loses some. *)
let test_ground_wide_read_set () =
  let arity = 64 in
  let wide = Schema.make "w" (List.init arity (Printf.sprintf "w%d")) in
  let pow3 = [| 1; 3; 9 |] in
  let row i = Array.init arity (fun k -> Value.Int (if k < 3 then i / pow3.(k) mod 3 else 0)) in
  let rows = List.init 18 row @ [ row 3; row 7 ] in
  let entity = Relation.make wide (List.map Tuple.make rows) in
  let rule =
    Ar.Form1
      {
        f1_name = "wide";
        f1_lhs =
          Ar.Cmp (Ar.Tuple_attr (Ar.T1, 1), Ar.Neq, Ar.Tuple_attr (Ar.T2, 1))
          :: List.init arity (fun k ->
                 Ar.Cmp (Ar.Target_attr k, Ar.Eq, Ar.Tuple_attr (Ar.T1, k)));
        f1_rhs = { strict = false; left = Ar.T1; right = Ar.T2; attr = 0 };
      }
  in
  let ruleset = Ruleset.make_exn ~include_axioms:false ~schema:wide [ rule ] in
  let orders = orders_of entity in
  let g =
    Ground.instantiate ~intern:(Relational.Intern.create ()) ~ruleset ~entity ~master:None
      ~orders ()
  in
  let expected = Oracle.Literal_ground.ground ~rules:[ rule ] ~entity ~master:None ~orders in
  check Alcotest.bool "some steps" true (expected <> []);
  check Alcotest.bool "Γ = reference" true (same_steps (decoded g) expected)

(* Γ does not depend on what its domain grounded before. Ground
   keeps its per-attribute dedup tables in domain-local scratch and
   resets only the slots a call filled, so a small entity grounded
   right after a large one (whose keys grew and filled those tables)
   must get exactly the Γ it gets as the first grounding of a fresh
   domain: the same packed predicate words, rule names, actions and
   templates. The fresh-domain run comes second, so both see the
   same interned ids. *)
let gamma_signature spec =
  let module Spec = Core.Specification in
  let g =
    Ground.instantiate ~intern:(Spec.intern spec) ~ruleset:(Spec.ruleset spec)
      ~entity:(Spec.entity spec) ~master:(Spec.master_index spec)
      ~orders:(Spec.numbering spec) ()
  in
  let words sid = List.init (Ground.pred_count g sid) (fun slot -> (slot, Ground.pred_word g sid slot)) in
  ( List.init (Ground.count g) (fun sid ->
        (Ground.rule_name g sid, words sid, Ground.action g sid)),
    Array.to_list
      (Array.map
         (fun t ->
           ( Ground.template_id t,
             Ground.template_name t,
             Ground.template_join_attr t,
             Ground.template_join_col t ))
         (Ground.templates g)) )

(* An entity wider than one bitset word (62 tuples): shape tables,
   representatives and guard-filtered sides span two words. [w3] is 1
   only from tuple 64 on, so every representative of a side guarded by
   [t.w3 = 1] lives in the second word, and the first tuples of most
   class signatures over (w0, w3) do too. Few classes per attribute
   keep Γ small enough for the naive [Chase]. The engine's Γ equals
   the literal oracle less its axiom steps, and IsCR reaches the naive
   chase's verdict and target. *)
let test_ground_wide_entity () =
  let wide = Schema.make "wn" [ "w0"; "w1"; "w2"; "w3" ] in
  let n = 73 in
  let row i =
    [|
      Value.Int (i mod 4);
      Value.String (Printf.sprintf "s%d" (i mod 3));
      Value.Int (i * 7 mod 5);
      Value.Int (if i >= 64 then 1 else 0);
    |]
  in
  let entity = Relation.make wide (List.init n (fun i -> Tuple.make (row i))) in
  let t1 k = Ar.Tuple_attr (Ar.T1, k) and t2 k = Ar.Tuple_attr (Ar.T2, k) in
  let one = Ar.Const (Value.Int 1) and zero = Ar.Const (Value.Int 0) in
  let rule name ~strict ~left ~right attr lhs =
    Ar.Form1 { f1_name = name; f1_lhs = lhs; f1_rhs = { strict; left; right; attr } }
  in
  let rules =
    [
      rule "late-wins" ~strict:false ~left:Ar.T2 ~right:Ar.T1 0
        [ Ar.Cmp (t1 3, Ar.Eq, one); Ar.Cmp (t2 3, Ar.Eq, zero); Ar.Cmp (t1 0, Ar.Gt, t2 0) ];
      rule "same-w1" ~strict:false ~left:Ar.T1 ~right:Ar.T2 2
        [ Ar.Cmp (t1 1, Ar.Eq, t2 1); Ar.Cmp (Ar.Target_attr 2, Ar.Eq, t1 2); Ar.Cmp (t1 2, Ar.Lt, t2 2) ];
      rule "late-chain" ~strict:true ~left:Ar.T1 ~right:Ar.T2 1
        [
          Ar.Cmp (t1 3, Ar.Eq, one);
          Ar.Cmp (t1 0, Ar.Eq, t2 0);
          Ar.Ord { strict = true; left = Ar.T2; right = Ar.T1; attr = 2 };
        ];
    ]
  in
  let ruleset = Ruleset.make_exn ~include_axioms:true ~schema:wide rules in
  let orders = orders_of entity in
  let engine =
    decoded
      (Ground.instantiate ~intern:(Relational.Intern.create ()) ~ruleset ~entity ~master:None
         ~orders ())
  in
  let expected =
    List.filter
      (fun (s : Ground.step) -> not (List.mem s.rule_name (List.map Ar.name (Ruleset.axioms ruleset))))
      (Oracle.Literal_ground.ground ~rules:(Ruleset.rules ruleset) ~entity ~master:None ~orders)
  in
  check Alcotest.bool "late representatives ground" true
    (List.exists (fun (s : Ground.step) -> s.rule_name = "late-wins") expected);
  check Alcotest.bool "engine Γ = reference less axioms" true (same_steps engine expected);
  let spec = Core.Specification.make_exn ~entity ruleset in
  let same_te a b = Array.length a = Array.length b && Array.for_all2 Value.equal a b in
  match (Core.Is_cr.run spec, Oracle.Chase.run spec) with
  | Core.Is_cr.Church_rosser inst, Oracle.Chase.Terminal (cinst, _) ->
      check Alcotest.bool "Is_cr te = Chase te" true
        (same_te (Core.Instance.te inst) (Core.Instance.te cinst))
  | Core.Is_cr.Not_church_rosser _, Oracle.Chase.Stuck _ -> ()
  | _ -> Alcotest.fail "Is_cr and Chase disagree on the verdict"

let in_fresh_domain f = Domain.join (Domain.spawn f)

let history_free ~large ~small =
  let after_large =
    in_fresh_domain (fun () ->
        ignore (gamma_signature large);
        gamma_signature small)
  in
  let steps, _ = after_large in
  (* A Γ without a step tells nothing about history; the axioms, which
     the chase applies itself, ground none, so a small entity can have
     one. *)
  QCheck.assume (steps <> []);
  after_large = in_fresh_domain (fun () -> gamma_signature small)

let gamma_history_free_med =
  QCheck.Test.make ~count:8 ~name:"Γ independent of grounding history (Med)"
    QCheck.(int_bound 10_000)
    (fun seed ->
      let ds = Datagen.Med_gen.dataset ~entities:40 ~seed () in
      let size (e : Datagen.Entity_gen.entity) = Relation.size e.instance in
      let by_size =
        List.stable_sort (fun a b -> compare (size a) (size b)) ds.entities
      in
      let spec = Datagen.Entity_gen.spec_for ds in
      let large = spec (List.nth by_size (List.length by_size - 1)) in
      (* The smallest entity whose Γ holds a step (the axioms, which
         the chase applies itself, ground none). *)
      let small =
        List.find (fun s -> fst (gamma_signature s) <> []) (List.map spec by_size)
      in
      history_free ~large ~small)

let gamma_history_free_syn =
  QCheck.Test.make ~count:8 ~name:"Γ independent of grounding history (Syn)"
    QCheck.(pair (int_bound 10_000) (int_range 2 8))
    (fun (seed, ie) ->
      let syn ie = (Datagen.Syn_gen.dataset ~ie ~im:30 ~sigma:60 ~seed ()).spec in
      history_free ~large:(syn 200) ~small:(syn ie))

let () =
  Alcotest.run "rules"
    [
      ( "semantics",
        [
          Alcotest.test_case "eval_op" `Quick test_eval_op;
          Alcotest.test_case "negate/mirror" `Quick test_negate_mirror;
        ] );
      ( "validation",
        [
          Alcotest.test_case "validate" `Quick test_validate;
          Alcotest.test_case "ruleset counts" `Quick test_ruleset_counts;
          Alcotest.test_case "axioms recognized" `Quick test_axioms_recognized;
        ] );
      ( "parser",
        [
          Alcotest.test_case "form1" `Quick test_parse_form1;
          Alcotest.test_case "strict + quoted attr" `Quick test_parse_strict_and_quoted;
          Alcotest.test_case "constants" `Quick test_parse_constants;
          Alcotest.test_case "te reference" `Quick test_parse_te_reference;
          Alcotest.test_case "form2 expansion" `Quick test_parse_form2;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "comments/empty lhs" `Quick
            test_parse_comments_and_empty_lhs;
          QCheck_alcotest.to_alcotest parser_roundtrip;
          QCheck_alcotest.to_alcotest parser_total;
        ] );
      ( "grounding",
        [
          Alcotest.test_case "constant folding + dedup" `Quick
            test_ground_constant_folding;
          Alcotest.test_case "strict same-class dropped" `Quick
            test_ground_strict_same_class_dropped;
          Alcotest.test_case "refresh for same-class rhs" `Quick
            test_ground_refresh_for_same_class_rhs;
          Alcotest.test_case "te predicate" `Quick test_ground_te_predicate;
          Alcotest.test_case "form2 + null master cell" `Quick test_ground_form2;
          Alcotest.test_case "form2 null selection" `Quick test_ground_null_selection;
          Alcotest.test_case "master id space guarded at fill" `Quick test_master_id_space;
          Alcotest.test_case "master generation grows by segments" `Quick
            test_master_generation_segments;
          Alcotest.test_case "axiom φ7 immediate" `Quick test_ground_axiom7_immediate;
          Alcotest.test_case "dedup skip counter" `Quick test_ground_dedup_counter;
          Alcotest.test_case "dedup across Int/Float spellings" `Quick
            test_ground_dedup_mixed_spelling;
          Alcotest.test_case "master index prunes scan" `Quick
            test_ground_master_index_selective;
          Alcotest.test_case "read set wider than a word" `Quick test_ground_wide_read_set;
          Alcotest.test_case "entity wider than a bitset word" `Quick test_ground_wide_entity;
          QCheck_alcotest.to_alcotest grounding_matches_reference;
          QCheck_alcotest.to_alcotest gamma_history_free_med;
          QCheck_alcotest.to_alcotest gamma_history_free_syn;
          Alcotest.test_case "identical rule subsumed" `Quick test_ground_subsumed_identical;
          Alcotest.test_case "Med's dep variants subsumed" `Quick test_subsumed_med;
          Alcotest.test_case "variant before its base kept" `Quick test_subsumed_before;
          QCheck_alcotest.to_alcotest engine_gamma_drops_only_axioms;
          QCheck_alcotest.to_alcotest is_cr_agrees_with_chase;
          Alcotest.test_case "user copies of the axioms" `Quick test_ground_axiom_copies;
        ] );
    ]
