(* Tests for the consistency (CFD/FD), entity-resolution and rule-
   discovery substrates. *)

module Value = Relational.Value
module Schema = Relational.Schema
module Tuple = Relational.Tuple
module Relation = Relational.Relation
module Fd = Cfd.Fd
module Ccfd = Cfd.Constant_cfd
module Resolver = Er.Resolver
module Miner = Discovery.Miner

let check = Alcotest.check
let value_testable = Alcotest.testable Value.pp Value.equal

let schema = Schema.make "stat" [ "team"; "arena"; "league" ]

let bulls_cfd =
  Ccfd.make_exn ~name:"bulls"
    ~pattern:[ ("team", Value.String "Chicago Bulls") ]
    ~consequent:("arena", Value.String "United Center")
    schema

let rel rows = Relation.make schema (List.map Tuple.make rows)

(* ------------------------------------------------------------------ *)
(* Constant CFDs                                                      *)
(* ------------------------------------------------------------------ *)

let test_cfd_matches_violates () =
  let good = Tuple.make [| Value.String "Chicago Bulls"; Value.String "United Center"; Value.Null |] in
  let bad = Tuple.make [| Value.String "Chicago Bulls"; Value.String "Chicago Stadium"; Value.Null |] in
  let other = Tuple.make [| Value.String "Lakers"; Value.String "Crypto"; Value.Null |] in
  check Alcotest.bool "matches good" true (Ccfd.matches bulls_cfd good);
  check Alcotest.bool "good not violating" false (Ccfd.violates bulls_cfd good);
  check Alcotest.bool "bad violates" true (Ccfd.violates bulls_cfd bad);
  check Alcotest.bool "other irrelevant" false (Ccfd.violates bulls_cfd other);
  (* null consequent violates: the CFD demands a constant *)
  let null_arena = Tuple.make [| Value.String "Chicago Bulls"; Value.Null; Value.Null |] in
  check Alcotest.bool "null consequent violates" true (Ccfd.violates bulls_cfd null_arena)

let test_cfd_violations_list () =
  let r =
    rel
      [
        [| Value.String "Chicago Bulls"; Value.String "Chicago Stadium"; Value.Null |];
        [| Value.String "Chicago Bulls"; Value.String "United Center"; Value.Null |];
      ]
  in
  check Alcotest.(list (pair string int)) "one violation" [ ("bulls", 0) ]
    (Ccfd.violations [ bulls_cfd ] r)

let test_cfd_repair () =
  let r =
    rel [ [| Value.String "Chicago Bulls"; Value.String "Wrong"; Value.Null |] ]
  in
  let repaired = Ccfd.repair_relation [ bulls_cfd ] r in
  check value_testable "repaired arena" (Value.String "United Center")
    (Relation.get repaired 0 1);
  check Alcotest.(list (pair string int)) "clean after repair" []
    (Ccfd.violations [ bulls_cfd ] repaired)

let test_cfd_repair_cascade () =
  (* arena=UC -> league=NBA cascades after the first repair *)
  let second =
    Ccfd.make_exn ~name:"uc_league"
      ~pattern:[ ("arena", Value.String "United Center") ]
      ~consequent:("league", Value.String "NBA")
      schema
  in
  let r = rel [ [| Value.String "Chicago Bulls"; Value.Null; Value.Null |] ] in
  let repaired = Ccfd.repair_relation [ bulls_cfd; second ] r in
  check value_testable "cascaded league" (Value.String "NBA")
    (Relation.get repaired 0 2)

let test_cfd_validation () =
  check Alcotest.bool "unknown attr" true
    (Result.is_error
       (Ccfd.make ~name:"x" ~pattern:[ ("nope", Value.Null) ]
          ~consequent:("arena", Value.Null) schema));
  check Alcotest.bool "empty pattern" true
    (Result.is_error (Ccfd.make ~name:"x" ~pattern:[] ~consequent:("arena", Value.Null) schema));
  check Alcotest.bool "consequent in pattern" true
    (Result.is_error
       (Ccfd.make ~name:"x"
          ~pattern:[ ("arena", Value.String "a") ]
          ~consequent:("arena", Value.String "b") schema))

let test_cfd_embedding_in_chase () =
  (* The §2.1 remark, executable: the CFD as a form (2) AR corrects
     the target's arena through the chase. *)
  let master_schema, master, ar_rules = Ccfd.to_master_rules ~schema [ bulls_cfd ] in
  let rs = Rules.Ruleset.make_exn ~schema ~master:master_schema ar_rules in
  let entity =
    (* Disagreeing arena observations: λ cannot decide, so the CFD's
       form (2) rule must settle the target's arena. *)
    rel
      [
        [| Value.String "Chicago Bulls"; Value.String "Chicago Stadium"; Value.String "NBA" |];
        [| Value.String "Chicago Bulls"; Value.String "United Center"; Value.String "NBA" |];
      ]
  in
  let spec = Core.Specification.make_exn ~entity ~master rs in
  match Core.Is_cr.run spec with
  | Core.Is_cr.Not_church_rosser { rule; reason } ->
      Alcotest.failf "unexpected rejection %s %s" rule reason
  | Core.Is_cr.Church_rosser inst ->
      check value_testable "arena from CFD" (Value.String "United Center")
        (Core.Instance.te_value inst 1)

(* ------------------------------------------------------------------ *)
(* FDs                                                                *)
(* ------------------------------------------------------------------ *)

let test_fd_violations () =
  let fd = Fd.make_exn ~name:"team_arena" ~lhs:[ "team" ] ~rhs:[ "arena" ] schema in
  let r =
    rel
      [
        [| Value.String "Bulls"; Value.String "UC"; Value.Null |];
        [| Value.String "Bulls"; Value.String "CS"; Value.Null |];
        [| Value.String "Lakers"; Value.String "Crypto"; Value.Null |];
      ]
  in
  check Alcotest.(list (pair int int)) "one violating pair" [ (0, 1) ]
    (Fd.violations fd r);
  check Alcotest.bool "not satisfied" false (Fd.satisfied fd r);
  (* null determinants do not fire the FD *)
  let r2 =
    rel
      [
        [| Value.Null; Value.String "UC"; Value.Null |];
        [| Value.Null; Value.String "CS"; Value.Null |];
      ]
  in
  check Alcotest.bool "null lhs ignored" true (Fd.satisfied fd r2)

(* ------------------------------------------------------------------ *)
(* Entity resolution                                                  *)
(* ------------------------------------------------------------------ *)

let er_schema = Schema.make "er" [ "name"; "city" ]

let test_er_similarity () =
  let config =
    Resolver.default_config ~key_attrs:[ 0 ] ~compare_attrs:[ (0, 1.0); (1, 1.0) ]
  in
  let a = Tuple.make [| Value.String "Michael Jordan"; Value.String "Chicago" |] in
  let b = Tuple.make [| Value.String "Michael Jordon"; Value.String "Chicago" |] in
  let c = Tuple.make [| Value.String "Larry Bird"; Value.String "Boston" |] in
  check Alcotest.bool "near-duplicates similar" true
    (Resolver.similarity config a b > 0.9);
  check Alcotest.bool "distinct dissimilar" true (Resolver.similarity config a c < 0.5);
  (* null contributes the neutral score *)
  let d = Tuple.make [| Value.String "Michael Jordan"; Value.Null |] in
  let s = Resolver.similarity config a d in
  check Alcotest.bool "null neutral" true (s > 0.7 && s < 0.8)

let test_er_cluster_recovers_duplicates () =
  let r =
    Relation.make er_schema
      [
        Tuple.make [| Value.String "Michael Jordan"; Value.String "Chicago" |];
        Tuple.make [| Value.String "Michael Jordan"; Value.String "Chicago" |];
        Tuple.make [| Value.String "Larry Bird"; Value.String "Boston" |];
        Tuple.make [| Value.String "Larry Bird"; Value.Null |];
        Tuple.make [| Value.String "Scottie Pippen"; Value.String "Chicago" |];
      ]
  in
  let config =
    Resolver.default_config ~key_attrs:[ 0 ] ~compare_attrs:[ (0, 2.0); (1, 1.0) ]
  in
  let clusters = Resolver.cluster config r in
  check Alcotest.int "three entities" 3 (List.length clusters);
  let q = Resolver.pairwise_quality ~truth:(fun i -> [| 0; 0; 1; 1; 2 |].(i)) clusters 5 in
  check (Alcotest.float 1e-9) "perfect P" 1.0 q.pair_precision;
  check (Alcotest.float 1e-9) "perfect R" 1.0 q.pair_recall

let test_er_blocking_limits_pairs () =
  let r =
    Relation.make er_schema
      [
        Tuple.make [| Value.String "alpha"; Value.Null |];
        Tuple.make [| Value.String "beta"; Value.Null |];
      ]
  in
  let config = Resolver.default_config ~key_attrs:[ 0 ] ~compare_attrs:[ (0, 1.0) ] in
  check Alcotest.(list (list int)) "no shared block" [] (Resolver.blocks config r)

let test_er_entity_instances () =
  let r =
    Relation.make er_schema
      [
        Tuple.make [| Value.String "x"; Value.Null |];
        Tuple.make [| Value.String "x"; Value.Null |];
      ]
  in
  let config = Resolver.default_config ~key_attrs:[ 0 ] ~compare_attrs:[ (0, 1.0) ] in
  match Resolver.entity_instances config r with
  | [ inst ] -> check Alcotest.int "merged instance" 2 (Relation.size inst)
  | l -> Alcotest.failf "expected one instance, got %d" (List.length l)

let test_er_soundex_digit_keys () =
  (* Soundex codes nothing without a letter: digit-only keys fall back
     to their normalized form instead of all sharing one empty code. *)
  let r =
    Relation.make er_schema
      (List.map
         (fun reg -> Tuple.make [| Value.String reg; Value.Null |])
         [ "12345"; "99999"; "12345" ])
  in
  let config =
    {
      (Resolver.default_config ~key_attrs:[ 0 ] ~compare_attrs:[ (0, 1.0) ]) with
      use_soundex = true;
    }
  in
  check Alcotest.(list (list int)) "one block" [ [ 0; 2 ] ] (Resolver.blocks config r);
  check Alcotest.(list (list int)) "clusters" [ [ 0; 2 ]; [ 1 ] ] (Resolver.cluster config r)

let test_er_repeated_form () =
  (* Two equal rows that do not match each other (their own score is
     2/2 < 1.1) still both match a third whose null scores 1.5: all
     three are one entity, whichever comes first. *)
  let pair = Tuple.make [| Value.String "abc"; Value.String "x" |] in
  let odd = Tuple.make [| Value.Null; Value.String "x" |] in
  let config =
    {
      (Resolver.default_config ~key_attrs:[ 1 ] ~compare_attrs:[ (0, 1.0); (1, 1.0) ])
      with
      null_score = 1.5;
      threshold = 1.1;
    }
  in
  List.iter
    (fun rows ->
      check Alcotest.(list (list int)) "one entity" [ [ 0; 1; 2 ] ]
        (Resolver.cluster config (Relation.make er_schema rows)))
    [ [ pair; odd; pair ]; [ odd; pair; pair ] ]

(* The clusterer before exact pruning, kept as the reference: every
   same-block pair scored with the plain weighted Levenshtein
   similarity, merged by union-find when it reaches the threshold. *)
let reference_similarity (config : Resolver.config) t1 t2 =
  let total_weight =
    List.fold_left (fun acc (_, w) -> acc +. w) 0.0 config.compare_attrs
  in
  if total_weight <= 0.0 then 0.0
  else begin
    let score = ref 0.0 in
    List.iter
      (fun (a, w) ->
        let v1 = Tuple.get t1 a and v2 = Tuple.get t2 a in
        let s =
          if Value.is_null v1 || Value.is_null v2 then config.null_score
          else
            match (v1, v2) with
            | Value.String s1, Value.String s2 ->
                Util.Strsim.levenshtein_similarity
                  (Util.Strsim.normalize s1) (Util.Strsim.normalize s2)
            | _ -> if Value.equal v1 v2 then 1.0 else 0.0
        in
        score := !score +. (w *. s))
      config.compare_attrs;
    !score /. total_weight
  end

let reference_cluster (config : Resolver.config) relation =
  let uf = Util.Union_find.create (Relation.size relation) in
  List.iter
    (fun block ->
      let arr = Array.of_list block in
      for x = 0 to Array.length arr - 1 do
        for y = x + 1 to Array.length arr - 1 do
          let i = arr.(x) and j = arr.(y) in
          if
            (not (Util.Union_find.same uf i j))
            && reference_similarity config (Relation.tuple relation i)
                 (Relation.tuple relation j)
               >= config.threshold
          then Util.Union_find.union uf i j
        done
      done)
    (Resolver.blocks config relation);
  Util.Union_find.groups uf |> Array.to_list
  |> List.filter (fun g -> g <> [])
  |> List.sort compare

(* Random small corpora built to sit on the pruning's edges: names
   respelled by one or two edits around a few stems (some one
   character long, some empty after normalization), nulls, digit-only
   and mixed Int/Float/String values (nan and both zeroes too),
   repeated rows, non-uniform weights (a negative one switches the
   bounds off), a null score above 1, thresholds a sum of scores hits
   exactly (0.5 + 1.0 over weight 2 is 0.75), and key attributes that
   differ from the compared ones (either list may be empty). *)
let fuzz_schema = Schema.make "fz" [ "name"; "reg"; "city"; "num" ]

let fuzz_gen =
  let open QCheck.Gen in
  let respell w =
    let edit w =
      let n = String.length w in
      let* c = oneofl [ "a"; "b"; "x"; "o"; " "; "-"; "Z" ] in
      let* k = int_bound n in
      oneofl
        [
          String.sub w 0 k ^ c ^ String.sub w k (n - k);
          (if k < n then String.sub w 0 k ^ String.sub w (k + 1) (n - k - 1) else w);
          (if k < n then String.sub w 0 k ^ c ^ String.sub w (k + 1) (n - k - 1)
           else w ^ c);
        ]
    in
    let* edits = int_bound 2 in
    let rec go w = function 0 -> return w | e -> edit w >>= fun w -> go w (e - 1) in
    go w edits
  in
  let text stems =
    frequency
      [
        (1, return Value.Null);
        (1, oneofl [ Value.String ""; Value.String "--!" ]);
        (8, map (fun s -> Value.String s) (oneofl stems >>= respell));
      ]
  in
  let num =
    oneofl
      Value.
        [
          Null;
          Int 5;
          Int 7;
          Float 5.0;
          Float 2.5;
          Float Float.nan;
          Float (-0.0);
          Float 0.0;
          String "5";
          String "12345";
        ]
  in
  let row =
    let* name = text [ "jordan"; "pippen"; "abcd"; "abxy"; "x"; "bird" ] in
    let* reg = text [ "12345"; "12346"; "99999"; "r12"; "a" ] in
    let* city = text [ "chicago"; "boston"; "ab" ] in
    let* n = num in
    return (Tuple.make [| name; reg; city; n |])
  in
  let* rows = list_size (int_range 2 24) row in
  (* Repeated rows: clustering decides per distinct form, including a
     form against itself, which fails when its nulls score low. *)
  let* repeats = list_size (int_bound 6) (int_bound (List.length rows - 1)) in
  let rows = rows @ List.map (List.nth rows) repeats in
  let* key_attrs = list_size (int_range 0 2) (int_bound 3) in
  let* compare_attrs =
    list_size (int_range 0 3)
      (pair (int_bound 3) (oneofl [ 0.25; 0.5; 1.0; 1.0; 2.0; 3.0; -1.0 ]))
  in
  let* threshold = oneofl [ 0.5; 0.6; 0.7; 0.72; 0.75; 0.8; 0.9; 1.0 ] in
  let* null_score = oneofl [ 0.0; 0.5; 0.5; 1.0; 1.5 ] in
  let* use_soundex = bool in
  return
    ( { Resolver.key_attrs; use_soundex; compare_attrs; null_score; threshold },
      Relation.make fuzz_schema rows )

let fuzz_arb =
  QCheck.make fuzz_gen ~print:(fun ((c : Resolver.config), r) ->
      Printf.sprintf "keys=[%s] soundex=%b compare=[%s] null=%g threshold=%g rows=[%s]"
        (String.concat ";" (List.map string_of_int c.key_attrs))
        c.use_soundex
        (String.concat ";"
           (List.map (fun (a, w) -> Printf.sprintf "%d:%g" a w) c.compare_attrs))
        c.null_score c.threshold
        (String.concat " | "
           (List.map
              (fun t ->
                String.concat ","
                  (List.map
                     (fun v -> Format.asprintf "%a" Value.pp v)
                     (Array.to_list (Tuple.values t))))
              (Relation.tuples r))))

let er_properties =
  [
    QCheck.Test.make ~count:1500 ~name:"cluster = reference_cluster" fuzz_arb
      (fun (config, r) -> Resolver.cluster config r = reference_cluster config r);
    QCheck.Test.make ~count:300
      ~name:"matches = (reference similarity >= threshold), similarity bit-equal"
      fuzz_arb (fun (config, r) ->
        let ts = Relation.tuples r in
        List.for_all
          (fun t1 ->
            List.for_all
              (fun t2 ->
                let s = reference_similarity config t1 t2 in
                Int64.equal
                  (Int64.bits_of_float (Resolver.similarity config t1 t2))
                  (Int64.bits_of_float s)
                && Resolver.matches config (Resolver.prepare config t1)
                     (Resolver.prepare config t2)
                   = (s >= config.threshold))
              ts)
          ts);
  ]

(* ------------------------------------------------------------------ *)
(* Rule discovery                                                     *)
(* ------------------------------------------------------------------ *)

let miner_schema = Schema.make "m" [ "rnds"; "pts"; "noise" ]

(* Planted law: higher rnds ⇒ more accurate pts. *)
let miner_examples seed n =
  let g = Util.Prng.create seed in
  List.init n (fun e ->
      let final = 5 in
      let truth =
        [| Value.Int (final * 10); Value.Int ((e * 100) + final); Value.Int 0 |]
      in
      let tuples =
        List.init 4 (fun _ ->
            let v = 1 + Util.Prng.int g final in
            Tuple.make
              [| Value.Int (v * 10); Value.Int ((e * 100) + v); Value.Int (Util.Prng.int g 3) |])
      in
      { Miner.instance = Relation.make miner_schema tuples; target = truth })

let test_miner_finds_planted_rule () =
  let mined = Miner.discover miner_schema (miner_examples 5 30) in
  let found =
    List.exists
      (fun (m : Miner.mined) ->
        match m.rule with
        | Rules.Ar.Form1
            {
              f1_lhs =
                [ Rules.Ar.Cmp (Rules.Ar.Tuple_attr (Rules.Ar.T1, 0), Rules.Ar.Lt, Rules.Ar.Tuple_attr (Rules.Ar.T2, 0)) ];
              f1_rhs = { attr = 1; _ };
              _;
            } ->
            m.confidence >= 0.99
        | _ -> false)
      mined
  in
  check Alcotest.bool "planted rnds<->pts rule found" true found

let test_miner_rejects_noise () =
  let mined = Miner.discover miner_schema (miner_examples 6 30) in
  let bad =
    List.exists
      (fun (m : Miner.mined) ->
        match m.rule with
        | Rules.Ar.Form1 { f1_rhs = { attr = 2; _ }; f1_lhs; _ } ->
            (* a confident single-premise ordering of pure noise by
               rnds/pts would be suspicious *)
            List.length f1_lhs = 1 && m.confidence > 0.95 && m.support > 50
        | _ -> false)
      mined
  in
  check Alcotest.bool "no high-support noise rule" false bad

let test_miner_rules_validate () =
  let mined = Miner.discover miner_schema (miner_examples 7 10) in
  List.iter
    (fun (m : Miner.mined) ->
      check Alcotest.bool "mined rule validates" true
        (Result.is_ok (Rules.Ar.validate ~schema:miner_schema ~master:None m.rule)))
    mined

(* Form (2) discovery: a master relation keyed by an id column
   predicts the "brand" attribute. *)
let m2_schema = Schema.make "p" [ "pid"; "brand"; "qty" ]
let m2_master_schema = Schema.make "pm" [ "m_pid"; "m_brand" ]

let m2_master =
  Relation.make m2_master_schema
    (List.init 12 (fun i ->
         Tuple.make
           [| Value.String (Printf.sprintf "id%d" i);
              Value.String (Printf.sprintf "brand%d" i) |]))

let m2_examples =
  List.init 12 (fun i ->
      let target =
        [| Value.String (Printf.sprintf "id%d" i);
           Value.String (Printf.sprintf "brand%d" i);
           Value.Int i |]
      in
      {
        Miner.instance =
          Relation.make m2_schema [ Tuple.make target ];
        target;
      })

let test_miner_discovers_form2 () =
  let mined = Miner.discover_master m2_schema ~master:m2_master m2_examples in
  let found =
    List.exists
      (fun (m : Miner.mined) ->
        match m.rule with
        | Rules.Ar.Form2
            { f2_lhs = [ Rules.Ar.Te_master (0, 0) ]; f2_te_attr = 1; f2_tm_attr = 1; _ }
          ->
            m.confidence = 1.0 && m.support = 12
        | _ -> false)
      mined
  in
  check Alcotest.bool "pid->brand master rule mined" true found;
  (* no rule should predict qty (absent from master) *)
  check Alcotest.bool "no qty rule" false
    (List.exists
       (fun (m : Miner.mined) -> Rules.Ar.attr_written m.rule = 2)
       mined)

let test_miner_schema_mismatch () =
  Alcotest.check_raises "schema mismatch"
    (Invalid_argument "Miner.discover: example schema mismatch") (fun () ->
      ignore
        (Miner.discover schema (miner_examples 8 2)))

let () =
  Alcotest.run "cfd-er-discovery"
    [
      ( "constant-cfd",
        [
          Alcotest.test_case "matches/violates" `Quick test_cfd_matches_violates;
          Alcotest.test_case "violations" `Quick test_cfd_violations_list;
          Alcotest.test_case "repair" `Quick test_cfd_repair;
          Alcotest.test_case "repair cascade" `Quick test_cfd_repair_cascade;
          Alcotest.test_case "validation" `Quick test_cfd_validation;
          Alcotest.test_case "AR embedding in the chase" `Quick
            test_cfd_embedding_in_chase;
        ] );
      ("fd", [ Alcotest.test_case "violations" `Quick test_fd_violations ]);
      ( "er",
        [
          Alcotest.test_case "similarity" `Quick test_er_similarity;
          Alcotest.test_case "clusters duplicates" `Quick
            test_er_cluster_recovers_duplicates;
          Alcotest.test_case "blocking" `Quick test_er_blocking_limits_pairs;
          Alcotest.test_case "entity instances" `Quick test_er_entity_instances;
          Alcotest.test_case "soundex digit-only keys" `Quick
            test_er_soundex_digit_keys;
          Alcotest.test_case "repeated rows join as a whole" `Quick
            test_er_repeated_form;
        ]
        @ List.map QCheck_alcotest.to_alcotest er_properties );
      ( "discovery",
        [
          Alcotest.test_case "finds planted rule" `Quick test_miner_finds_planted_rule;
          Alcotest.test_case "rejects noise" `Quick test_miner_rejects_noise;
          Alcotest.test_case "mined rules validate" `Quick test_miner_rules_validate;
          Alcotest.test_case "discovers form (2)" `Quick test_miner_discovers_form2;
          Alcotest.test_case "schema mismatch" `Quick test_miner_schema_mismatch;
        ] );
    ]
