(* Tests for the truth-discovery library: metrics, voting,
   DeduceOrder and copyCEF. *)

module Value = Relational.Value
module Schema = Relational.Schema
module Tuple = Relational.Tuple
module Relation = Relational.Relation
module Metrics = Truth.Metrics
module Voting = Truth.Voting
module Deduce_order = Truth.Deduce_order
module Copy_cef = Truth.Copy_cef

let check = Alcotest.check
let value_testable = Alcotest.testable Value.pp Value.equal

(* ------------------------------------------------------------------ *)
(* Metrics                                                            *)
(* ------------------------------------------------------------------ *)

let test_prf_known () =
  (* population 1..10; truth = evens; predicted = multiples of 4 and 3 *)
  let population = List.init 10 (fun i -> i + 1) in
  let prf =
    Metrics.prf
      ~predicted:(fun x -> x mod 4 = 0 || x mod 3 = 0)
      ~truth:(fun x -> x mod 2 = 0)
      population
  in
  (* predicted = {3,4,6,8,9,12? no..10} = {3,4,6,8,9}; truth = {2,4,6,8,10};
     hits = {4,6,8} *)
  check (Alcotest.float 1e-9) "precision" (3.0 /. 5.0) prf.precision;
  check (Alcotest.float 1e-9) "recall" (3.0 /. 5.0) prf.recall;
  check (Alcotest.float 1e-9) "f1" (3.0 /. 5.0) prf.f1

let test_prf_degenerate () =
  let prf = Metrics.prf ~predicted:(fun _ -> false) ~truth:(fun _ -> false) [ 1 ] in
  check (Alcotest.float 1e-9) "empty precision" 1.0 prf.precision;
  check (Alcotest.float 1e-9) "empty recall" 1.0 prf.recall

let test_match_rates () =
  let truth = [| Value.Int 1; Value.Int 2; Value.Null |] in
  check (Alcotest.float 1e-9) "2/3 match"
    (2.0 /. 3.0)
    (Metrics.attribute_match_rate ~truth [| Value.Int 1; Value.Int 9; Value.Null |]);
  check Alcotest.bool "exact" true
    (Metrics.exact_match ~truth (Array.copy truth));
  check Alcotest.bool "not exact" false
    (Metrics.exact_match ~truth [| Value.Int 1; Value.Int 2; Value.Int 3 |])

(* ------------------------------------------------------------------ *)
(* Voting                                                             *)
(* ------------------------------------------------------------------ *)

let schema = Schema.make "v" [ "a"; "b" ]

let test_voting_majority () =
  let rel =
    Relation.make schema
      [
        Tuple.make [| Value.Int 1; Value.String "x" |];
        Tuple.make [| Value.Int 1; Value.String "y" |];
        Tuple.make [| Value.Int 2; Value.String "y" |];
        Tuple.make [| Value.Null; Value.Null |];
      ]
  in
  let r = Voting.resolve rel in
  check value_testable "majority a" (Value.Int 1) r.(0);
  check value_testable "majority b" (Value.String "y") r.(1)

let test_voting_all_null () =
  let rel = Relation.make schema [ Tuple.make [| Value.Null; Value.Null |] ] in
  let r = Voting.resolve rel in
  check value_testable "null stays null" Value.Null r.(0)

let test_voting_tie_deterministic () =
  let rel =
    Relation.make schema
      [
        Tuple.make [| Value.Int 2; Value.Null |];
        Tuple.make [| Value.Int 1; Value.Null |];
      ]
  in
  let r = Voting.resolve rel in
  (* tie broken by Value.compare: the smaller value wins *)
  check value_testable "tie -> smaller" (Value.Int 1) r.(0)

(* Value identity: the code that decides by [Value.equal] against the
   rendering-keyed code it replaced. The oracles below are copies of
   the previous [Value.to_string], [Relation.distinct_column],
   [Preference.value_key], [Preference.of_occurrences] (weights and
   [support] order), [Preference.of_table] and [override] weights,
   [Active_domain.values] on a master-free specification and
   [Voting.resolve]; the relations mix every spelling that trips a
   rendered key: Int/Float twins, -0. / 0. / Int 0, nan, ints beyond
   2^53, floats [%g] renders alike, and strings spelled like values. *)
module Oracle = struct
  let to_string v = Format.asprintf "%a" Value.pp v

  let distinct_column rel ai =
    let seen = Hashtbl.create 16 in
    let acc = ref [] in
    List.iter
      (fun tup ->
        let v = Tuple.get tup ai in
        let key = (Value.hash v, to_string v) in
        if not (Hashtbl.mem seen key) then begin
          Hashtbl.add seen key ();
          acc := v :: !acc
        end)
      (Relation.tuples rel);
    List.rev !acc

  let value_key v =
    match v with
    | Value.Null -> "n"
    | Value.Bool b -> if b then "bt" else "bf"
    | Value.Int i -> "d" ^ string_of_int i
    | Value.Float f when Float.is_integer f && f >= -0x1p62 && f < 0x1p62 ->
        "d" ^ string_of_int (int_of_float f)
    | Value.Float f -> if Float.is_nan f then "fnan" else "f" ^ Printf.sprintf "%h" f
    | Value.String s -> "s" ^ s

  (* (weight, support) of the previous [of_occurrences]. *)
  let of_occurrences ?(default = 0.5) rel =
    let counts = Hashtbl.create 64 in
    let n = Schema.arity (Relation.schema rel) in
    let support = Array.make n [] in
    for a = 0 to n - 1 do
      Array.iter
        (fun v ->
          if not (Value.is_null v) then begin
            let key = (a, value_key v) in
            match Hashtbl.find_opt counts key with
            | Some c -> Hashtbl.replace counts key (c +. 1.0)
            | None ->
                Hashtbl.replace counts key 1.0;
                support.(a) <- v :: support.(a)
          end)
        (Relation.column rel a)
    done;
    ( (fun a v ->
        match Hashtbl.find_opt counts (a, value_key v) with Some c -> c | None -> default),
      fun a -> if a < n then support.(a) else [] )

  (* The previous [of_table] ([otherwise] = the default) and
     [override] ([otherwise] = the base model) weights. *)
  let table triples ~otherwise =
    let t = Hashtbl.create 64 in
    List.iter (fun (a, v, w) -> Hashtbl.replace t (a, value_key v) w) triples;
    fun a v -> match Hashtbl.find_opt t (a, value_key v) with Some w -> w | None -> otherwise a v

  (* The previous [Active_domain.values] of a specification without
     master data: the column's [distinct_column] deduplicated again by
     [value_key], nulls dropped, then ⊥_A unless a value is ⊥_A. *)
  let domain ~include_default ~bottom rel a =
    let seen = Hashtbl.create 16 in
    let base =
      List.filter
        (fun v ->
          let k = value_key v in
          if Value.is_null v || Hashtbl.mem seen k then false
          else (
            Hashtbl.add seen k ();
            true))
        (distinct_column rel a)
    in
    if include_default && not (List.exists (Value.equal bottom) base) then base @ [ bottom ]
    else base

  (* The ranked stream: the domain by weight descending, then
     [Value.compare] ascending. *)
  let ranked weight dom a =
    List.stable_sort
      (fun (v1, w1) (v2, w2) ->
        match Float.compare w2 w1 with 0 -> Value.compare v1 v2 | c -> c)
      (List.map (fun v -> (v, weight a v)) dom)

  let resolve weight rel =
    let n = Schema.arity (Relation.schema rel) in
    Array.init n (fun a ->
        let candidates =
          List.filter (fun v -> not (Value.is_null v)) (distinct_column rel a)
        in
        let best =
          List.fold_left
            (fun acc v ->
              let w = weight a v in
              match acc with
              | None -> Some (v, w)
              | Some (bv, bw) ->
                  if w > bw || (w = bw && Value.compare v bv < 0) then Some (v, w) else acc)
            None candidates
        in
        match best with Some (v, _) -> v | None -> Value.Null)
end

(* Same spelling, not just [Value.equal]: the vote must return the
   very cell the old code returned. *)
let same_spelling a b =
  match (a, b) with
  | Value.Float x, Value.Float y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Value.Float _, _ | _, Value.Float _ -> false
  | _ -> a = b

let spelling_pool =
  [|
    Value.Null; Value.Int 0; Value.Float 0.; Value.Float (-0.); Value.Int 3; Value.Float 3.;
    Value.Float 3.5; Value.Float nan; Value.Float (-.nan); Value.Int ((1 lsl 53) + 1);
    Value.Int (1 lsl 53); Value.Float 0x1p53; Value.Int (1 lsl 60); Value.Float 0x1p60;
    Value.Int 1234567; Value.Float 1234567.; Value.Float 1234567.4; Value.String "3";
    Value.String "3.0"; Value.String "3.5"; Value.String "true"; Value.String "null";
    Value.String "nan"; Value.Bool true; Value.Bool false; Value.Float infinity;
  |]

let gen_spelled_relation =
  QCheck.Gen.(
    let* arity = int_range 1 3 in
    (* Mostly entity-sized; sometimes as wide as the widest entities
       of a paper-scale corpus (69 and 73 tuples). *)
    let* n = frequency [ (5, int_range 0 8); (1, int_range 60 80) ] in
    let* pool = int_range 2 (Array.length spelling_pool) in
    let* rows =
      list_repeat n (array_repeat arity (map (Array.get spelling_pool) (int_bound (pool - 1))))
    in
    return
      (Relation.make
         (Schema.make "spelled" (List.init arity (Printf.sprintf "a%d")))
         (List.map Tuple.make rows)))

let print_relation rel = Format.asprintf "%a" Relation.pp rel

let prop_value_identity =
  QCheck.Test.make ~count:500 ~name:"string-free vote = rendering-keyed oracle"
    (QCheck.make ~print:print_relation gen_spelled_relation)
    (fun rel ->
      let arity = Schema.arity (Relation.schema rel) in
      let same_list a b = List.length a = List.length b && List.for_all2 same_spelling a b in
      let same_row a b = Array.length a = Array.length b && Array.for_all2 same_spelling a b in
      let oweight, osupport = Oracle.of_occurrences rel in
      let pref = Topk.Preference.of_occurrences rel in
      let probes = Array.to_list spelling_pool in
      List.for_all
        (fun tup ->
          Array.for_all (fun v -> String.equal (Value.to_string v) (Oracle.to_string v))
            (Tuple.values tup))
        (Relation.tuples rel)
      && List.for_all
           (fun a ->
             List.for_all (fun v -> Topk.Preference.weight pref a v = oweight a v) probes
             && (match Topk.Preference.support pref a with
                | Some (vs, d) -> same_list vs (osupport a) && d = 0.5
                | None -> false)
             (* The majority [Cleaner.count_changes] reads off the
                specification's value numbering. *)
             && same_spelling
                  (Ordering.Attr_order.numbering_majority
                     (Ordering.Attr_order.numbering_of_column (Relation.column rel a)))
                  (Oracle.resolve oweight rel).(a))
           (List.init arity Fun.id)
      && same_row (Voting.resolve rel) (Oracle.resolve oweight rel)
      && same_row (Voting.resolve ~pref rel) (Oracle.resolve oweight rel)
      (* An explicit table weighs whole classes too (equal keys get
         equal weights), and ties are common at three weights. *)
      &&
      let tweight _ v = float_of_int (Hashtbl.hash (Oracle.value_key v) mod 3) in
      let table =
        List.concat_map
          (fun a -> List.map (fun v -> (a, v, tweight a v)) probes)
          (List.init arity Fun.id)
      in
      same_row
        (Voting.resolve ~pref:(Topk.Preference.of_table table) rel)
        (Oracle.resolve tweight rel))

(* The active domain and the triple tables of the top-k layer, on the
   same relations: every domain spelling, weight and rank equals the
   rendering-keyed oracle's. Twin spellings in one table get different
   weights, so the later triple must win by class, not by spelling. *)
let prop_domain_identity =
  QCheck.Test.make ~count:300 ~name:"active domains and weight tables = rendering-keyed oracle"
    (QCheck.make ~print:print_relation gen_spelled_relation)
    (fun rel ->
      let schema = Relation.schema rel in
      let spec =
        Core.Specification.make_exn ~entity:rel (Rules.Ruleset.make_exn ~schema [])
      in
      let arity = Schema.arity schema in
      let attrs = List.init arity Fun.id in
      let probes = Array.to_list spelling_pool in
      let stranger = Value.String "stranger" in
      let triples weigh =
        List.concat_map
          (fun a -> List.filter_map (fun (i, v) -> Option.map (fun w -> (a, v, w)) (weigh i))
             (List.mapi (fun i v -> (i, v)) probes))
          attrs
      in
      let table = triples (fun i -> Some (float_of_int (i mod 3))) in
      let point = triples (fun i -> if i mod 2 = 0 then Some (float_of_int (i mod 4) +. 0.25) else None) in
      let oweight, _ = Oracle.of_occurrences rel in
      let occ = Topk.Preference.of_occurrences rel in
      let dense a v = float_of_int (Hashtbl.hash (Oracle.value_key v) mod 5 + a) in
      let prefs =
        [
          (occ, oweight);
          ( Topk.Preference.of_table table,
            Oracle.table table ~otherwise:(fun _ _ -> 0.0) );
          (Topk.Preference.override occ point, Oracle.table point ~otherwise:oweight);
          (Topk.Preference.of_fun dense, dense);
        ]
      in
      let same_pair (v1, w1) (v2, w2) = same_spelling v1 v2 && w1 = w2 in
      let same_list same a b = List.length a = List.length b && List.for_all2 same a b in
      List.for_all
        (fun a ->
          let bottom = Topk.Active_domain.default_value schema a in
          List.for_all
            (fun include_default ->
              same_list same_spelling
                (Topk.Active_domain.values ~include_default spec a)
                (Oracle.domain ~include_default ~bottom rel a))
            [ true; false ]
          && List.for_all
               (fun (pref, oracle) ->
                 List.for_all
                   (fun v -> Topk.Preference.weight pref a v = oracle a v)
                   (bottom :: stranger :: probes)
                 && same_list same_pair
                      (Array.to_list (Topk.Active_domain.ranked spec pref a))
                      (Oracle.ranked oracle (Oracle.domain ~include_default:true ~bottom rel a) a))
               prefs)
        attrs)

(* The [Value.equal] twin a claim may be respelled to: integral floats
   and -0. as ints, every nan as [nan]. *)
let respell = function
  | Value.Float f when Float.is_integer f && f >= -0x1p62 && f < 0x1p62 ->
      Value.Int (int_of_float f)
  | Value.Float f when Float.is_nan f -> Value.Float nan
  | v -> v

(* copyCEF and TruthFinder vote per [Value.equal] class: respelling
   every claim to a twin moves no confidence and no truth. Each column
   is one object; each row is a source. *)
let prop_claims_respelled =
  QCheck.Test.make ~count:300 ~name:"copyCEF and TruthFinder ignore respelled claims"
    (QCheck.make ~print:print_relation gen_spelled_relation)
    (fun rel ->
      let arity = Schema.arity (Relation.schema rel) in
      let claims spell =
        List.concat_map
          (fun tup ->
            List.init arity (fun a ->
                {
                  Copy_cef.object_id = a;
                  attr = 0;
                  source = Tuple.tid tup;
                  snapshot = 0;
                  value = spell (Tuple.get tup a);
                }))
          (Relation.tuples rel)
      in
      let num_sources = Relation.size rel in
      let probes = Array.to_list spelling_pool in
      let agree truth confidence r r' =
        List.for_all
          (fun a ->
            Option.equal Value.equal (truth r ~object_id:a ~attr:0) (truth r' ~object_id:a ~attr:0)
            && List.for_all
                 (fun v ->
                   confidence r ~object_id:a ~attr:0 v = confidence r' ~object_id:a ~attr:0 v)
                 probes)
          (List.init arity Fun.id)
      in
      agree Copy_cef.truth Copy_cef.confidence
        (Copy_cef.run ~num_sources (claims Fun.id))
        (Copy_cef.run ~num_sources (claims respell))
      && agree Truth.Truth_finder.truth Truth.Truth_finder.confidence
           (Truth.Truth_finder.run ~num_sources (claims Fun.id))
           (Truth.Truth_finder.run ~num_sources (claims respell)))

(* ------------------------------------------------------------------ *)
(* DeduceOrder                                                        *)
(* ------------------------------------------------------------------ *)

(* week/flag relation with a per-group currency rule *)
let do_schema = Schema.make "c" [ "week"; "flag"; "note" ]

let do_rules =
  Rules.Parser.parse_exn ~schema:do_schema
    "rule cur: forall t1, t2: t1.week < t2.week -> t1 <=[flag] t2"

let do_ruleset = Rules.Ruleset.make_exn ~schema:do_schema do_rules

let test_deduce_order_chain () =
  (* flag evolves false -> true along weeks: total evidence. *)
  let rel =
    Relation.make do_schema
      [
        Tuple.make [| Value.Int 1; Value.Bool false; Value.String "a" |];
        Tuple.make [| Value.Int 2; Value.Bool false; Value.String "b" |];
        Tuple.make [| Value.Int 3; Value.Bool true; Value.String "a" |];
      ]
  in
  let r = Deduce_order.resolve ~ruleset:do_ruleset rel in
  check value_testable "flag deduced current" (Value.Bool true)
    r.values.(Schema.index do_schema "flag");
  check Alcotest.bool "flag by currency" true
    (List.mem (Schema.index do_schema "flag") r.deduced_by_currency);
  (* note has conflicting un-ordered values -> not deduced *)
  check value_testable "note undetermined" Value.Null
    r.values.(Schema.index do_schema "note")

let test_deduce_order_conservative () =
  (* two values never ordered: nothing deduced (no chain). *)
  let rel =
    Relation.make do_schema
      [
        Tuple.make [| Value.Int 1; Value.Bool false; Value.Null |];
        Tuple.make [| Value.Int 1; Value.Bool true; Value.Null |];
      ]
  in
  let r = Deduce_order.resolve ~ruleset:do_ruleset rel in
  check value_testable "no deduction without order" Value.Null
    r.values.(Schema.index do_schema "flag")

let test_deduce_order_cfd_propagation () =
  let rel =
    Relation.make do_schema
      [
        Tuple.make [| Value.Int 1; Value.Bool false; Value.Null |];
        Tuple.make [| Value.Int 2; Value.Bool true; Value.Null |];
      ]
  in
  let cfd =
    Cfd.Constant_cfd.make_exn ~name:"flag_note"
      ~pattern:[ ("flag", Value.Bool true) ]
      ~consequent:("note", Value.String "closed!")
      do_schema
  in
  let r = Deduce_order.resolve ~ruleset:do_ruleset ~cfds:[ cfd ] rel in
  check value_testable "cfd filled note" (Value.String "closed!")
    r.values.(Schema.index do_schema "note");
  check Alcotest.bool "note by cfd" true
    (List.mem (Schema.index do_schema "note") r.deduced_by_cfd)

let test_deduce_order_currency_rules_filter () =
  (* rules with order atoms or te references are not currency rules *)
  let texts =
    "rule c1: forall t1, t2: t1.week < t2.week -> t1 <=[flag] t2\n\
     rule c2: forall t1, t2: t1 <[flag] t2 -> t1 <=[note] t2\n\
     rule c3: forall t1, t2: t2.note = te.note -> t1 <=[note] t2"
  in
  let rs =
    Rules.Ruleset.make_exn ~schema:do_schema
      (Rules.Parser.parse_exn ~schema:do_schema texts)
  in
  check Alcotest.int "only c1 is a currency rule" 1
    (List.length (Deduce_order.currency_rules rs))

(* ------------------------------------------------------------------ *)
(* copyCEF                                                            *)
(* ------------------------------------------------------------------ *)

(* Synthetic claims: 3 honest sources, 1 liar, 1 copier of the liar,
   over 40 objects with boolean truth. *)
let cef_claims () =
  let g = Util.Prng.create 99 in
  let truth = Array.init 40 (fun _ -> Util.Prng.bool g) in
  let claims = ref [] in
  Array.iteri
    (fun obj t ->
      let claim source v =
        claims :=
          { Copy_cef.object_id = obj; attr = 0; source; snapshot = 1; value = Value.Bool v }
          :: !claims
      in
      (* honest sources 0-2: right 95% of the time *)
      for s = 0 to 2 do
        claim s (if Util.Prng.bernoulli g 0.95 then t else not t)
      done;
      (* liar source 3: wrong 70% of the time *)
      let liar_value = if Util.Prng.bernoulli g 0.7 then not t else t in
      claim 3 liar_value;
      (* copier source 4: replicates the liar *)
      claim 4 liar_value)
    truth;
  (truth, !claims)

let test_copycef_finds_truth () =
  let truth, claims = cef_claims () in
  let r = Copy_cef.run ~num_sources:5 claims in
  let correct = ref 0 in
  Array.iteri
    (fun obj t ->
      match Copy_cef.truth r ~object_id:obj ~attr:0 with
      | Some (Value.Bool b) when b = t -> incr correct
      | _ -> ())
    truth;
  check Alcotest.bool "most objects recovered" true (!correct >= 35)

let test_copycef_source_accuracy_ranking () =
  let _, claims = cef_claims () in
  let r = Copy_cef.run ~num_sources:5 claims in
  check Alcotest.bool "honest beats liar" true
    (Copy_cef.source_accuracy r 0 > Copy_cef.source_accuracy r 3);
  check Alcotest.bool "honest accuracy high" true
    (Copy_cef.source_accuracy r 1 > 0.8)

let test_copycef_copy_detection () =
  let _, claims = cef_claims () in
  let r = Copy_cef.run ~num_sources:5 claims in
  (* the copier pair shares many false claims; honest pairs share
     almost none *)
  check Alcotest.bool "copier pair flagged above honest pair" true
    (Copy_cef.copy_probability r 3 4 > Copy_cef.copy_probability r 0 1);
  check Alcotest.bool "copy prob symmetric" true
    (Copy_cef.copy_probability r 3 4 = Copy_cef.copy_probability r 4 3)

let test_copycef_confidence_normalized () =
  let _, claims = cef_claims () in
  let r = Copy_cef.run ~num_sources:5 claims in
  let ct = Copy_cef.confidence r ~object_id:0 ~attr:0 (Value.Bool true) in
  let cf = Copy_cef.confidence r ~object_id:0 ~attr:0 (Value.Bool false) in
  check Alcotest.bool "probabilities sum to ~1" true
    (Float.abs (ct +. cf -. 1.0) < 1e-6 || ct +. cf = 1.0 || cf = 0.0 || ct = 0.0);
  check (Alcotest.float 1e-9) "unclaimed value" 0.0
    (Copy_cef.confidence r ~object_id:0 ~attr:0 (Value.String "?"))

let test_copycef_latest_claim_wins () =
  (* a source that corrected itself: only the latest snapshot counts *)
  let claims =
    [
      { Copy_cef.object_id = 0; attr = 0; source = 0; snapshot = 1; value = Value.Bool false };
      { Copy_cef.object_id = 0; attr = 0; source = 0; snapshot = 5; value = Value.Bool true };
    ]
  in
  let r = Copy_cef.run ~num_sources:1 claims in
  check (Alcotest.option value_testable) "latest claim"
    (Some (Value.Bool true))
    (Copy_cef.truth r ~object_id:0 ~attr:0)

(* ------------------------------------------------------------------ *)
(* TruthFinder (extension baseline)                                   *)
(* ------------------------------------------------------------------ *)

module Truth_finder = Truth.Truth_finder

let test_truthfinder_finds_truth () =
  let truth, claims = cef_claims () in
  let r = Truth_finder.run ~num_sources:5 claims in
  let correct = ref 0 in
  Array.iteri
    (fun obj t ->
      match Truth_finder.truth r ~object_id:obj ~attr:0 with
      | Some (Value.Bool b) when b = t -> incr correct
      | _ -> ())
    truth;
  check Alcotest.bool "most objects recovered" true (!correct >= 32)

let test_truthfinder_trust_ranking () =
  let _, claims = cef_claims () in
  let r = Truth_finder.run ~num_sources:5 claims in
  check Alcotest.bool "honest trusted above liar" true
    (Truth_finder.source_trust r 0 > Truth_finder.source_trust r 3);
  check Alcotest.bool "converges within cap" true (Truth_finder.rounds_used r <= 20)

let test_truthfinder_vs_copycef_on_copiers () =
  (* With a copier amplifying the liar, copy detection should win or
     at least not lose: count correct decisions per method. *)
  let truth, claims = cef_claims () in
  let tf = Truth_finder.run ~num_sources:5 claims in
  let cef = Copy_cef.run ~num_sources:5 claims in
  let score f =
    let c = ref 0 in
    Array.iteri
      (fun obj t ->
        match f ~object_id:obj ~attr:0 with
        | Some (Value.Bool b) when b = t -> incr c
        | _ -> ())
      truth;
    !c
  in
  check Alcotest.bool "copyCEF >= TruthFinder under copying" true
    (score (Copy_cef.truth cef) >= score (Truth_finder.truth tf))

let test_truthfinder_confidence_bounds () =
  let _, claims = cef_claims () in
  let r = Truth_finder.run ~num_sources:5 claims in
  let c = Truth_finder.confidence r ~object_id:0 ~attr:0 (Value.Bool true) in
  check Alcotest.bool "confidence in [0,1]" true (c >= 0.0 && c <= 1.0)

let () =
  Alcotest.run "truth"
    [
      ( "metrics",
        [
          Alcotest.test_case "prf known" `Quick test_prf_known;
          Alcotest.test_case "prf degenerate" `Quick test_prf_degenerate;
          Alcotest.test_case "match rates" `Quick test_match_rates;
        ] );
      ( "voting",
        [
          Alcotest.test_case "majority" `Quick test_voting_majority;
          Alcotest.test_case "all null" `Quick test_voting_all_null;
          Alcotest.test_case "tie deterministic" `Quick test_voting_tie_deterministic;
          QCheck_alcotest.to_alcotest prop_value_identity;
        ] );
      ( "identity",
        [
          QCheck_alcotest.to_alcotest prop_domain_identity;
          QCheck_alcotest.to_alcotest prop_claims_respelled;
        ] );
      ( "deduce-order",
        [
          Alcotest.test_case "chain evidence" `Quick test_deduce_order_chain;
          Alcotest.test_case "conservative" `Quick test_deduce_order_conservative;
          Alcotest.test_case "cfd propagation" `Quick test_deduce_order_cfd_propagation;
          Alcotest.test_case "currency-rule filter" `Quick
            test_deduce_order_currency_rules_filter;
        ] );
      ( "copycef",
        [
          Alcotest.test_case "finds truth" `Quick test_copycef_finds_truth;
          Alcotest.test_case "accuracy ranking" `Quick
            test_copycef_source_accuracy_ranking;
          Alcotest.test_case "copy detection" `Quick test_copycef_copy_detection;
          Alcotest.test_case "confidence normalized" `Quick
            test_copycef_confidence_normalized;
          Alcotest.test_case "latest claim wins" `Quick test_copycef_latest_claim_wins;
        ] );
      ( "truthfinder",
        [
          Alcotest.test_case "finds truth" `Quick test_truthfinder_finds_truth;
          Alcotest.test_case "trust ranking" `Quick test_truthfinder_trust_ranking;
          Alcotest.test_case "copyCEF wins under copying" `Quick
            test_truthfinder_vs_copycef_on_copiers;
          Alcotest.test_case "confidence bounds" `Quick
            test_truthfinder_confidence_bounds;
        ] );
    ]
