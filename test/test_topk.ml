(* Tests for the top-k library: preference model, active domains,
   and the three candidate-target algorithms (exactness, agreement,
   early termination, budgets). *)

module Value = Relational.Value
module Schema = Relational.Schema
module Relation = Relational.Relation
module Pref = Topk.Preference
module AD = Topk.Active_domain
module Mj = Datagen.Mj

let check = Alcotest.check
let value_testable = Alcotest.testable Value.pp Value.equal

(* The Example 9 setting: drop φ11 and the team half of φ6, leaving
   te.team and te.arena null. *)
let example9_spec =
  let rs = Rules.Ruleset.remove (Rules.Ruleset.remove Mj.ruleset "phi11") "phi6#2" in
  Core.Specification.with_ruleset Mj.specification rs

let example9 () =
  let compiled = Core.Is_cr.compile example9_spec in
  match Core.Is_cr.run_compiled compiled with
  | Core.Is_cr.Church_rosser inst -> (compiled, Core.Instance.te inst)
  | Core.Is_cr.Not_church_rosser _ -> Alcotest.fail "Example 9 spec must be CR"

let team = Schema.index Mj.stat_schema "team"
let arena = Schema.index Mj.stat_schema "arena"

let algos = [ `Ct; `Ct_h; `Rank_join ]

let solve ?(algo = `Ct) ?max_pops ?budget ~k ~pref compiled te =
  match Topk.solve ~algo ?max_pops ?budget ~k ~pref compiled te with
  | Ok o -> o
  | Error e -> Alcotest.fail (Robust.Error.to_string e)

(* [f ()] and how far it moved the named Obs counter. *)
let counted name f =
  let c = Obs.Counter.make name in
  let was = Obs.enabled () in
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled was) @@ fun () ->
  let v0 = Obs.Counter.value c in
  let r = f () in
  (r, Obs.Counter.value c - v0)

(* ------------------------------------------------------------------ *)
(* Preference                                                         *)
(* ------------------------------------------------------------------ *)

let test_pref_occurrences () =
  let p = Pref.of_occurrences Mj.stat in
  check (Alcotest.float 1e-9) "Chicago Bulls occurs twice" 2.0
    (Pref.weight p team (Value.String "Chicago Bulls"));
  check (Alcotest.float 1e-9) "unknown value gets default" 0.5
    (Pref.weight p team (Value.String "nowhere"));
  check (Alcotest.float 1e-9) "null scores zero in p(t)" 0.0
    (Pref.score p [| Value.Null |])

let test_pref_score_sums () =
  let p = Pref.of_table [ (0, Value.Int 1, 2.0); (1, Value.Int 2, 3.0) ] in
  check (Alcotest.float 1e-9) "sum" 5.0 (Pref.score p [| Value.Int 1; Value.Int 2 |]);
  check (Alcotest.float 1e-9) "missing defaults 0" 2.0
    (Pref.score p [| Value.Int 1; Value.Int 9 |])

let test_pref_override () =
  let p = Pref.override (Pref.uniform ()) [ (0, Value.Int 7, 10.0) ] in
  check (Alcotest.float 1e-9) "overridden" 10.0 (Pref.weight p 0 (Value.Int 7));
  check (Alcotest.float 1e-9) "fallback" 1.0 (Pref.weight p 0 (Value.Int 8))

(* ------------------------------------------------------------------ *)
(* Active domain                                                      *)
(* ------------------------------------------------------------------ *)

let test_active_domain_instance_values () =
  let values = AD.values ~include_default:false example9_spec team in
  let strings = List.map Value.to_string values in
  check
    Alcotest.(list string)
    "team domain in first-appearance order"
    [ "Chicago"; "Chicago Bulls"; "Birmingham Barons" ]
    strings

let test_active_domain_default () =
  let values = AD.values example9_spec team in
  match List.rev values with
  | last :: _ ->
      check Alcotest.bool "last is the default" true (AD.is_default last)
  | [] -> Alcotest.fail "non-empty"

let test_active_domain_master_contribution () =
  (* league is written by φ6#1 from nba.league: the master values
     join the domain. *)
  let league = Schema.index Mj.stat_schema "league" in
  let values = AD.values ~include_default:false Mj.specification league in
  check Alcotest.bool "contains master-only value? (NBA present twice is fine)"
    true
    (List.exists (fun v -> Value.equal v (Value.String "NBA")) values)

let test_active_domain_ranked () =
  let p = Pref.of_occurrences Mj.stat in
  let ranked = AD.ranked example9_spec p arena in
  (match Array.to_list ranked with
  | (v, w) :: _ ->
      check value_testable "United Center first" (Value.String "United Center") v;
      check (Alcotest.float 1e-9) "weight 2" 2.0 w
  | [] -> Alcotest.fail "non-empty");
  (* weights are non-increasing *)
  let ws = Array.map snd ranked in
  Array.iteri (fun i w -> if i > 0 then assert (w <= ws.(i - 1))) ws

(* ------------------------------------------------------------------ *)
(* TopKCT                                                             *)
(* ------------------------------------------------------------------ *)

let test_topkct_example9 () =
  let compiled, te = example9 () in
  check value_testable "team null before top-k" Value.Null te.(team);
  let p = Pref.of_occurrences Mj.stat in
  let r = solve ~k:2 ~pref:p compiled te in
  (match r.targets with
  | best :: _ ->
      check value_testable "best team" (Value.String "Chicago Bulls") best.(team);
      check value_testable "best arena" (Value.String "United Center") best.(arena)
  | [] -> Alcotest.fail "no candidates");
  check Alcotest.int "found two" 2 (List.length r.targets);
  (* Early termination (Prop. 7): no exhaustive enumeration. *)
  check Alcotest.bool "early termination" true (r.pulls <= 4)

let test_topkct_scores_nonincreasing () =
  let compiled, te = example9 () in
  let p = Pref.of_occurrences Mj.stat in
  let r = solve ~k:6 ~pref:p compiled te in
  let scores = List.map (Pref.score p) r.targets in
  let rec monotone = function
    | a :: (b :: _ as rest) -> a >= b && monotone rest
    | _ -> true
  in
  check Alcotest.bool "emitted in score order" true (monotone scores)

let test_topkct_candidates_all_check () =
  let compiled, te = example9 () in
  let p = Pref.of_occurrences Mj.stat in
  let r = solve ~k:6 ~pref:p compiled te in
  List.iter
    (fun t ->
      check Alcotest.bool "candidate passes check" true (Core.Is_cr.check compiled t))
    r.targets

let test_topkct_preserves_non_null () =
  let compiled, te = example9 () in
  let p = Pref.of_occurrences Mj.stat in
  let r = solve ~k:4 ~pref:p compiled te in
  List.iter
    (fun t ->
      Array.iteri
        (fun a v ->
          if not (Value.is_null te.(a)) then
            check value_testable "non-null attrs preserved" te.(a) v)
        t)
    r.targets

let test_topkct_complete_te () =
  let compiled = Core.Is_cr.compile Mj.specification in
  List.iter
    (fun algo ->
      let r =
        solve ~algo ~k:3 ~pref:(Pref.of_occurrences Mj.stat) compiled Mj.expected_target
      in
      check Alcotest.int
        (Topk.algo_name algo ^ ": complete te is its own candidate")
        1 (List.length r.targets);
      check Alcotest.int (Topk.algo_name algo ^ ": no pulls") 0 r.pulls)
    algos

let test_topkct_k_validation () =
  let compiled, te = example9 () in
  List.iter
    (fun algo ->
      match Topk.solve ~algo ~k:0 ~pref:(Pref.uniform ()) compiled te with
      | Error (Robust.Error.Spec_invalid _) -> ()
      | _ -> Alcotest.fail (Topk.algo_name algo ^ ": k < 1 must be Spec_invalid"))
    algos

let test_topkct_budget () =
  let compiled, te = example9 () in
  let p = Pref.of_occurrences Mj.stat in
  let r = solve ~max_pops:1 ~k:10 ~pref:p compiled te in
  check Alcotest.bool "budget respected" true (r.pulls <= 1);
  check Alcotest.bool "partial result" true (List.length r.targets <= 1)

(* ------------------------------------------------------------------ *)
(* RankJoinCT / agreement                                             *)
(* ------------------------------------------------------------------ *)

(* A tie-free preference so that both exact algorithms must return
   identical lists. *)
let tie_free_pref =
  Pref.of_fun (fun a v ->
      float_of_int (Value.hash v mod 1000 + a) /. 7.0)

let test_exact_algorithms_agree () =
  let compiled, te = example9 () in
  for k = 1 to 6 do
    let a = solve ~k ~pref:tie_free_pref compiled te in
    let b = solve ~algo:`Rank_join ~k ~pref:tie_free_pref compiled te in
    check Alcotest.int
      (Printf.sprintf "same count at k=%d" k)
      (List.length a.targets) (List.length b.targets);
    List.iter2
      (fun x y ->
        check Alcotest.bool "same tuple" true (Array.for_all2 Value.equal x y))
      a.targets b.targets
  done

let test_rankjoin_checks_all_combos () =
  let compiled, te = example9 () in
  let r, combos =
    counted "rank_join_combos_total" (fun () ->
        solve ~algo:`Rank_join ~k:2 ~pref:tie_free_pref compiled te)
  in
  (* §6.1: every generated combination is checked. *)
  check Alcotest.int "checks = combos" combos r.checks

(* One cap, two units: pulls (list accesses) and combos (join
   combinations) diverge exponentially (one pull joins against a
   cross product of seen prefixes), so the cap bounds both and the
   trip names the unit that reached it. *)
let test_rankjoin_pulls_vs_combos_trips () =
  let compiled, te = example9 () in
  let run cap =
    counted "rank_join_combos_total" (fun () ->
        solve ~algo:`Rank_join ~max_pops:cap ~k:8 ~pref:tie_free_pref compiled te)
  in
  let trip r = Option.map Robust.Error.trip_to_string r.Topk.exhausted in
  let opt = Alcotest.(option string) in
  (* A cap the pulls reach first trips Steps. *)
  let p, _ = run 1 in
  check opt "pulls reach the cap: Steps" (Some "max-steps") (trip p);
  check Alcotest.int "pull count capped" 1 p.pulls;
  (* A cap the combinations reach first trips Combos. *)
  let c, combos = run 6 in
  check opt "combos reach the cap: Combos" (Some "max-combos") (trip c);
  check Alcotest.bool "pulls stopped short of the cap" true (c.pulls < 6);
  check Alcotest.int "combo count capped" 6 combos;
  (* The combinations are bounded by the same value. *)
  let _, combos = run 3 in
  check Alcotest.bool "combos inherit the pulls cap" true (combos <= 3);
  (* The whole join takes 12 combinations: a cap of 12 cuts nothing. *)
  let full, combos = run max_int in
  check Alcotest.int "the full join's combinations" 12 combos;
  let exact, _ = run 12 in
  check opt "a join ending at the cap is not exhausted" None (trip exact);
  check Alcotest.bool "same answer as uncapped" true
    (List.length exact.targets = List.length full.targets
    && List.for_all2 (Array.for_all2 Value.equal) exact.targets full.targets)

(* ------------------------------------------------------------------ *)
(* TopKCTh                                                            *)
(* ------------------------------------------------------------------ *)

let test_topkcth_returns_candidates () =
  let compiled, te = example9 () in
  let p = Pref.of_occurrences Mj.stat in
  let r = solve ~algo:`Ct_h ~k:3 ~pref:p compiled te in
  check Alcotest.bool "non-empty" true (r.targets <> []);
  List.iter
    (fun t ->
      check Alcotest.bool "verified candidate" true (Core.Is_cr.check compiled t))
    r.targets

let test_topkcth_top1_agrees () =
  let compiled, te = example9 () in
  let p = Pref.of_occurrences Mj.stat in
  let h = solve ~algo:`Ct_h ~k:1 ~pref:p compiled te in
  let e = solve ~k:1 ~pref:p compiled te in
  match (h.targets, e.targets) with
  | [ a ], [ b ] ->
      (* the top candidate needs no repair here, so both agree *)
      check Alcotest.bool "same top candidate" true (Array.for_all2 Value.equal a b)
  | _ -> Alcotest.fail "both should find one candidate"

let test_topkcth_no_duplicates () =
  let compiled, te = example9 () in
  let p = Pref.of_occurrences Mj.stat in
  let r = solve ~algo:`Ct_h ~k:6 ~pref:p compiled te in
  let keys =
    List.map
      (fun t -> String.concat "|" (Array.to_list (Array.map Value.to_string t)))
      r.targets
  in
  check Alcotest.int "distinct" (List.length keys)
    (List.length (List.sort_uniq compare keys))

(* ------------------------------------------------------------------ *)
(* Exhaustive oracle cross-checks (Thm. 3 / §6 exactness)             *)
(* ------------------------------------------------------------------ *)

let test_oracle_agrees_with_topkct () =
  let compiled, te = example9 () in
  let p = Pref.of_occurrences Mj.stat in
  let oracle = Oracle.Candidate_oracle.enumerate ~pref:p compiled te in
  check Alcotest.bool "not truncated" false oracle.truncated;
  check Alcotest.bool "candidates exist" true (oracle.candidates <> []);
  let n = List.length oracle.candidates in
  (* TopKCT at k >= |candidates| must return exactly the oracle set. *)
  let r = solve ~k:(n + 3) ~pref:p compiled te in
  check Alcotest.int "TopKCT finds all candidates" n (List.length r.targets);
  let key t = String.concat "|" (Array.to_list (Array.map Value.to_string t)) in
  let sort l = List.sort compare (List.map key l) in
  check Alcotest.(list string) "same candidate sets" (sort oracle.candidates)
    (sort r.targets);
  (* and the scores of the top-k prefix agree for every k *)
  for k = 1 to n do
    let topk = solve ~k ~pref:p compiled te in
    let score_of l = List.map (Pref.score p) l in
    let rec take n = function
      | [] -> [] | _ when n = 0 -> [] | x :: r -> x :: take (n - 1) r
    in
    check Alcotest.(list (float 1e-9)) "prefix scores match oracle"
      (score_of (take k oracle.candidates))
      (score_of topk.targets)
  done

let test_oracle_topkcth_subset () =
  let compiled, te = example9 () in
  let p = Pref.of_occurrences Mj.stat in
  let oracle = Oracle.Candidate_oracle.enumerate ~pref:p compiled te in
  let key t = String.concat "|" (Array.to_list (Array.map Value.to_string t)) in
  let universe = List.map key oracle.candidates in
  let h = solve ~algo:`Ct_h ~k:8 ~pref:p compiled te in
  List.iter
    (fun t ->
      check Alcotest.bool "heuristic output is a candidate" true
        (List.mem (key t) universe))
    h.targets

let test_oracle_exists_and_count () =
  let compiled, te = example9 () in
  check Alcotest.bool "candidates exist" true
    (Oracle.Candidate_oracle.exists_candidate compiled te);
  let n, truncated = Oracle.Candidate_oracle.count compiled te in
  check Alcotest.bool "count positive, untruncated" true (n > 0 && not truncated);
  let p = Pref.of_occurrences Mj.stat in
  let oracle = Oracle.Candidate_oracle.enumerate ~pref:p compiled te in
  check Alcotest.int "count = enumerate length" (List.length oracle.candidates) n

let test_oracle_example7 () =
  (* Example 7: R = (A1..An), Ie = {(0,...,0), (1,...,1)}, empty Σ
     and Im ⇒ exactly 2^n candidate targets over instance values. *)
  let n = 4 in
  let schema7 = Schema.make "e7" (List.init n (fun i -> "a" ^ string_of_int i)) in
  let entity =
    Relation.make schema7
      [
        Relational.Tuple.make (Array.make n (Value.Int 0));
        Relational.Tuple.make (Array.make n (Value.Int 1));
      ]
  in
  let rs = Rules.Ruleset.make_exn ~schema:schema7 [] in
  let spec = Core.Specification.make_exn ~entity rs in
  let compiled = Core.Is_cr.compile spec in
  let te =
    match Core.Is_cr.run_compiled compiled with
    | Core.Is_cr.Church_rosser inst -> Core.Instance.te inst
    | Core.Is_cr.Not_church_rosser _ -> Alcotest.fail "CR expected"
  in
  check Alcotest.bool "te all null" true (Array.for_all Value.is_null te);
  let count, truncated =
    Oracle.Candidate_oracle.count ~include_default:false compiled te
  in
  check Alcotest.bool "untruncated" false truncated;
  check Alcotest.int "2^n candidates" 16 count;
  (* TopKCT enumerates all of them when asked, over the active
     domains with ⊥_A: 3^n *)
  let with_default, _ = Oracle.Candidate_oracle.count compiled te in
  check Alcotest.int "3^n candidates with ⊥" 81 with_default;
  let r = solve ~k:100 ~pref:(Pref.uniform ()) compiled te in
  check Alcotest.int "TopKCT finds all 3^n" with_default (List.length r.targets)

let test_oracle_limit () =
  let compiled, te = example9 () in
  let p = Pref.of_occurrences Mj.stat in
  let oracle = Oracle.Candidate_oracle.enumerate ~limit:2 ~pref:p compiled te in
  check Alcotest.bool "truncated" true oracle.truncated;
  check Alcotest.bool "checked respects limit" true (oracle.checked <= 2)

(* ------------------------------------------------------------------ *)
(* Instance optimality accounting (Prop. 7)                           *)
(* ------------------------------------------------------------------ *)

(* Regression: weight keys went through [string_of_float], whose 12
   significant digits merged distinct large ints (and so pooled their
   weights and dropped candidates from active domains). A triple's
   weight reaches exactly the values [Value.equal] to its own. *)
let test_of_table_exact () =
  let same a b = Pref.weight (Pref.of_table [ (0, a, 1.0) ]) 0 b = 1.0 in
  check Alcotest.bool "distinct 13-digit ints" false
    (same (Value.Int 1234567890123) (Value.Int 1234567890124));
  check Alcotest.bool "int meets integral float" true
    (same (Value.Int 3) (Value.Float 3.0));
  check Alcotest.bool "-0. meets 0" true (same (Value.Float (-0.0)) (Value.Int 0));
  check Alcotest.bool "close floats stay apart" false
    (same (Value.Float 0.1) (Value.Float (0.1 +. epsilon_float)));
  check Alcotest.bool "string vs int" false (same (Value.String "3") (Value.Int 3));
  let p = Pref.of_table [ (0, Value.Int 1234567890123, 2.0) ] in
  check (Alcotest.float 1e-9) "neighbour keeps its own weight" 0.0
    (Pref.weight p 0 (Value.Int 1234567890124));
  (* a triple weighs exactly its Value.equal class *)
  let vs =
    Value.
      [ Null; Bool true; Int 0; Int 7; Int max_int; Float 7.0; Float 7.5;
        Float 0x1p62; Float nan; String "7" ]
  in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          check Alcotest.bool
            (Printf.sprintf "weight %s ~ %s" (Value.to_string a) (Value.to_string b))
            (Value.equal a b) (same a b))
        vs)
    vs

(* ------------------------------------------------------------------ *)
(* Randomized guards: memoized domains, exactness vs the oracle       *)
(* ------------------------------------------------------------------ *)

(* The active domain as a from-scratch scan of Ie's column and every
   master column a form (2) rule can copy or bind into the
   attribute — what [AD.values] computed before master domains were
   memoized. *)
let scan_domain ?(include_default = true) spec attr =
  let seen = Value.Tbl.create 16 and acc = ref [] in
  let push v =
    if not (Value.is_null v || Value.Tbl.mem seen v) then begin
      Value.Tbl.add seen v ();
      acc := v :: !acc
    end
  in
  Array.iter push (Relation.column (Core.Specification.entity spec) attr);
  (match Core.Specification.master spec with
  | None -> ()
  | Some im ->
      let cols =
        List.concat_map
          (function
            | Rules.Ar.Form2 r ->
                (if r.f2_te_attr = attr then [ r.f2_tm_attr ] else [])
                @ List.filter_map
                    (function
                      | Rules.Ar.Te_master (a, b) when a = attr -> Some b
                      | _ -> None)
                    r.f2_lhs
            | Rules.Ar.Form1 _ -> [])
          (Rules.Ruleset.user_rules (Core.Specification.ruleset spec))
      in
      List.iter
        (fun c -> Array.iter push (Relation.column im c))
        (List.sort_uniq Int.compare cols));
  if include_default then push (AD.default_value (Core.Specification.schema spec) attr);
  List.rev !acc

let domains_agree spec =
  let arity = Schema.arity (Core.Specification.schema spec) in
  List.for_all
    (fun attr ->
      List.for_all
        (fun include_default ->
          AD.values ~include_default spec attr = scan_domain ~include_default spec attr)
        [ true; false ])
    (List.init arity Fun.id)

let active_domain_memo_property =
  QCheck.Test.make ~count:15
    ~name:"memoized active domains equal a fresh scan, across a master swap"
    QCheck.(pair (int_bound 50_000) (int_bound 1_000))
    (fun (seed, pick) ->
      let ds = Datagen.Med_gen.dataset ~entities:4 ~seed () in
      let master = ds.Datagen.Entity_gen.master in
      let n = Relation.size master in
      (* A master fix builds a new relation: rewrite one cell of a
         master column to an existing value of that column (or a new
         one), as Session's Master_fix does. *)
      let swapped =
        if n = 0 then master
        else
          let row = pick mod n in
          let col = pick mod Schema.arity (Relation.schema master) in
          let donor = Relation.get master ((row + 1) mod n) col in
          let value =
            if pick mod 2 = 0 then donor else Value.String (Printf.sprintf "fix-%d" pick)
          in
          Relation.make (Relation.schema master)
            (List.mapi
               (fun i t -> if i = row then Relational.Tuple.set t col value else t)
               (Relation.tuples master))
      in
      List.for_all
        (fun e ->
          let spec = Datagen.Entity_gen.spec_for ds e in
          let spec' =
            Core.Specification.make_exn ~entity:e.Datagen.Entity_gen.instance
              ~master:swapped ds.Datagen.Entity_gen.ruleset
          in
          (* twice on each master: the second call reads the memo *)
          domains_agree spec && domains_agree spec' && domains_agree spec
          && domains_agree spec')
        ds.Datagen.Entity_gen.entities)

(* A random, practically tie-free preference: exact top-k lists are
   then unique, so TopKCT and the oracle must agree tuple for tuple. *)
let random_pref seed =
  let g = Random.State.make [| seed |] in
  let tables = Hashtbl.create 8 in
  Pref.of_fun (fun a v ->
      let table =
        match Hashtbl.find_opt tables a with
        | Some t -> t
        | None ->
            let t = Value.Tbl.create 16 in
            Hashtbl.add tables a t;
            t
      in
      match Value.Tbl.find_opt table v with
      | Some w -> w
      | None ->
          let w = Random.State.float g 10.0 in
          Value.Tbl.replace table v w;
          w)

(* Numeric twins and zeroes for master and entity cells: several
   spellings of one number, which the domain must unify and spell as
   it first met them. *)
let twins =
  Value.[ Int 3; Float 3.0; Float (-0.0); Int 0; Float 0.0; Float 0.5; Int (-2); Float (-2.0) ]

(* Random (attribute, value, weight) triples over domain values,
   twins, ⊥ and strangers; dyadic weights, a third of them equal to
   the default 0.5. *)
let random_triples g spec =
  let arity = Schema.arity (Core.Specification.schema spec) in
  List.init 40 (fun _ ->
      let a = Random.State.int g arity in
      let dom = Array.of_list (AD.values spec a) in
      let v =
        match Random.State.int g 4 with
        | 0 -> List.nth twins (Random.State.int g (List.length twins))
        | 1 -> Value.String (Printf.sprintf "stranger-%d" (Random.State.int g 5))
        | _ -> dom.(Random.State.int g (Array.length dom))
      in
      let w = [| 0.25; 0.5; 0.5; 0.75; 1.5; 2.0 |].(Random.State.int g 6) in
      (a, v, w))

let rec take n = function [] -> [] | _ when n = 0 -> [] | x :: r -> x :: take (n - 1) r
let same_tuple a b = Array.for_all2 Value.equal a b

(* The eager reference: the whole domain weighed in [AD.values] order
   and sorted by weight descending, then [Value.compare]. *)
let eager_ranked spec pref attr =
  let weighted =
    Array.of_list
      (List.map (fun v -> (v, Pref.weight pref attr v)) (AD.values spec attr))
  in
  Array.stable_sort
    (fun (v1, w1) (v2, w2) ->
      match Float.compare w2 w1 with 0 -> Value.compare v1 v2 | c -> c)
    weighted;
  weighted

(* TopKCT's total order on candidates: score descending, then the null
   attributes' rank positions lexicographically, each position read
   from the eager reference sort (not from the stream under test). *)
let ct_order ~pref compiled te candidates =
  let spec = Core.Is_cr.compiled_spec compiled in
  let ranks =
    List.filter_map
      (fun a -> if Value.is_null te.(a) then Some (a, eager_ranked spec pref a) else None)
      (List.init (Array.length te) Fun.id)
  in
  let position ranked v =
    let rec go i = if Value.equal (fst ranked.(i)) v then i else go (i + 1) in
    go 0
  in
  let key t = List.map (fun (a, r) -> position r t.(a)) ranks in
  List.stable_sort
    (fun x y ->
      match Float.compare (Pref.score pref y) (Pref.score pref x) with
      | 0 -> compare (key x) (key y)
      | c -> c)
    candidates

(* The oracle's candidates for a Church-Rosser spec's deduced target,
   and their ranking: the oracle's own order, or with [~ties] (a
   preference with exactly tied scores — dyadic weights, so every sum
   is exact) TopKCT's tie order ({!ct_order}). [None] when the spec is
   not Church-Rosser or its completion space exceeds the oracle's
   limit. *)
let oracle_ranking ~ties ~pref compiled =
  match Core.Is_cr.run_compiled compiled with
  | Core.Is_cr.Not_church_rosser _ -> None
  | Core.Is_cr.Church_rosser inst ->
      let te = Core.Instance.te inst in
      let oracle = Oracle.Candidate_oracle.enumerate ~limit:4_096 ~pref compiled te in
      if oracle.truncated then None
      else
        let ranked =
          if ties then ct_order ~pref compiled te oracle.candidates else oracle.candidates
        in
        Some (te, oracle.candidates, ranked)

let rec distinct = function
  | [] -> true
  | t :: rest -> (not (List.exists (same_tuple t) rest)) && distinct rest

(* Does [o] answer [algo]'s top-k exactly? TopKCT's is the oracle's
   ranking, tuple for tuple and score for score. RankJoinCT may break
   score ties in another order: the oracle's top-k as a set (any
   distinct candidates under [~ties]), with the same score sequence.
   TopKCTh only returns oracle candidates. *)
let exact_answer ~ties ~pref ~candidates ~ranked ~k algo (o : Topk.outcome) =
  let exact = take k ranked in
  let same_score a b = Float.abs (Pref.score pref a -. Pref.score pref b) < 1e-9 in
  let candidate t = List.exists (same_tuple t) candidates in
  match algo with
  | `Ct ->
      List.length o.targets = List.length exact
      && List.for_all2 (fun a b -> same_tuple a b && same_score a b) o.targets exact
  | `Ct_h -> List.for_all candidate o.targets
  | `Rank_join ->
      List.length o.targets = List.length exact
      && List.for_all
           (fun t -> if ties then candidate t else List.exists (same_tuple t) exact)
           o.targets
      && distinct o.targets
      && List.for_all2 same_score o.targets exact

(* Every algorithm answers exactly at k = 1, 2, 3 and past the
   candidate count (which walks the whole lattice, so the snapshot
   learns from every rejection and reuses it). *)
let agrees_with_oracle ?(ties = false) ~pref compiled =
  match oracle_ranking ~ties ~pref compiled with
  | None -> true
  | Some (te, candidates, ranked) ->
      List.for_all
        (fun k ->
          List.for_all
            (fun algo ->
              exact_answer ~ties ~pref ~candidates ~ranked ~k algo
                (solve ~algo ~k ~pref compiled te))
            algos)
        [ 1; 2; 3; List.length candidates + 1 ]

(* The random small specs of the oracle properties: 100 rules leave
   Syn's three plain attributes null (48-64 completions, a third of
   them pruned by the chase check), and each entity of a tiny Med
   corpus under a dense model, then the two sparse ones (two-source
   streams, tied scores). *)
let oracle_cases seed =
  let syn = Datagen.Syn_gen.dataset ~ie:6 ~im:3 ~sigma:100 ~domain:3 ~seed () in
  let med = Datagen.Med_gen.dataset ~entities:3 ~seed () in
  let g = Random.State.make [| seed |] in
  (false, syn.Datagen.Syn_gen.pref, Core.Is_cr.compile syn.Datagen.Syn_gen.spec)
  :: List.concat_map
       (fun (e : Datagen.Entity_gen.entity) ->
         let spec = Datagen.Entity_gen.spec_for med e in
         let compiled = Core.Is_cr.compile spec in
         [
           (false, random_pref seed, compiled);
           (true, Pref.of_occurrences e.instance, compiled);
           (true, Pref.of_table ~default:0.5 (random_triples g spec), compiled);
         ])
       med.Datagen.Entity_gen.entities

let topk_oracle_property =
  QCheck.Test.make ~count:12
    ~name:
      "TopKCT = oracle top-k, TopKCTh within the oracle, RankJoinCT = \
       oracle top-k set (tiny Syn/Med)"
    QCheck.(int_bound 50_000)
    (fun seed ->
      List.for_all
        (fun (ties, pref, compiled) -> agrees_with_oracle ~ties ~pref compiled)
        (oracle_cases seed))

(* A capped call's partial answer is sound: for every cap from 1 to
   one past the candidate count, at k past the candidate count, it
   pulls at most the cap and returns distinct oracle candidates;
   TopKCT's are a prefix of its ranking; and an answer not marked
   exhausted is the exact one. The sweep costs the square of the
   candidate count, so specs with more than 150 candidates (a few in
   a hundred, up to about 740) are skipped. *)
let partials_sound ~ties ~pref compiled =
  match oracle_ranking ~ties ~pref compiled with
  | Some (_, candidates, _) when List.length candidates > 150 -> true
  | None -> true
  | Some (te, candidates, ranked) ->
      let n = List.length candidates in
      let k = n + 1 in
      List.for_all
        (fun algo ->
          List.for_all
            (fun cap ->
              let o = solve ~algo ~max_pops:cap ~k ~pref compiled te in
              o.pulls <= cap
              && List.for_all (fun t -> List.exists (same_tuple t) candidates) o.targets
              && distinct o.targets
              && (algo <> `Ct
                 || List.for_all2 same_tuple o.targets (take (List.length o.targets) ranked))
              && (o.exhausted <> None || algo = `Ct_h
                 || exact_answer ~ties ~pref ~candidates ~ranked ~k algo o))
            (List.init (n + 1) (fun i -> i + 1)))
        algos

let partials_property =
  QCheck.Test.make ~count:12 ~name:"budgeted top-k partials are sound (tiny Syn/Med)"
    QCheck.(int_bound 50_000)
    (fun seed ->
      List.for_all
        (fun (ties, pref, compiled) -> partials_sound ~ties ~pref compiled)
        (oracle_cases seed))

(* ------------------------------------------------------------------ *)
(* Ranked streams                                                     *)
(* ------------------------------------------------------------------ *)

(* Same spelling, not just [Value.equal]: Int 3 and Float 3., or 0.
   and -0., are different answers to print. *)
let same_spelling a b =
  match (a, b) with
  | Value.Float x, Value.Float y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Value.Float _, _ | _, Value.Float _ -> false
  | _ -> a = b

let same_ranked a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun (v, w) (v', w') -> same_spelling v v' && Float.equal w w') a b

(* A tiny Med corpus with twins (and ⊥-lookalike strings) written into
   some master and entity cells, 20 extra master rows, and one extra
   form (2) rule that copies a covered attribute from its column when
   it joins another one — so that attribute's domain merges two
   master columns, which share twins spelled differently. *)
let twin_corpus g ~seed =
  let ds = Datagen.Med_gen.dataset ~entities:3 ~seed () in
  let pick l = List.nth l (Random.State.int g (List.length l)) in
  let ruleset =
    match
      List.filter_map
        (function Rules.Ar.Form2 r -> Some r | Rules.Ar.Form1 _ -> None)
        (Rules.Ruleset.user_rules ds.Datagen.Entity_gen.ruleset)
    with
    | r1 :: rest -> (
        match List.find_opt (fun r -> r.Rules.Ar.f2_tm_attr <> r1.Rules.Ar.f2_tm_attr) rest with
        | None -> ds.ruleset
        | Some r2 ->
            Result.get_ok
              (Rules.Ruleset.add ds.ruleset
                 (Rules.Ar.Form2
                    {
                      f2_name = "cross";
                      f2_lhs = [ Rules.Ar.Te_master (r1.f2_te_attr, r2.f2_tm_attr) ];
                      f2_te_attr = r1.f2_te_attr;
                      f2_tm_attr = r1.f2_tm_attr;
                    })))
    | [] -> ds.ruleset
  in
  let grown =
    let m = ds.Datagen.Entity_gen.master in
    let arity = Schema.arity (Relation.schema m) in
    Relation.make (Relation.schema m)
      (Relation.tuples m
      @ List.init 20 (fun i ->
            Relational.Tuple.make
              (Array.init arity (fun c ->
                   if Random.State.bool g then pick twins
                   else Value.String (Printf.sprintf "m-%d-%d" c (i mod 7))))))
  in
  let poke rel ~cells =
    let n = Relation.size rel and arity = Schema.arity (Relation.schema rel) in
    if n = 0 then rel
    else begin
      let rows = Array.of_list (Relation.tuples rel) in
      for _ = 1 to cells do
        let r = Random.State.int g n and c = Random.State.int g arity in
        let v =
          if Random.State.int g 8 = 0 then
            AD.default_value (Relation.schema rel) c
          else pick twins
        in
        rows.(r) <- Relational.Tuple.set rows.(r) c v
      done;
      Relation.make (Relation.schema rel) (Array.to_list rows)
    end
  in
  let master = poke grown ~cells:10 in
  let entities =
    List.map
      (fun (e : Datagen.Entity_gen.entity) -> poke e.instance ~cells:3)
      ds.Datagen.Entity_gen.entities
  in
  (ruleset, master, entities)

let stream_property =
  QCheck.Test.make ~count:20
    ~name:"ranked stream = eager weighted sort (sparse, dense, twins, ⊥)"
    QCheck.(int_bound 50_000)
    (fun seed ->
      let g = Random.State.make [| seed |] in
      let ruleset, master, entities = twin_corpus g ~seed in
      List.for_all
        (fun entity ->
          let spec = Core.Specification.make_exn ~entity ~master ruleset in
          let arity = Schema.arity (Core.Specification.schema spec) in
          let other = List.nth entities (Random.State.int g (List.length entities)) in
          let triples = random_triples g spec in
          let prefs =
            [
              (fun () -> Pref.of_occurrences entity);
              (fun () -> Pref.of_occurrences other);
              (fun () -> Pref.of_table ~default:0.5 triples);
              (fun () -> Pref.override (Pref.of_occurrences entity) triples);
              (fun () -> random_pref seed);
            ]
          in
          List.for_all
            (fun mk ->
              List.for_all
                (fun attr ->
                  (* Fresh twins of the model for the two sides: a
                     memoizing one must see the same queries. *)
                  same_ranked
                    (AD.ranked spec (mk ()) attr)
                    (eager_ranked spec (mk ()) attr))
                (List.init arity Fun.id))
            prefs)
        entities)

(* Regression: a real cell spelled like ⊥_A ("<other:MN>") entered the
   domain twice — once as itself, once as the appended default — so
   TopKCT and RankJoinCT returned the same target twice (TopKCTh hid
   it by deduplicating its output). *)
let test_real_default_not_duplicated () =
  let mn = Schema.index Mj.stat_schema "MN" in
  let row m =
    Relational.Tuple.make
      Value.
        [|
          String "Michael"; m; String "Jordan"; Int 16; Int 424; Int 45;
          String "NBA"; String "Chicago Bulls"; String "United Center";
        |]
  in
  let entity =
    Relation.make Mj.stat_schema
      [ row (AD.default_value Mj.stat_schema mn); row (Value.String "X") ]
  in
  let spec = Core.Specification.make_exn ~entity ~master:Mj.nba Mj.ruleset in
  let defaults = List.filter AD.is_default (AD.values spec mn) in
  check Alcotest.int "⊥_MN once in the domain" 1 (List.length defaults);
  let compiled = Core.Is_cr.compile spec in
  let te =
    match Core.Is_cr.run_compiled compiled with
    | Core.Is_cr.Church_rosser inst -> Core.Instance.te inst
    | Core.Is_cr.Not_church_rosser _ -> Alcotest.fail "CR expected"
  in
  let pref = Pref.of_occurrences entity in
  List.iter
    (fun algo ->
      match Topk.solve ~algo ~k:4 ~pref compiled te with
      | Error _ -> Alcotest.fail "solve"
      | Ok o ->
          let name = Topk.algo_name algo in
          check Alcotest.int (name ^ ": two distinct candidates") 2
            (List.length o.Topk.targets);
          (match o.Topk.targets with
          | [ a; b ] ->
              check Alcotest.bool (name ^ ": no repeated target") false (same_tuple a b)
          | _ -> ()))
    [ `Ct; `Ct_h; `Rank_join ]

(* ------------------------------------------------------------------ *)
(* Deadlines                                                          *)
(* ------------------------------------------------------------------ *)

(* A fake clock that advances 1 ms per read: the meter's start reads
   it once and each frontier pop's deadline check once more, so a
   3.5 ms deadline trips on the fourth pop. Without the per-pop check
   TopKCT would ignore the deadline and walk the whole lattice. *)
let test_topk_deadline_fake_clock () =
  let compiled, te = example9 () in
  let p = Pref.of_occurrences Mj.stat in
  let k = 50 in
  List.iter
    (fun algo ->
      let name = Topk.algo_name algo in
      let full =
        match Topk.solve ~algo ~k ~pref:p compiled te with
        | Ok o -> o
        | Error _ -> Alcotest.fail "unbudgeted solve"
      in
      check Alcotest.bool (name ^ ": unbudgeted run is complete") true
        (full.Topk.exhausted = None);
      let now = ref 0.0 in
      let clock () =
        now := !now +. 1.0;
        !now
      in
      let budget =
        Robust.Budget.start ~clock (Robust.Budget.limits ~deadline_ms:3.5 ())
      in
      match Topk.solve ~algo ~budget ~k ~pref:p compiled te with
      | Error _ -> Alcotest.fail "budgeted solve"
      | Ok o ->
          check Alcotest.bool (name ^ ": deadline trip reported") true
            (o.Topk.exhausted = Some Robust.Error.Deadline);
          check Alcotest.bool (name ^ ": stopped early") true
            (o.Topk.pulls < full.Topk.pulls);
          check Alcotest.bool (name ^ ": partial is a prefix of the full answer")
            true
            (List.for_all2 same_tuple o.Topk.targets
               (take (List.length o.Topk.targets) full.Topk.targets)))
    [ `Ct; `Ct_h ]

(* A caller that has drained the all-null fixpoint (the cleaner, before
   top-1 completion) hands the state over: every engine returns the
   targets it finds from its own start, without draining the base
   chase again. A state of another compiled specification, or one not
   started from the all-null template, is refused. *)
let test_solve_resumes_state () =
  let compiled, te = example9 () in
  let p = Pref.of_occurrences Mj.stat in
  let fired () = Obs.Counter.value (Obs.Counter.make "chase_steps_fired_total") in
  let was = Obs.enabled () in
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled was) @@ fun () ->
  List.iter
    (fun algo ->
      let name = Topk.algo_name algo in
      let targets ?state () =
        let f0 = fired () in
        match Topk.solve ~algo ?state ~k:3 ~pref:p compiled te with
        | Ok o -> (o.Topk.targets, fired () - f0)
        | Error _ -> Alcotest.fail (name ^ ": solve")
      in
      let own, own_fired = targets () in
      let state = Core.Is_cr.start compiled in
      let f0 = fired () in
      ignore (Core.Is_cr.start compiled : Core.Is_cr.state);
      let base = fired () - f0 in
      let resumed, resumed_fired = targets ~state () in
      check Alcotest.bool (name ^ ": same targets") true
        (List.length own = List.length resumed && List.for_all2 same_tuple own resumed);
      check Alcotest.int (name ^ ": the base chase is not drained again") (own_fired - base)
        resumed_fired)
    [ `Ct; `Ct_h; `Rank_join ];
  let refused name state =
    Alcotest.check_raises name
      (Invalid_argument
         (if name = "another compiled specification" then
            "Is_cr.null_base: a state of another compiled specification"
          else "Is_cr.null_base: a state not started from the all-null template"))
      (fun () -> ignore (Topk.solve ~state ~k:1 ~pref:p compiled te))
  in
  refused "another compiled specification" (Core.Is_cr.start (Core.Is_cr.compile example9_spec));
  refused "a filled template" (Core.Is_cr.start ~template:te compiled);
  let filled = Core.Is_cr.start compiled in
  (match Core.Is_cr.fill filled [] with Ok () -> () | Error _ -> Alcotest.fail "fill");
  refused "a kept fill" filled

(* One attribute, Ie = {(0), (1)}, empty Σ: three candidates, 0, 1
   and ⊥_A. At k = 5 every algorithm drains its walk in three pulls,
   so a cap of three cuts nothing and the answer is complete; a cap
   of two cuts it. *)
let test_walk_ending_at_cap () =
  let schema = Schema.make "one" [ "a" ] in
  let entity =
    Relation.make schema
      [ Relational.Tuple.make [| Value.Int 0 |]; Relational.Tuple.make [| Value.Int 1 |] ]
  in
  let spec =
    Core.Specification.make_exn ~entity (Rules.Ruleset.make_exn ~schema [])
  in
  let compiled = Core.Is_cr.compile spec in
  let te = [| Value.Null |] in
  let pref = Pref.uniform () in
  let trip o = Option.map Robust.Error.trip_to_string o.Topk.exhausted in
  let opt = Alcotest.(option string) in
  List.iter
    (fun algo ->
      let name = Topk.algo_name algo in
      let at_cap = solve ~algo ~max_pops:3 ~k:5 ~pref compiled te in
      check Alcotest.int (name ^ ": all three candidates") 3 (List.length at_cap.targets);
      check Alcotest.int (name ^ ": three pulls") 3 at_cap.pulls;
      check opt (name ^ ": a walk ending at the cap is complete") None (trip at_cap);
      check opt (name ^ ": one pop more changes nothing") None
        (trip (solve ~algo ~max_pops:4 ~k:5 ~pref compiled te));
      let cut = solve ~algo ~max_pops:2 ~k:5 ~pref compiled te in
      check opt (name ^ ": a cap that cuts the walk trips") (Some "max-steps") (trip cut))
    algos

let test_topkct_heap_pops_bounded () =
  let compiled, te = example9 () in
  let p = Pref.of_occurrences Mj.stat in
  let r, heap_pops = counted "topk_heap_pops_total" (fun () -> solve ~k:2 ~pref:p compiled te) in
  (* pops are per-need: the initial m = 2, then at most one per
     expansion slot of a frontier pop *)
  check Alcotest.bool "pop accounting sane" true
    (heap_pops >= 2 && heap_pops <= 2 + (2 * r.pulls))

let () =
  Alcotest.run "topk"
    [
      ( "preference",
        [
          Alcotest.test_case "occurrences" `Quick test_pref_occurrences;
          Alcotest.test_case "score sums" `Quick test_pref_score_sums;
          Alcotest.test_case "override" `Quick test_pref_override;
          Alcotest.test_case "of_table keys by Value.equal" `Quick test_of_table_exact;
        ] );
      ( "active-domain",
        [
          Alcotest.test_case "instance values" `Quick test_active_domain_instance_values;
          Alcotest.test_case "default ⊥" `Quick test_active_domain_default;
          Alcotest.test_case "master contribution" `Quick
            test_active_domain_master_contribution;
          Alcotest.test_case "ranked" `Quick test_active_domain_ranked;
          QCheck_alcotest.to_alcotest active_domain_memo_property;
          QCheck_alcotest.to_alcotest stream_property;
          Alcotest.test_case "real ⊥_A not duplicated (all engines)" `Quick
            test_real_default_not_duplicated;
        ] );
      ( "topkct",
        [
          Alcotest.test_case "Example 9" `Quick test_topkct_example9;
          Alcotest.test_case "score order" `Quick test_topkct_scores_nonincreasing;
          Alcotest.test_case "all candidates check" `Quick
            test_topkct_candidates_all_check;
          Alcotest.test_case "non-null preserved" `Quick test_topkct_preserves_non_null;
          Alcotest.test_case "complete te" `Quick test_topkct_complete_te;
          Alcotest.test_case "k validation" `Quick test_topkct_k_validation;
          Alcotest.test_case "budget" `Quick test_topkct_budget;
          Alcotest.test_case "heap pop accounting" `Quick test_topkct_heap_pops_bounded;
          Alcotest.test_case "a walk ending at the cap is not exhausted (all engines)"
            `Quick test_walk_ending_at_cap;
          Alcotest.test_case "solve resumes a drained state" `Quick test_solve_resumes_state;
          Alcotest.test_case "deadline stops the walk (fake clock)" `Quick
            test_topk_deadline_fake_clock;
        ] );
      ( "rankjoin",
        [
          Alcotest.test_case "exact algorithms agree" `Quick test_exact_algorithms_agree;
          Alcotest.test_case "checks every combo" `Quick test_rankjoin_checks_all_combos;
          Alcotest.test_case "pulls and combos trip their own caps" `Quick
            test_rankjoin_pulls_vs_combos_trips;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "TopKCT exact vs oracle" `Quick
            test_oracle_agrees_with_topkct;
          Alcotest.test_case "TopKCTh subset of oracle" `Quick
            test_oracle_topkcth_subset;
          Alcotest.test_case "exists/count" `Quick test_oracle_exists_and_count;
          Alcotest.test_case "Example 7 (2^n candidates)" `Quick
            test_oracle_example7;
          Alcotest.test_case "limit" `Quick test_oracle_limit;
          QCheck_alcotest.to_alcotest topk_oracle_property;
          QCheck_alcotest.to_alcotest partials_property;
        ] );
      ( "topkcth",
        [
          Alcotest.test_case "returns verified candidates" `Quick
            test_topkcth_returns_candidates;
          Alcotest.test_case "top-1 agrees with exact" `Quick test_topkcth_top1_agrees;
          Alcotest.test_case "no duplicates" `Quick test_topkcth_no_duplicates;
        ] );
    ]
