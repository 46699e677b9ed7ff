(* Unit and property tests for the util library: PRNG, string
   similarity, union-find, statistics. *)

module Prng = Util.Prng
module Strsim = Util.Strsim
module Union_find = Util.Union_find
module Stats = Util.Stats

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Prng                                                               *)
(* ------------------------------------------------------------------ *)

let test_prng_deterministic () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    check Alcotest.int "same stream" (Prng.int a 1000) (Prng.int b 1000)
  done

let test_prng_copy_independent () =
  let a = Prng.create 7 in
  ignore (Prng.int a 10);
  let b = Prng.copy a in
  let xs = List.init 10 (fun _ -> Prng.int a 1000) in
  let ys = List.init 10 (fun _ -> Prng.int b 1000) in
  check Alcotest.(list int) "copy continues identically" xs ys

let test_prng_split_diverges () =
  let a = Prng.create 11 in
  let b = Prng.split a in
  let xs = List.init 20 (fun _ -> Prng.int a 1000000) in
  let ys = List.init 20 (fun _ -> Prng.int b 1000000) in
  check Alcotest.bool "split streams differ" true (xs <> ys)

let test_prng_bounds () =
  let g = Prng.create 3 in
  for _ = 1 to 1000 do
    let x = Prng.int g 7 in
    if x < 0 || x >= 7 then Alcotest.fail "int out of range";
    let y = Prng.int_in g 5 9 in
    if y < 5 || y > 9 then Alcotest.fail "int_in out of range";
    let f = Prng.float g 2.5 in
    if f < 0.0 || f >= 2.5 then Alcotest.fail "float out of range"
  done

let test_prng_bernoulli_rate () =
  let g = Prng.create 5 in
  let hits = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    if Prng.bernoulli g 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  check Alcotest.bool "rate near 0.3" true (rate > 0.27 && rate < 0.33)

let test_prng_gaussian_moments () =
  let g = Prng.create 17 in
  let n = 50_000 in
  let xs = Array.init n (fun _ -> Prng.gaussian g ~mu:2.0 ~sigma:3.0) in
  let mean = Stats.mean xs and sd = Stats.stddev xs in
  check Alcotest.bool "mean ~2" true (Float.abs (mean -. 2.0) < 0.1);
  check Alcotest.bool "sd ~3" true (Float.abs (sd -. 3.0) < 0.1)

let test_prng_zipf_range () =
  let g = Prng.create 23 in
  let counts = Array.make 6 0 in
  for _ = 1 to 5000 do
    let r = Prng.zipf g ~n:5 ~s:1.2 in
    if r < 1 || r > 5 then Alcotest.fail "zipf out of range";
    counts.(r) <- counts.(r) + 1
  done;
  check Alcotest.bool "rank 1 most frequent" true
    (counts.(1) > counts.(2) && counts.(2) > counts.(4))

let test_prng_shuffle_permutes () =
  let g = Prng.create 31 in
  let arr = Array.init 50 (fun i -> i) in
  Prng.shuffle g arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  check Alcotest.(array int) "same elements" (Array.init 50 (fun i -> i)) sorted

let test_prng_sample_without_replacement () =
  let g = Prng.create 37 in
  for _ = 1 to 50 do
    let s = Prng.sample_without_replacement g 10 30 in
    check Alcotest.int "size" 10 (Array.length s);
    let distinct = List.sort_uniq compare (Array.to_list s) in
    check Alcotest.int "distinct" 10 (List.length distinct);
    Array.iter (fun x -> if x < 0 || x >= 30 then Alcotest.fail "range") s
  done

let test_choose_weighted () =
  let g = Prng.create 41 in
  let counts = Hashtbl.create 3 in
  for _ = 1 to 10_000 do
    let x = Prng.choose_weighted g [| ("a", 1.0); ("b", 9.0) |] in
    Hashtbl.replace counts x (1 + Option.value ~default:0 (Hashtbl.find_opt counts x))
  done;
  let a = Option.value ~default:0 (Hashtbl.find_opt counts "a") in
  let b = Option.value ~default:0 (Hashtbl.find_opt counts "b") in
  check Alcotest.bool "b dominates ~9x" true (b > 7 * a)

(* ------------------------------------------------------------------ *)
(* Strsim                                                             *)
(* ------------------------------------------------------------------ *)

let test_levenshtein_known () =
  check Alcotest.int "kitten/sitting" 3 (Strsim.levenshtein "kitten" "sitting");
  check Alcotest.int "empty/abc" 3 (Strsim.levenshtein "" "abc");
  check Alcotest.int "same" 0 (Strsim.levenshtein "chase" "chase");
  check Alcotest.int "flaw/lawn" 2 (Strsim.levenshtein "flaw" "lawn")

(* The full two-row DP, independent of the banded kernel. *)
let reference_levenshtein a b =
  let la = String.length a and lb = String.length b in
  let prev = Array.init (lb + 1) Fun.id and curr = Array.make (lb + 1) 0 in
  for i = 1 to la do
    curr.(0) <- i;
    for j = 1 to lb do
      let cost = if a.[i - 1] = b.[j - 1] then 0 else 1 in
      curr.(j) <- min (min (curr.(j - 1) + 1) (prev.(j) + 1)) (prev.(j - 1) + cost)
    done;
    Array.blit curr 0 prev 0 (lb + 1)
  done;
  prev.(lb)

let test_levenshtein_bounded_known () =
  check Alcotest.int "within cap" 3 (Strsim.levenshtein_bounded 3 "kitten" "sitting");
  check Alcotest.int "past cap" 3 (Strsim.levenshtein_bounded 2 "kitten" "sitting");
  check Alcotest.int "length gap past cap" 2 (Strsim.levenshtein_bounded 1 "" "abc");
  check Alcotest.int "cap 0, equal" 0 (Strsim.levenshtein_bounded 0 "chase" "chase");
  check Alcotest.int "cap 0, differ" 1 (Strsim.levenshtein_bounded 0 "chase" "chaze");
  Alcotest.check_raises "negative cap" (Invalid_argument "Strsim.levenshtein_bounded: negative cap")
    (fun () -> ignore (Strsim.levenshtein_bounded (-1) "a" "b"))

let qcheck_tests =
  let open QCheck in
  let small_string = string_gen_of_size (Gen.int_bound 12) Gen.printable in
  (* A small alphabet makes near-equal pairs, where bands matter. *)
  let near_string = string_gen_of_size (Gen.int_bound 14) (Gen.oneofl [ 'a'; 'b'; 'c'; ' ' ]) in
  [
    Test.make ~count:500 ~name:"levenshtein_bounded = min(levenshtein, cap+1) for every cap"
      (pair near_string near_string)
      (fun (a, b) ->
        let d = reference_levenshtein a b in
        Strsim.levenshtein a b = d
        && List.for_all
             (fun cap -> Strsim.levenshtein_bounded cap a b = min d (cap + 1))
             (List.init (max (String.length a) (String.length b) + 1) Fun.id));
    Test.make ~count:300 ~name:"levenshtein symmetric"
      (pair small_string small_string)
      (fun (a, b) -> Strsim.levenshtein a b = Strsim.levenshtein b a);
    Test.make ~count:300 ~name:"levenshtein triangle inequality"
      (triple small_string small_string small_string)
      (fun (a, b, c) ->
        Strsim.levenshtein a c <= Strsim.levenshtein a b + Strsim.levenshtein b c);
    Test.make ~count:300 ~name:"levenshtein zero iff equal"
      (pair small_string small_string)
      (fun (a, b) -> Strsim.levenshtein a b = 0 = (a = b));
    Test.make ~count:300 ~name:"similarity in [0,1]"
      (pair small_string small_string)
      (fun (a, b) ->
        let s = Strsim.levenshtein_similarity a b in
        s >= 0.0 && s <= 1.0);
    Test.make ~count:300 ~name:"trigram similarity reflexive"
      small_string
      (fun a -> Strsim.trigram_similarity a a = 1.0);
    Test.make ~count:200 ~name:"percentile 0/100 are min/max"
      (list_of_size (Gen.int_range 1 20) (float_range (-100.) 100.))
      (fun xs ->
        let arr = Array.of_list xs in
        Stats.percentile arr 0.0 = Stats.minimum arr
        && Stats.percentile arr 100.0 = Stats.maximum arr);
    Test.make ~count:200 ~name:"online mean matches batch mean"
      (list_of_size (Gen.int_range 1 50) (float_range (-50.) 50.))
      (fun xs ->
        let o = Stats.online_create () in
        List.iter (Stats.online_add o) xs;
        Float.abs (Stats.online_mean o -. Stats.mean (Array.of_list xs)) < 1e-9);
  ]

let test_jaccard () =
  check (Alcotest.float 1e-9) "disjoint" 0.0 (Strsim.jaccard_tokens "a b" "c d");
  check (Alcotest.float 1e-9) "same" 1.0 (Strsim.jaccard_tokens "a b" "b a");
  check (Alcotest.float 1e-9) "half"
    (1.0 /. 3.0)
    (Strsim.jaccard_tokens "a b" "b c")

let test_normalize () =
  check Alcotest.string "lowercase and collapse" "chicago bulls 23"
    (Strsim.normalize "  Chicago--BULLS  23!");
  check Alcotest.string "empty" "" (Strsim.normalize "--- !!")

let test_soundex () =
  check Alcotest.string "robert" "R163" (Strsim.soundex "Robert");
  check Alcotest.string "rupert" "R163" (Strsim.soundex "Rupert");
  check Alcotest.string "ashcraft" "A261" (Strsim.soundex "Ashcraft");
  check Alcotest.string "tymczak" "T522" (Strsim.soundex "Tymczak");
  check Alcotest.string "pfister" "P236" (Strsim.soundex "Pfister");
  check Alcotest.string "no letters" "" (Strsim.soundex "123!")

(* ------------------------------------------------------------------ *)
(* Union_find                                                         *)
(* ------------------------------------------------------------------ *)

let test_union_find_basic () =
  let uf = Union_find.create 6 in
  check Alcotest.int "initial sets" 6 (Union_find.count uf);
  Union_find.union uf 0 1;
  Union_find.union uf 2 3;
  check Alcotest.int "after two unions" 4 (Union_find.count uf);
  check Alcotest.bool "0~1" true (Union_find.same uf 0 1);
  check Alcotest.bool "0!~2" false (Union_find.same uf 0 2);
  Union_find.union uf 1 3;
  check Alcotest.bool "0~3 transitively" true (Union_find.same uf 0 3);
  Union_find.union uf 0 3;
  check Alcotest.int "idempotent union" 3 (Union_find.count uf)

let test_union_find_groups () =
  let uf = Union_find.create 5 in
  Union_find.union uf 0 4;
  Union_find.union uf 1 2;
  let groups =
    Union_find.groups uf |> Array.to_list
    |> List.filter (fun g -> g <> [])
    |> List.sort compare
  in
  check
    Alcotest.(list (list int))
    "groups" [ [ 0; 4 ]; [ 1; 2 ]; [ 3 ] ] groups

let qcheck_uf =
  let open QCheck in
  [
    Test.make ~count:200 ~name:"union-find: same is an equivalence"
      (list_of_size (Gen.int_bound 30) (pair (int_bound 19) (int_bound 19)))
      (fun pairs ->
        let uf = Union_find.create 20 in
        List.iter (fun (a, b) -> Union_find.union uf a b) pairs;
        (* reflexive, symmetric, and closed under the given pairs *)
        List.for_all (fun (a, b) -> Union_find.same uf a b) pairs
        && List.for_all (fun i -> Union_find.same uf i i) (List.init 20 Fun.id));
  ]

(* ------------------------------------------------------------------ *)
(* Stats                                                              *)
(* ------------------------------------------------------------------ *)

let test_stats_known () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  check (Alcotest.float 1e-9) "mean" 2.5 (Stats.mean xs);
  check (Alcotest.float 1e-9) "variance" 1.25 (Stats.variance xs);
  check (Alcotest.float 1e-9) "median" 2.5 (Stats.median xs);
  check (Alcotest.float 1e-9) "median odd" 2.0 (Stats.median [| 3.0; 1.0; 2.0 |]);
  check (Alcotest.float 1e-9) "min" 1.0 (Stats.minimum xs);
  check (Alcotest.float 1e-9) "max" 4.0 (Stats.maximum xs)

let () =
  Alcotest.run "util"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "copy independent" `Quick test_prng_copy_independent;
          Alcotest.test_case "split diverges" `Quick test_prng_split_diverges;
          Alcotest.test_case "bounds" `Quick test_prng_bounds;
          Alcotest.test_case "bernoulli rate" `Quick test_prng_bernoulli_rate;
          Alcotest.test_case "gaussian moments" `Slow test_prng_gaussian_moments;
          Alcotest.test_case "zipf range and skew" `Quick test_prng_zipf_range;
          Alcotest.test_case "shuffle permutes" `Quick test_prng_shuffle_permutes;
          Alcotest.test_case "sample without replacement" `Quick
            test_prng_sample_without_replacement;
          Alcotest.test_case "choose weighted" `Quick test_choose_weighted;
        ] );
      ( "strsim",
        [
          Alcotest.test_case "levenshtein known values" `Quick test_levenshtein_known;
          Alcotest.test_case "levenshtein_bounded known values" `Quick
            test_levenshtein_bounded_known;
          Alcotest.test_case "jaccard" `Quick test_jaccard;
          Alcotest.test_case "normalize" `Quick test_normalize;
          Alcotest.test_case "soundex" `Quick test_soundex;
        ] );
      ( "union-find",
        [
          Alcotest.test_case "basic" `Quick test_union_find_basic;
          Alcotest.test_case "groups" `Quick test_union_find_groups;
        ]
        @ List.map QCheck_alcotest.to_alcotest qcheck_uf );
      ("stats", [ Alcotest.test_case "known values" `Quick test_stats_known ]);
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
