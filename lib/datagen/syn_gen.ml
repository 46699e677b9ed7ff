module Value = Relational.Value
module Schema = Relational.Schema
module Tuple = Relational.Tuple
module Relation = Relational.Relation
module Prng = Util.Prng

type dataset = {
  schema : Schema.t;
  spec : Core.Specification.t;
  truth : Value.t array;
  pref : Topk.Preference.t;
  null_attrs_expected : int list;
}

let attrs =
  [
    "key1"; "key2";
    "league"; "team"; "division";
    "rnds"; "totalPts"; "jersey";
    "games"; "minutes"; "fouls";
    "assists"; "rebounds"; "steals";
    "season"; "wins"; "losses";
    "arena"; "coach"; "sponsor";
  ]

let schema = Schema.make "syn" attrs
let keys = [ 0; 1 ]
let covered = [ 2; 3; 4 ]
let chains = [ (5, [ 6; 7 ]); (8, [ 9; 10 ]); (11, [ 12; 13 ]); (14, [ 15; 16 ]) ]
let plains = [ 17; 18; 19 ]
let versions = 40

(* The master schema also carries a compatibility pairing between
   the plain attributes "arena" (17) and "coach" (18) — the §2.1
   constant-CFD-as-AR embedding. Candidate targets combining an
   arena with the wrong coach fail check(), which is what separates
   the top-k algorithms' check costs (Exp-4). *)
let master_schema =
  Schema.make "syn_master"
    (List.map (fun a -> "m_" ^ Schema.attribute schema a) (keys @ covered)
    @ [ "m_arena"; "m_coach" ])

(* ------------------------------------------------------------------ *)
(* Deterministic rule pool: base rules first, then guarded variants. *)
(* ------------------------------------------------------------------ *)

let cmp s1 a op s2 b =
  Rules.Ar.Cmp (Rules.Ar.Tuple_attr (s1, a), op, Rules.Ar.Tuple_attr (s2, b))

let non_null side a =
  Rules.Ar.Cmp (Rules.Ar.Tuple_attr (side, a), Rules.Ar.Neq, Rules.Ar.Const Value.Null)

let concl a : Rules.Ar.ord_atom =
  { strict = false; left = Rules.Ar.T1; right = Rules.Ar.T2; attr = a }

let numeric_rule counter =
  Rules.Ar.Form1
    {
      f1_name = Printf.sprintf "cur:%s" (Schema.attribute schema counter);
      f1_lhs = [ cmp Rules.Ar.T1 counter Rules.Ar.Lt Rules.Ar.T2 counter ];
      f1_rhs = concl counter;
    }

let dep_rule ?(variant = 0) counter dep =
  let guards =
    if variant = 0 then []
    else
      [ cmp Rules.Ar.T1 (List.nth keys (variant mod 2)) Rules.Ar.Eq
          Rules.Ar.T2 (List.nth keys (variant mod 2)) ]
  in
  Rules.Ar.Form1
    {
      f1_name =
        Printf.sprintf "dep%d:%s->%s" variant
          (Schema.attribute schema counter)
          (Schema.attribute schema dep);
      f1_lhs =
        guards
        @ [
            non_null Rules.Ar.T1 counter;
            non_null Rules.Ar.T2 counter;
            non_null Rules.Ar.T2 dep;
            Rules.Ar.Ord { strict = true; left = Rules.Ar.T1; right = Rules.Ar.T2; attr = counter };
          ];
      f1_rhs = concl dep;
    }

let master_rule ?(variant = 0) cov =
  let mcol a = Schema.index master_schema ("m_" ^ Schema.attribute schema a) in
  let guards =
    if variant = 0 then []
    else
      let others = List.filter (fun c -> c <> cov) covered in
      let other = List.nth others (variant mod List.length others) in
      [ Rules.Ar.Te_master (other, mcol other) ]
  in
  Rules.Ar.Form2
    {
      f2_name = Printf.sprintf "master%d:%s" variant (Schema.attribute schema cov);
      f2_lhs = guards @ List.map (fun k -> Rules.Ar.Te_master (k, mcol k)) keys;
      f2_te_attr = cov;
      f2_tm_attr = mcol cov;
    }

let form1_pool =
  List.map (fun (c, _) -> numeric_rule c) chains
  @ List.concat_map (fun (c, deps) -> List.map (dep_rule c) deps) chains
  @ List.concat_map
      (fun variant ->
        List.concat_map
          (fun (c, deps) -> List.map (dep_rule ~variant c) deps)
          chains)
      (List.init 8 (fun i -> i + 1))

(* arena→coach compatibility: te.arena = tm.m_arena ⇒ te.coach is
   tm.m_coach. Always included (first in the pool). *)
let compat_rule =
  let mcol name = Schema.index master_schema name in
  Rules.Ar.Form2
    {
      f2_name = "compat:arena->coach";
      f2_lhs = [ Rules.Ar.Te_master (17, mcol "m_arena") ];
      f2_te_attr = 18;
      f2_tm_attr = mcol "m_coach";
    }

let form2_pool =
  compat_rule :: List.map (fun c -> master_rule c) covered
  @ List.concat_map
      (fun variant -> List.map (master_rule ~variant) covered)
      (List.init 8 (fun i -> i + 1))

let rule_pool_size () = List.length form1_pool + List.length form2_pool

let slice_rules sigma =
  let f1 = max 1 ((3 * sigma) / 4) in
  let f2 = sigma - f1 in
  if f1 > List.length form1_pool || f2 > List.length form2_pool then
    invalid_arg "Syn_gen: sigma exceeds the rule pool";
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: rest -> x :: take (n - 1) rest
  in
  take f1 form1_pool @ take f2 form2_pool

(* ------------------------------------------------------------------ *)
(* Data                                                               *)
(* ------------------------------------------------------------------ *)

let key_value a = Value.String (Printf.sprintf "syn_k%d" a)
let counter_value c version = Value.Int ((c * 1000) + (version * 3))
let dep_value d version = Value.String (Printf.sprintf "syn_a%d_v%d" d version)
let covered_true c = Value.String (Printf.sprintf "syn_a%d_T" c)
let covered_stale c = Value.String (Printf.sprintf "syn_a%d_s" c)
let plain_value a i = Value.String (Printf.sprintf "syn_a%d_x%d" a i)

let dataset ?(ie = 900) ?(im = 300) ?(sigma = 60) ?(domain = 25) ?(seed = 271828) () =
  let g = Prng.create seed in
  let arity = Schema.arity schema in
  let chain_of = Array.make arity None in
  List.iter
    (fun (c, deps) -> List.iter (fun a -> chain_of.(a) <- Some c) (c :: deps))
    chains;
  let truth =
    Array.init arity (fun a ->
        if List.mem a keys then key_value a
        else if List.mem a covered then covered_true a
        else if List.mem a plains then plain_value a 0
        else
          match chain_of.(a) with
          | Some c when c = a -> counter_value c versions
          | Some _ -> dep_value a versions
          | None -> assert false)
  in
  let observe () =
    let version = 1 + Prng.int g versions in
    let pair_idx = Prng.int g domain in
    Array.init arity (fun a ->
        if a = 17 then plain_value 17 pair_idx
        else if a = 18 then plain_value 18 pair_idx
        else
        if List.mem a keys then key_value a
        else if List.mem a covered then
          if version > versions / 2 then covered_true a else covered_stale a
        else if a = 17 || a = 18 then
          (* arena/coach are drawn as a compatible pair. *)
          assert false
        else if List.mem a plains then plain_value a (Prng.int g domain)
        else
          match chain_of.(a) with
          | Some c when c = a -> counter_value c version
          | Some _ -> dep_value a version
          | None -> assert false)
  in
  let tuples = List.init ie (fun _ -> Tuple.make (observe ())) in
  let entity = Relation.make schema tuples in
  (* Master: one matching row plus decoys keyed to other entities. *)
  (* Half of the arena domain has a declared compatible coach; the
     rest is unconstrained, so roughly half of the mixed candidates
     survive check(). Pairing rows are interleaved with the decoys
     and survive any prefix truncation of at least one row. *)
  let master_row i =
    let base =
      if i = 0 then List.map key_value keys @ List.map covered_true covered
      else
        List.map
          (fun a -> Value.String (Printf.sprintf "syn_other%d_k%d" i a))
          keys
        @ List.map
            (fun a -> Value.String (Printf.sprintf "syn_other%d_a%d" i a))
            covered
    in
    let pairing =
      let j = i mod domain in
      if i < domain && j mod 2 = 0 then
        [ plain_value 17 j; plain_value 18 j ]
      else [ Value.Null; Value.Null ]
    in
    Tuple.make (Array.of_list (base @ pairing))
  in
  let master = Relation.make master_schema (List.init (max 1 im) master_row) in
  let ruleset =
    Rules.Ruleset.make_exn ~schema ~master:master_schema (slice_rules sigma)
  in
  let spec = Core.Specification.make_exn ~entity ~master ruleset in
  (* Random value scores (§7: "we assigned random scores to the
     values in the domains"), deterministic in the seed. *)
  let gp = Prng.split g in
  let scores = Array.init (Schema.arity schema) (fun _ -> Value.Tbl.create 64) in
  let pref =
    Topk.Preference.of_fun (fun a v ->
        match Value.Tbl.find_opt scores.(a) v with
        | Some w -> w
        | None ->
            let w = Prng.float gp 10.0 in
            Value.Tbl.replace scores.(a) v w;
            w)
  in
  { schema; spec; truth; pref; null_attrs_expected = plains }
