module Value = Relational.Value
module Schema = Relational.Schema
module Tuple = Relational.Tuple
module Relation = Relational.Relation
module Prng = Util.Prng

type chain = {
  counter : int;
  deps : int list;
  driver : [ `Numeric | `Covered of int ];
}

type config = {
  name : string;
  attrs : string list;
  keys : int list;
  chains : chain list;
  covered : int list;
  entities : int;
  master_coverage : float;
  size_zipf_n : int;
  size_zipf_s : float;
  versions : int;
  null_rate : float;
  key_null_rate : float;
  plain_error_rate : float;
  dep_error_rate : float;
  covered_error_rate : float;
  covered_dirty_rate : float;
  covered_noise_rate : float;
  extra_rules_per_dep : int;
  extra_rules_per_covered : int;
  version_zipf_s : float;
  stale_keys : bool;
  singleton_rate : float;
  seed : int;
}

type entity = {
  id : int;
  truth : Value.t array;
  instance : Relation.t;
}

type dataset = {
  config : config;
  schema : Schema.t;
  master_schema : Schema.t;
  master : Relation.t;
  ruleset : Rules.Ruleset.t;
  entities : entity list;
}

let chain_attrs c = c.counter :: c.deps

let roles_of config =
  let arity = List.length config.attrs in
  let role = Array.make arity `Plain in
  List.iter (fun a -> role.(a) <- `Key) config.keys;
  List.iter (fun a -> role.(a) <- `Covered) config.covered;
  List.iter
    (fun c ->
      role.(c.counter) <- `Counter;
      List.iter (fun d -> role.(d) <- `Dep) c.deps)
    config.chains;
  role

let validate_config config =
  let arity = List.length config.attrs in
  let in_range a = a >= 0 && a < arity in
  let all_roles =
    config.keys @ config.covered
    @ List.concat_map chain_attrs config.chains
  in
  if List.exists (fun a -> not (in_range a)) all_roles then
    Error "attribute index out of range"
  else if List.length (List.sort_uniq Int.compare all_roles) <> List.length all_roles
  then Error "an attribute has two roles"
  else if
    List.exists
      (fun c ->
        match c.driver with
        | `Covered m -> not (List.mem m config.covered)
        | `Numeric -> false)
      config.chains
  then Error "interaction chain driver is not a covered attribute"
  else if config.keys = [] && config.covered <> [] then
    Error "covered attributes require key attributes for master matching"
  else Ok ()

let plains config =
  let role = roles_of config in
  List.filter
    (fun a -> role.(a) = `Plain)
    (List.init (List.length config.attrs) (fun i -> i))

(* ------------------------------------------------------------------ *)
(* Value fabric: deterministic ground truth per (entity, attr).       *)
(* ------------------------------------------------------------------ *)

(* Key values are pronounceable pseudo-words so that the ER
   substrate has realistic material to block and match on; stale
   spellings append a version marker, drifting the string without
   destroying similarity. *)
let syllables =
  [| "ba"; "ce"; "di"; "fo"; "gu"; "ka"; "le"; "mi"; "no"; "pu"; "ra"; "se";
     "ti"; "vo"; "zu"; "han"; "kor"; "lim"; "mar"; "nel" |]

let pseudo_word seed =
  let g = Prng.create seed in
  let n = 3 + Prng.int g 2 in
  String.concat "" (List.init n (fun _ -> Prng.choose g syllables))

let key_value config e a =
  Value.String
    (Printf.sprintf "%s %s"
       (pseudo_word ((Hashtbl.hash config.name * 31) + (e * 7) + a))
       (pseudo_word ((Hashtbl.hash config.name * 17) + (e * 13) + (a * 3) + 1)))

let key_stale config e a version =
  match key_value config e a with
  | Value.String base -> Value.String (Printf.sprintf "%s v%d" base version)
  | _ -> assert false

let counter_value base version = Value.Int (base + (version * 7))

let dep_value config e a version =
  Value.String (Printf.sprintf "%s_e%d_a%d_v%d" config.name e a version)

let covered_true config e a = Value.String (Printf.sprintf "%s_e%d_a%d_T" config.name e a)

let covered_stale config e a version =
  Value.String (Printf.sprintf "%s_e%d_a%d_s%d" config.name e a version)

let plain_true config e a = Value.String (Printf.sprintf "%s_e%d_a%d_T" config.name e a)

let plain_variant config e a r =
  Value.String (Printf.sprintf "%s_e%d_a%d_x%d" config.name e a r)

let covered_noise config e a occurrence =
  Value.String (Printf.sprintf "%s_e%d_a%d_n%d" config.name e a occurrence)

let dep_junk config e a occurrence =
  Value.String (Printf.sprintf "%s_e%d_a%d_j%d" config.name e a occurrence)

(* ------------------------------------------------------------------ *)
(* Rule synthesis                                                     *)
(* ------------------------------------------------------------------ *)

let build_rules config schema master_schema =
  let attr a = Schema.attribute schema a in
  let master_key_col a = "m_" ^ attr a in
  let rules = ref [] in
  let emit r = rules := r :: !rules in
  let cmp side1 a op side2 b =
    Rules.Ar.Cmp (Rules.Ar.Tuple_attr (side1, a), op, Rules.Ar.Tuple_attr (side2, b))
  in
  let non_null side a =
    Rules.Ar.Cmp (Rules.Ar.Tuple_attr (side, a), Rules.Ar.Neq, Rules.Ar.Const Value.Null)
  in
  let ord ~strict a =
    Rules.Ar.Ord { strict; left = Rules.Ar.T1; right = Rules.Ar.T2; attr = a }
  in
  let concl a : Rules.Ar.ord_atom =
    { strict = false; left = Rules.Ar.T1; right = Rules.Ar.T2; attr = a }
  in
  List.iter
    (fun c ->
      let counter = c.counter in
      (* Order the counter itself. *)
      (match c.driver with
      | `Numeric ->
          (* φ1's shape: a larger counter is more current. *)
          emit
            (Rules.Ar.Form1
               {
                 f1_name = Printf.sprintf "cur:%s" (attr counter);
                 f1_lhs = [ cmp Rules.Ar.T1 counter Rules.Ar.Lt Rules.Ar.T2 counter ];
                 f1_rhs = concl counter;
               })
      | `Covered m ->
          (* Interaction chains need both rule forms to resolve:
             (a) numeric currency within one value of the covered
             attribute (φ1 with a guard), and (b) the covered
             attribute's order — which only master data establishes,
             through axiom φ8 — carried onto the counter (φ4's
             shape). The non-null guards keep φ7-derived null edges
             from leaking arbitrary-version pairs into the order. *)
          emit
            (Rules.Ar.Form1
               {
                 f1_name = Printf.sprintf "curgrp:%s" (attr counter);
                 f1_lhs =
                   [
                     cmp Rules.Ar.T1 m Rules.Ar.Eq Rules.Ar.T2 m;
                     cmp Rules.Ar.T1 counter Rules.Ar.Lt Rules.Ar.T2 counter;
                   ];
                 f1_rhs = concl counter;
               });
          emit
            (Rules.Ar.Form1
               {
                 f1_name = Printf.sprintf "link:%s->%s" (attr m) (attr counter);
                 f1_lhs =
                   [
                     non_null Rules.Ar.T1 m;
                     non_null Rules.Ar.T2 m;
                     non_null Rules.Ar.T2 counter;
                     ord ~strict:true m;
                   ];
                 f1_rhs = concl counter;
               }));
      (* φ2/φ3's shape: the counter's order carries to each dep. The
         guards exclude null-valued cells on either side of the
         counter comparison and a null target value — a null carries
         no currency information and, through axiom φ7, would
         otherwise let stale values be ordered above fresh ones. *)
      List.iter
        (fun d ->
          let base_lhs =
            [
              non_null Rules.Ar.T1 counter;
              non_null Rules.Ar.T2 counter;
              non_null Rules.Ar.T2 d;
              ord ~strict:true counter;
            ]
          in
          emit
            (Rules.Ar.Form1
               {
                 f1_name = Printf.sprintf "dep:%s->%s" (attr counter) (attr d);
                 f1_lhs = base_lhs;
                 f1_rhs = concl d;
               });
          (* Redundant guarded variants: same conclusion with an
             extra key-equality guard (the paper's rules "have
             similar structures and often share the same LHS"). *)
          for r = 1 to config.extra_rules_per_dep do
            let guard_key = List.nth config.keys ((d + r) mod List.length config.keys) in
            emit
              (Rules.Ar.Form1
                 {
                   f1_name = Printf.sprintf "dep%d:%s->%s" r (attr counter) (attr d);
                   f1_lhs =
                     cmp Rules.Ar.T1 guard_key Rules.Ar.Eq Rules.Ar.T2 guard_key
                     :: base_lhs;
                   f1_rhs = concl d;
                 })
          done)
        c.deps)
    config.chains;
  (* Stale keys: the first chain's counter orders the key attributes
     (the paper's Example 2 flow, where φ5/φ10 must deduce te[FN],
     te[LN] before the master rule φ6 can fire — form (2) is nearly
     useless without form (1)). *)
  (match (config.stale_keys, config.chains) with
  | true, c0 :: _ ->
      List.iter
        (fun ka ->
          emit
            (Rules.Ar.Form1
               {
                 f1_name = Printf.sprintf "keydep:%s" (attr ka);
                 f1_lhs =
                   [
                     non_null Rules.Ar.T1 c0.counter;
                     non_null Rules.Ar.T2 c0.counter;
                     non_null Rules.Ar.T2 ka;
                     ord ~strict:true c0.counter;
                   ];
                 f1_rhs = concl ka;
               }))
        config.keys
  | _ -> ());
  (* φ6's shape: master rules per covered attribute, plus redundant
     variants with an extra master-binding guard (matching the
     paper's form (2) rule counts). *)
  let master_col a = Schema.index master_schema ("m_" ^ attr a) in
  let covered_arr = Array.of_list config.covered in
  List.iteri
    (fun idx a ->
      let base_lhs =
        List.map
          (fun ka ->
            Rules.Ar.Te_master (ka, Schema.index master_schema (master_key_col ka)))
          config.keys
      in
      emit
        (Rules.Ar.Form2
           {
             f2_name = Printf.sprintf "master:%s" (attr a);
             f2_lhs = base_lhs;
             f2_te_attr = a;
             f2_tm_attr = master_col a;
           });
      for r = 1 to config.extra_rules_per_covered do
        let guard =
          let len = Array.length covered_arr in
          if len > 1 then
            let other = covered_arr.((idx + 1 + (r mod (len - 1))) mod len) in
            if other = a then None
            else Some (Rules.Ar.Te_master (other, master_col other))
          else None
        in
        match guard with
        | None -> ()
        | Some gpred ->
            emit
              (Rules.Ar.Form2
                 {
                   f2_name = Printf.sprintf "master%d:%s" r (attr a);
                   f2_lhs = gpred :: base_lhs;
                   f2_te_attr = a;
                   f2_tm_attr = master_col a;
                 })
      done)
    config.covered;
  List.rev !rules

(* ------------------------------------------------------------------ *)
(* Generation                                                         *)
(* ------------------------------------------------------------------ *)

let generate config =
  (match validate_config config with
  | Ok () -> ()
  | Error e -> invalid_arg ("Entity_gen.generate: " ^ e));
  let g = Prng.create config.seed in
  let arity = List.length config.attrs in
  let schema = Schema.make config.name config.attrs in
  let attr a = Schema.attribute schema a in
  let master_schema =
    Schema.make (config.name ^ "_master")
      (List.map (fun a -> "m_" ^ attr a) config.keys
      @ List.map (fun a -> "m_" ^ attr a) config.covered)
  in
  let role = roles_of config in
  let chain_of = Array.make arity None in
  List.iter
    (fun c -> List.iter (fun a -> chain_of.(a) <- Some c) (chain_attrs c))
    config.chains;
  let counter_base = Array.init arity (fun a -> 10 + (a * 3)) in
  (* Ground truth: the latest version of every chain, true values
     elsewhere. *)
  let truth_of e =
    Array.init arity (fun a ->
        match role.(a) with
        | `Key -> key_value config e a
        | `Counter -> counter_value counter_base.(a) config.versions
        | `Dep -> dep_value config e a config.versions
        | `Covered -> covered_true config e a
        | `Plain -> plain_true config e a)
  in
  (* Church-Rosser safety of the generated data (see the .mli):
     every non-null cell of a rule-bearing attribute is a pure
     function of the tuple's version (counters monotone, deps
     injective, covered values stale-by-version), or a globally
     unique junk value tied to one version. Thus every derivable
     order edge goes from a lower version to a strictly higher one
     and no cycle can arise. *)
  let observe ge e truth ~version ~covered_history ~junk_counter =
    let fresh = version = config.versions in
    (* Null injection is coupled per chain: a missing record section
       nulls the counter together with its dependents. An orphaned
       dependent value under a null counter would be unreachable by
       the (null-guarded) dependency rules and permanently block the
       attribute's greatest value. *)
    let chain_null =
      List.map (fun c -> (c.counter, Prng.bernoulli ge config.null_rate)) config.chains
    in
    let chain_is_null a =
      match chain_of.(a) with
      | Some c -> List.assoc c.counter chain_null
      | None -> false
    in
    Array.init arity (fun a ->
        if chain_is_null a then Value.Null
        else
        let null_rate =
          match role.(a) with
          | `Key -> config.key_null_rate
          | `Counter -> 0.0
          | `Covered ->
              (* Covered cells are never null: a null on the only
                 fresh observation would leave unanimous-stale
                 evidence whose lambda-deduced value master data then
                 contradicts - a non-Church-Rosser specification,
                 which the real workloads of section 7 never are. *)
              0.0
          | `Dep | `Plain -> config.null_rate
        in
        if Prng.bernoulli ge null_rate then Value.Null
        else
          match role.(a) with
          | `Key ->
              if config.stale_keys && not fresh then key_stale config e a version
              else truth.(a)
          | `Counter -> counter_value counter_base.(a) version
          | `Dep ->
              if Prng.bernoulli ge config.dep_error_rate then begin
                incr junk_counter;
                dep_junk config e a !junk_counter
              end
              else dep_value config e a version
          | `Covered ->
              (* Stale iff this entity-attribute has a history and
                 the snapshot is old: a pure function of version. *)
              if covered_history a && not fresh then covered_stale config e a 0
              else truth.(a)
          | `Plain ->
              if Prng.bernoulli ge config.plain_error_rate then
                plain_variant config e a (1 + Prng.int ge 2)
              else truth.(a))
  in
  let entities =
    List.init config.entities (fun e ->
        let ge = Prng.split g in
        let truth = truth_of e in
        let size =
          if Prng.bernoulli ge config.singleton_rate then 1
          else 1 + Prng.zipf ge ~n:(config.size_zipf_n - 1) ~s:config.size_zipf_s
        in
        (* Versions first (skewed towards recent): covered staleness
           is only enabled when a fresh snapshot is present, so that
           unanimous stale evidence can never contradict master. *)
        let versions =
          List.init size (fun _ ->
              1 + config.versions
              - Prng.zipf ge ~n:config.versions ~s:config.version_zipf_s)
        in
        let has_fresh = List.mem config.versions versions in
        (* Covered staleness: a per-entity dirtiness flag, then a
           per-attribute coin — so that clean entities stay fully
           resolvable without master data (the paper's completeness
           rates exceed its master coverage). *)
        let history = Array.make arity false in
        if has_fresh && Prng.bernoulli ge config.covered_dirty_rate then
          List.iter
            (fun a -> history.(a) <- Prng.bernoulli ge config.covered_error_rate)
            config.covered;
        let covered_history a = history.(a) in
        let junk_counter = ref 0 in
        let tuples =
          List.map
            (fun version ->
              Tuple.make (observe ge e truth ~version ~covered_history ~junk_counter))
            versions
        in
        (* Covered noise: at most one uniquely-valued corrupted cell
           per covered attribute (never unanimous, hence never in
           conflict with master). The victim is a minimum-version
           tuple: axiom φ8 will order the noise class below the true
           class, and a link rule then emits counter edges from the
           minimum version upward only — cycle-free. *)
        let tuples = Array.of_list tuples in
        let versions_arr = Array.of_list versions in
        let min_version = Array.fold_left min max_int versions_arr in
        let min_tuples =
          List.filter
            (fun i -> versions_arr.(i) = min_version)
            (List.init (Array.length tuples) (fun i -> i))
        in
        let noise_counter = ref 0 in
        if Array.length tuples >= 2 then
          List.iter
            (fun a ->
              if Prng.bernoulli ge config.covered_noise_rate then begin
                incr noise_counter;
                let victim =
                  List.nth min_tuples (Prng.int ge (List.length min_tuples))
                in
                tuples.(victim) <-
                  Tuple.set tuples.(victim) a (covered_noise config e a !noise_counter)
              end)
            config.covered;
        { id = e; truth; instance = Relation.make schema (Array.to_list tuples) })
  in
  (* Master data: a row with the key and true covered values for a
     random subset of entities. *)
  let gm = Prng.split g in
  let covered_count =
    int_of_float (config.master_coverage *. float_of_int config.entities)
  in
  let chosen =
    Prng.sample_without_replacement gm
      (min covered_count config.entities)
      config.entities
  in
  Array.sort Int.compare chosen;
  let master_rows =
    Array.to_list
      (Array.map
         (fun e ->
           let keys = List.map (fun a -> key_value config e a) config.keys in
           let cov = List.map (fun a -> covered_true config e a) config.covered in
           Tuple.make (Array.of_list (keys @ cov)))
         chosen)
  in
  let master = Relation.make master_schema master_rows in
  let rules = build_rules config schema master_schema in
  let ruleset = Rules.Ruleset.make_exn ~schema ~master:master_schema rules in
  { config; schema; master_schema; master; ruleset; entities }

let spec_for dataset entity =
  Core.Specification.make_exn ~entity:entity.instance ~master:dataset.master
    dataset.ruleset

(* The "manually identified" target (§7): what an annotator reading
   the instance (and master data) would call the most accurate
   available values. Purely data-driven — no generator internals. *)
let annotate dataset (e : entity) =
  let config = dataset.config in
  let inst = e.instance in
  let n = Relation.size inst in
  let arity = Schema.arity dataset.schema in
  let role = roles_of config in
  let column a = Relation.column inst a in
  let majority a =
    Ordering.Attr_order.numbering_majority
      (Ordering.Attr_order.numbering_of_column (column a))
  in
  (* Tuple indices ordered by decreasing currency w.r.t. a chain's
     counter; tuples with a null counter come last. *)
  let by_currency counter =
    let idx = List.init n (fun i -> i) in
    List.sort
      (fun i j ->
        Value.compare (Relation.get inst j counter) (Relation.get inst i counter))
      idx
  in
  (* Most current non-null value of attribute [a] along the chain. *)
  let chain_value counter a =
    let rec scan = function
      | [] -> majority a
      | i :: rest ->
          let c = Relation.get inst i counter and v = Relation.get inst i a in
          if Value.is_null c || Value.is_null v then scan rest else v
    in
    scan (by_currency counter)
  in
  let master_row =
    (* The row whose key columns match this entity's keys (annotators
       join on the identifying attributes). *)
    let keys = List.map (fun a -> key_value config e.id a) config.keys in
    List.find_opt
      (fun row ->
        List.for_all2
          (fun ka kv ->
            Value.equal (Tuple.get row (Schema.index dataset.master_schema
               ("m_" ^ Schema.attribute dataset.schema ka))) kv)
          config.keys keys)
      (Relation.tuples dataset.master)
  in
  let chain_of = Array.make arity None in
  List.iter
    (fun c -> List.iter (fun a -> chain_of.(a) <- Some c) (chain_attrs c))
    config.chains;
  Array.init arity (fun a ->
      match role.(a) with
      | `Key -> (
          match (config.stale_keys, config.chains) with
          | true, c0 :: _ -> chain_value c0.counter a
          | _ -> majority a)
      | `Counter | `Dep -> (
          match chain_of.(a) with
          | Some c -> chain_value c.counter a
          | None -> majority a)
      | `Covered -> (
          match master_row with
          | Some row ->
              Tuple.get row
                (Schema.index dataset.master_schema
                   ("m_" ^ Schema.attribute dataset.schema a))
          | None -> (
              (* Prefer the value carried by the most current snapshot
                 of the chain this attribute drives, if any. *)
              match
                List.find_opt
                  (fun c -> match c.driver with `Covered m -> m = a | `Numeric -> false)
                  config.chains
              with
              | Some c -> chain_value c.counter a
              | None -> majority a))
      | `Plain -> majority a)

let with_master_size dataset n =
  let rows = dataset.master |> Relation.tuples in
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: rest -> x :: take (n - 1) rest
  in
  let master = Relation.make dataset.master_schema (take n rows) in
  { dataset with master }

let restrict_rules dataset which =
  { dataset with ruleset = Rules.Ruleset.restrict dataset.ruleset which }
