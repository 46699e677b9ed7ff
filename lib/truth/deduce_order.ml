module Value = Relational.Value
module Relation = Relational.Relation
module Attr_order = Ordering.Attr_order

let m_pairs = Obs.Counter.make ~help:"currency premises evaluated on a tuple pair" "truth_deduceorder_pairs_total"
let m_rounds = Obs.Counter.make ~help:"constant-CFD propagation rounds" "truth_deduceorder_rounds_total"

type result = {
  values : Value.t array;
  deduced_by_currency : int list;
  deduced_by_cfd : int list;
}

let is_pure_comparison = function
  | Rules.Ar.Cmp (l, _, r) ->
      let tuple_only = function
        | Rules.Ar.Tuple_attr _ | Rules.Ar.Const _ -> true
        | Rules.Ar.Target_attr _ -> false
      in
      tuple_only l && tuple_only r
  | Rules.Ar.Ord _ -> false

let currency_rules ruleset =
  List.filter_map
    (function
      | Rules.Ar.Form1 r when List.for_all is_pure_comparison r.Rules.Ar.f1_lhs ->
          Some r
      | _ -> None)
    (Rules.Ruleset.user_rules ruleset)

(* Evaluate a currency constraint's premises on a concrete pair. *)
let premises_hold relation r i j =
  let value = function
    | Rules.Ar.Tuple_attr (Rules.Ar.T1, a) -> Relation.get relation i a
    | Rules.Ar.Tuple_attr (Rules.Ar.T2, a) -> Relation.get relation j a
    | Rules.Ar.Const v -> v
    | Rules.Ar.Target_attr _ -> assert false
  in
  List.for_all
    (function
      | Rules.Ar.Cmp (l, op, rt) -> Rules.Ar.eval_op op (value l) (value rt)
      | Rules.Ar.Ord _ -> assert false)
    r.Rules.Ar.f1_lhs

(* A column's currency evidence is total when its distinct non-null
   values form a chain under the derived order. *)
let chain_top order =
  let nc = Attr_order.num_classes order in
  let non_null =
    List.filter
      (fun c -> not (Value.is_null (Attr_order.class_value order c)))
      (List.init nc (fun c -> c))
  in
  match non_null with
  | [] -> None
  | [ c ] -> Some (Attr_order.class_value order c)
  | _ ->
      let comparable c1 c2 =
        Attr_order.lt_classes order c1 c2 || Attr_order.lt_classes order c2 c1
      in
      let total =
        List.for_all
          (fun c1 ->
            List.for_all (fun c2 -> c1 = c2 || comparable c1 c2) non_null)
          non_null
      in
      if not total then None
      else
        List.find_opt
          (fun c ->
            List.for_all
              (fun c' -> c = c' || Attr_order.lt_classes order c' c)
              non_null)
          non_null
        |> Option.map (Attr_order.class_value order)

let resolve ~ruleset ?(cfds = []) relation =
  let schema = Relation.schema relation in
  let arity = Relational.Schema.arity schema in
  let n = Relation.size relation in
  let orders = Array.init arity (fun a -> Attr_order.of_column (Relation.column relation a)) in
  let rules = currency_rules ruleset in
  (* Populate currency orders; abandon an attribute on conflicting
     evidence (DeduceOrder reports nothing rather than guessing). *)
  let conflicted = Array.make arity false in
  let pairs = ref 0 in
  List.iter
    (fun r ->
      let attr = r.Rules.Ar.f1_rhs.Rules.Ar.attr in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if (not conflicted.(attr)) && (incr pairs; premises_hold relation r i j) then begin
            let ti, tj =
              match (r.Rules.Ar.f1_rhs.Rules.Ar.left, r.Rules.Ar.f1_rhs.Rules.Ar.right) with
              | Rules.Ar.T1, Rules.Ar.T2 -> (i, j)
              | Rules.Ar.T2, Rules.Ar.T1 -> (j, i)
              | Rules.Ar.T1, Rules.Ar.T1 -> (i, i)
              | Rules.Ar.T2, Rules.Ar.T2 -> (j, j)
            in
            match Attr_order.add_tuples orders.(attr) ti tj with
            | Attr_order.Conflict -> conflicted.(attr) <- true
            | Attr_order.No_change | Attr_order.Extended _ -> ()
          end
        done
      done)
    rules;
  Obs.Counter.add m_pairs !pairs;
  let values = Array.make arity Value.Null in
  let by_currency = ref [] in
  for a = 0 to arity - 1 do
    if not conflicted.(a) then
      match chain_top orders.(a) with
      | Some v ->
          values.(a) <- v;
          by_currency := a :: !by_currency
      | None -> ()
  done;
  (* Constant-CFD propagation to fixpoint. *)
  let by_cfd = ref [] in
  let changed = ref true in
  while !changed do
    changed := false;
    Obs.Counter.incr m_rounds;
    List.iter
      (fun (cfd : Cfd.Constant_cfd.t) ->
        let pattern_holds =
          List.for_all
            (fun (a, v) -> Value.equal values.(a) v)
            cfd.Cfd.Constant_cfd.pattern
        in
        let ca, cv = cfd.Cfd.Constant_cfd.consequent in
        if pattern_holds && Value.is_null values.(ca) then begin
          values.(ca) <- cv;
          by_cfd := ca :: !by_cfd;
          changed := true
        end)
      cfds
  done;
  {
    values;
    deduced_by_currency = List.rev !by_currency;
    deduced_by_cfd = List.rev !by_cfd;
  }
