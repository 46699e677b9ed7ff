module Value = Relational.Value
module Relation = Relational.Relation
module Ar = Rules.Ar
module Ground = Rules.Ground

(* A candidate's identity is its action and its set of residual
   predicates, values keyed by id in a table of this call's own (so
   values compare up to [Value.equal]); the first candidate of each
   identity wins, and its residuals keep first-encounter order with
   duplicates dropped. *)
let ground ~rules ~entity ~master ~orders =
  let ids = Relational.Intern.create () in
  let vid v = Relational.Intern.intern ids v in
  let cls a ti = Ordering.Attr_order.numbering_class_of_tuple orders.(a) ti in
  let seen = Hashtbl.create 64 in
  let out = ref [] and sid = ref 0 in
  let offer rule_name preds action action_key =
    let pred_key = function
      | Ground.P_ord { attr; c1; c2 } -> `Ord (attr, c1, c2)
      | Ground.P_te { attr; op; value } -> `Te (attr, op, vid value)
    in
    let preds =
      List.rev
        (List.fold_left
           (fun acc p ->
             if List.exists (fun q -> pred_key q = pred_key p) acc then acc else p :: acc)
           [] preds)
    in
    let key = (action_key, List.sort compare (List.map pred_key preds)) in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      out := { Ground.sid = !sid; rule_name; preds; action } :: !out;
      incr sid
    end
  in
  let n = Relation.size entity in
  let form1 (r : Ar.form1) i j =
    let tuple = function Ar.T1 -> i | Ar.T2 -> j in
    let value = function
      | Ar.Tuple_attr (s, a) -> Some (Relation.get entity (tuple s) a)
      | Ar.Const c -> Some c
      | Ar.Target_attr _ -> None
    in
    let rec go acc = function
      | [] -> Some (List.rev acc)
      | Ar.Cmp (Ar.Target_attr a, op, Ar.Target_attr b) :: rest ->
          assert (a = b);
          if Ar.eval_op op Value.Null Value.Null then go acc rest else None
      | Ar.Cmp (Ar.Target_attr attr, op, t) :: rest ->
          let value = Option.get (value t) in
          go (Ground.P_te { attr; op; value } :: acc) rest
      | Ar.Cmp (t, op, Ar.Target_attr attr) :: rest ->
          let value = Option.get (value t) in
          go (Ground.P_te { attr; op = Ar.mirror_op op; value } :: acc) rest
      | Ar.Cmp (l, op, rt) :: rest ->
          if Ar.eval_op op (Option.get (value l)) (Option.get (value rt)) then go acc rest
          else None
      | Ar.Ord { strict; left; right; attr } :: rest ->
          let c1 = cls attr (tuple left) and c2 = cls attr (tuple right) in
          if c1 <> c2 then go (Ground.P_ord { attr; c1; c2 } :: acc) rest
          else if strict then None
          else go acc rest
    in
    match go [] r.f1_lhs with
    | None -> ()
    | Some preds ->
        let attr = r.f1_rhs.attr in
        let c1 = cls attr (tuple r.f1_rhs.left) and c2 = cls attr (tuple r.f1_rhs.right) in
        if c1 = c2 then offer r.f1_name preds (Ground.Refresh attr) (`Refresh attr)
        else offer r.f1_name preds (Ground.Add_order { attr; c1; c2 }) (`Add (attr, c1, c2))
  in
  let form2 (r : Ar.form2) im m =
    let tm b = Relation.get im m b in
    let rec go acc = function
      | [] -> Some (List.rev acc)
      | Ar.Master_const (b, op, c) :: rest -> if Ar.eval_op op (tm b) c then go acc rest else None
      | Ar.Te_const (attr, op, value) :: rest -> go (Ground.P_te { attr; op; value } :: acc) rest
      | Ar.Te_master (attr, b) :: rest ->
          (* [te] is never assigned null: a join on a null cell never holds. *)
          if Value.is_null (tm b) then None
          else go (Ground.P_te { attr; op = Ar.Eq; value = tm b } :: acc) rest
    in
    let value = tm r.f2_tm_attr in
    match go [] r.f2_lhs with
    | Some preds when not (Value.is_null value) ->
        let attr = r.f2_te_attr in
        offer r.f2_name preds (Ground.Assign { attr; value }) (`Assign (attr, vid value))
    | _ -> ()
  in
  List.iter
    (function
      | Ar.Form1 r ->
          for i = 0 to n - 1 do
            for j = 0 to n - 1 do
              form1 r i j
            done
          done
      | Ar.Form2 r -> (
          match master with
          | None -> ()
          | Some im ->
              for m = 0 to Relation.size im - 1 do
                form2 r im m
              done))
    rules;
  List.rev !out

let of_spec spec =
  let module Spec = Core.Specification in
  ground
    ~rules:(Rules.Ruleset.rules (Spec.ruleset spec))
    ~entity:(Spec.entity spec) ~master:(Spec.master spec) ~orders:(Spec.numbering spec)
