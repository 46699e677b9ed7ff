module Value = Relational.Value
module Relation = Relational.Relation
module Tuple = Relational.Tuple
module Schema = Relational.Schema
module Attr_order = Ordering.Attr_order

type t = {
  relation : Relation.t;
  orders : Attr_order.t array;
  te : Value.t array;
  (* Interned id of each template cell ([Intern.null_id] while null),
     maintained in lockstep with [te] against the specification's
     shared table — chase engines compare template fills against
     ground-step constants by id instead of structurally. *)
  te_ids : int array;
  intern : Relational.Intern.t;
}

type event =
  | Edge of { attr : int; c1 : int; c2 : int }
  | Te_set of { attr : int; value : Value.t; vid : int }

type outcome =
  | Unchanged
  | Changed of event list
  | Invalid of { reason : string; applied : event list }

let init spec =
  let relation = Specification.entity spec in
  let orders = Array.map Attr_order.of_numbering (Specification.numbering spec) in
  let intern = Specification.intern spec in
  let te = Specification.template spec in
  (* [Value.Null] interns to [null_id] without a table lookup, so one
     map covers both the null and pre-filled template cells. *)
  let te_ids = Array.map (Relational.Intern.intern intern) te in
  { relation; orders; te; te_ids; intern }

let relation t = t.relation
let schema t = Relation.schema t.relation
let order t a = t.orders.(a)
let te t = Array.copy t.te
let te_value t a = t.te.(a)
let te_id t a = t.te_ids.(a)

(* The single write path for template cells: [te] and [te_ids] move
   together, and the event carries the id so engines never re-intern. *)
let set_te t attr value =
  let vid = Relational.Intern.intern t.intern value in
  t.te.(attr) <- value;
  t.te_ids.(attr) <- vid;
  Te_set { attr; value; vid }
let te_complete t = Array.for_all (fun v -> not (Value.is_null v)) t.te

let null_attrs t =
  List.filter
    (fun a -> Value.is_null t.te.(a))
    (List.init (Array.length t.te) (fun i -> i))

(* λ (§2.2): if the attribute's order now has a greatest value, the
   template takes it. Returns the extra events, or an error when a
   non-null template value would have to change. *)
let lambda t attr =
  match Attr_order.greatest t.orders.(attr) with
  | None -> Ok []
  | Some v ->
      if Value.is_null v then
        (* A null greatest (e.g. an all-null column) carries no
           information: it neither instantiates the template nor
           constrains a template value supplied from elsewhere —
           Example 7's candidate targets may take any domain value. *)
        Ok []
      else if Value.is_null t.te.(attr) then Ok [ set_te t attr v ]
      else if Value.equal t.te.(attr) v then Ok []
      else
        Error
          (Printf.sprintf "lambda would change te[%s] from %s to %s"
             (Schema.attribute (schema t) attr)
             (Value.to_string t.te.(attr))
             (Value.to_string v))

let apply t action =
  match action with
  | Rules.Ground.Refresh attr -> (
      match lambda t attr with
      | Ok [] -> Unchanged
      | Ok events -> Changed events
      | Error reason -> Invalid { reason; applied = [] })
  | Rules.Ground.Assign { attr; value } ->
      assert (not (Value.is_null value));
      if Value.is_null t.te.(attr) then Changed [ set_te t attr value ]
      else if Value.equal t.te.(attr) value then Unchanged
      else
        Invalid
          {
            reason =
              Printf.sprintf "te[%s] already holds %s, master asserts %s"
                (Schema.attribute (schema t) attr)
                (Value.to_string t.te.(attr))
                (Value.to_string value);
            applied = [];
          }
  | Rules.Ground.Add_order { attr; c1; c2 } -> (
      match Attr_order.add_classes t.orders.(attr) c1 c2 with
      | Attr_order.Conflict ->
          Invalid
            {
              reason =
                Printf.sprintf "ordering %s and %s both ways on attribute %s"
                  (Value.to_string (Attr_order.class_value t.orders.(attr) c1))
                  (Value.to_string (Attr_order.class_value t.orders.(attr) c2))
                  (Schema.attribute (schema t) attr);
              applied = [];
            }
      | Attr_order.No_change -> (
          (* The pair is already implied: enforcing the rule changes
             nothing (λ cannot have new information either). *)
          match lambda t attr with
          | Ok [] -> Unchanged
          | Ok events -> Changed events
          | Error reason -> Invalid { reason; applied = [] })
      | Attr_order.Extended pairs -> (
          let edges = List.map (fun (c1, c2) -> Edge { attr; c1; c2 }) pairs in
          match lambda t attr with
          | Ok more -> Changed (edges @ more)
          | Error reason ->
              (* The order extension has already happened; report it
                 so a rolling-back caller can undo it (a one-shot
                 engine just stops, for which this is harmless). *)
              Invalid { reason; applied = edges }))

(* Reverse one event. Sound for any multiset of previously applied
   events, in any order: [Te_set] is write-once (undo = reset to
   null) and every [Edge] of one [Extended] batch is reported, so a
   caller undoing a whole suffix of the event stream restores the
   exact poset bitmap (see {!Poset.remove_pair}). *)
let undo_event t = function
  | Te_set { attr; _ } ->
      t.te.(attr) <- Value.Null;
      t.te_ids.(attr) <- Relational.Intern.null_id
  | Edge { attr; c1; c2 } -> Attr_order.remove_classes t.orders.(attr) c1 c2

let leq t attr t1 t2 = Attr_order.leq_tuples t.orders.(attr) t1 t2
let lt t attr t1 t2 = Attr_order.lt_tuples t.orders.(attr) t1 t2

let copy t =
  {
    relation = t.relation;
    orders = Array.map Attr_order.copy t.orders;
    te = Array.copy t.te;
    te_ids = Array.copy t.te_ids;
    intern = t.intern;
  }

let pp ppf t =
  let schema = schema t in
  Format.fprintf ppf "@[<v>te = (";
  Array.iteri
    (fun i v ->
      if i > 0 then Format.fprintf ppf ", ";
      Format.fprintf ppf "%s=%a" (Schema.attribute schema i) Value.pp v)
    t.te;
  Format.fprintf ppf ")@,";
  Array.iteri
    (fun a o ->
      if Attr_order.strict_pair_count o > 0 then
        Format.fprintf ppf "%s: %a@," (Schema.attribute schema a) Attr_order.pp o)
    t.orders;
  Format.fprintf ppf "@]"
