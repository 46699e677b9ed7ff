module Relation = Relational.Relation
module Attr_order = Ordering.Attr_order

(* One vote per column over its [Value.equal] classes: a preference
   weighs a class at its first spelling, and without one a class weighs
   its size, which is the occurrence count. *)
let resolve ?pref relation =
  Array.init (Relational.Schema.arity (Relation.schema relation)) (fun a ->
      Attr_order.numbering_majority
        ?weight:(Option.map (fun pref -> Topk.Preference.weight pref a) pref)
        (Attr_order.numbering_of_column (Relation.column relation a)))
