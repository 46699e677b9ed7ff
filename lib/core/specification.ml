module Schema = Relational.Schema
module Relation = Relational.Relation
module Value = Relational.Value

module Attr_order = Ordering.Attr_order

(* The numbering and the intern table are made on first use and then
   shared by every derived specification that keeps the cell. Unlike a
   [Lazy.t], two domains or threads asking at once both get the value
   (a concurrent [Lazy.force] raises [Lazy.Undefined] in the loser),
   and a service shares one specification between its workers: each
   caller that finds the cell empty builds the value, and the first to
   publish it wins, so all of them return one value. *)
let publish cell v =
  if Atomic.compare_and_set cell None (Some v) then v else Option.get (Atomic.get cell)

(* Every specification built takes the next stamp: a hash for keying
   tables by the specification's identity (a content hash would walk
   every tuple). *)
let stamps = Atomic.make 0

type t = {
  stamp : int;
  entity : Relation.t;
  master_index : Rules.Master_index.t option;
  ruleset : Rules.Ruleset.t;
  template : Value.t array;
  (* Value-class numbering per attribute: a pure function of
     [entity], computed on first use and shared by every derived
     specification ([with_template]/[with_ruleset] keep the same
     cell), so compiling and instantiating never rehash the
     entity columns twice. *)
  numbering : Attr_order.numbering array option Atomic.t;
  (* The specification's value-interning table: an entity generation
     over its master's generation, or a root of its own without a
     master. Made on first use, so building a specification never
     fills the master's table. Shared by every [with_template]
     derivative, so ids handed out at compile time agree with every
     later chase, snapshot delta and session fill over the same world;
     a [with_ruleset] derivative, whose rules may read other master
     columns, makes its own. *)
  intern : Relational.Intern.t option Atomic.t;
}

let numbering_of_entity entity =
  Array.init
    (Schema.arity (Relation.schema entity))
    (fun a -> Attr_order.numbering_of_column (Relation.column entity a))

(* An entity generation meets the entity's value classes and the
   rules' constants, plus a few fills: its table is sized to them. *)
let intern_of t numbering =
  match t.master_index with
  | Some midx ->
      let size =
        Array.fold_left
          (fun n nb -> n + Attr_order.numbering_classes nb)
          (Array.length (Rules.Plan.consts (Rules.Ruleset.plan t.ruleset)))
          numbering
      in
      Rules.Master_index.extend ~size midx t.ruleset
  | None -> Relational.Intern.create ()

let make ?template ~entity ?master ruleset =
  let schema = Rules.Ruleset.schema ruleset in
  if not (Schema.equal (Relation.schema entity) schema) then
    Error
      (Printf.sprintf "entity relation schema %s does not match rule set schema %s"
         (Schema.name (Relation.schema entity))
         (Schema.name schema))
  else
    let master_ok =
      match (master, Rules.Ruleset.master_schema ruleset) with
      | None, _ -> Ok ()
      | Some im, Some ms ->
          if Schema.equal (Relation.schema im) ms then Ok ()
          else Error "master relation schema does not match rule set master schema"
      | Some _, None ->
          Error "master relation supplied but the rule set declares no master schema"
    in
    match master_ok with
    | Error _ as e -> e
    | Ok () -> (
        let arity = Schema.arity schema in
        match template with
        | Some tpl when Array.length tpl <> arity ->
            Error
              (Printf.sprintf "template arity %d does not match schema arity %d"
                 (Array.length tpl) arity)
        | _ ->
            let template =
              match template with
              | Some tpl -> Array.copy tpl
              | None -> Array.make arity Value.Null
            in
            let master_index = Option.map Rules.Master_index.of_master master in
            Ok
              {
                stamp = Atomic.fetch_and_add stamps 1;
                entity;
                master_index;
                ruleset;
                template;
                numbering = Atomic.make None;
                intern = Atomic.make None;
              })

let make_exn ?template ~entity ?master ruleset =
  match make ?template ~entity ?master ruleset with
  | Ok t -> t
  | Error e -> invalid_arg ("Specification.make_exn: " ^ e)

let stamp t = t.stamp
let entity t = t.entity
let master t = Option.map Rules.Master_index.relation t.master_index
let master_index t = t.master_index
let numbering t =
  match Atomic.get t.numbering with
  | Some nb -> nb
  | None -> publish t.numbering (numbering_of_entity t.entity)

let intern t =
  match Atomic.get t.intern with
  | Some i -> i
  | None -> publish t.intern (intern_of t (numbering t))
let ruleset t = t.ruleset
let schema t = Rules.Ruleset.schema t.ruleset
let template t = Array.copy t.template

let with_template t tpl =
  if Array.length tpl <> Schema.arity (schema t) then
    invalid_arg "Specification.with_template: arity mismatch";
  { t with stamp = Atomic.fetch_and_add stamps 1; template = Array.copy tpl }

let with_ruleset t ruleset =
  if not (Schema.equal (Rules.Ruleset.schema ruleset) (schema t)) then
    invalid_arg "Specification.with_ruleset: schema mismatch";
  { t with stamp = Atomic.fetch_and_add stamps 1; ruleset; intern = Atomic.make None }
