type t = { schema : Schema.t; tuples : Tuple.t array }

let make schema tuple_list =
  let arity = Schema.arity schema in
  List.iter
    (fun t ->
      if Tuple.arity t <> arity then
        invalid_arg
          (Printf.sprintf "Relation.make: tuple arity %d, schema %s has arity %d"
             (Tuple.arity t) (Schema.name schema) arity))
    tuple_list;
  let tuples = Array.of_list tuple_list in
  Array.iteri
    (fun i t -> if Tuple.tid t <> i then tuples.(i) <- Tuple.with_tid t i)
    tuples;
  { schema; tuples }

let schema t = t.schema
let size t = Array.length t.tuples
let tuple t i = t.tuples.(i)
let tuples t = Array.to_list t.tuples
let tuple_array t = Array.copy t.tuples
let get t ti ai = Tuple.get t.tuples.(ti) ai
let column t ai = Array.map (fun tup -> Tuple.get tup ai) t.tuples

let filter t pred = make t.schema (List.filter pred (tuples t))
let append t extra = make t.schema (tuples t @ extra)
let map t f = make t.schema (List.map f (tuples t))

let pp ppf t =
  Format.fprintf ppf "@[<v>%a@," Schema.pp t.schema;
  Array.iter (fun tup -> Format.fprintf ppf "  %a@," (Tuple.pp t.schema) tup) t.tuples;
  Format.fprintf ppf "@]"
