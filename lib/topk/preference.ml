module Value = Relational.Value
module Relation = Relational.Relation

(* [support a] names the values of attribute [a] whose weight may
   differ from [default]; [None] marks a dense model, where any value
   may score anything. *)
type t = {
  weight : int -> Value.t -> float;
  support : (int -> Value.t list) option;
  default : float;
}

let weight t = t.weight

let support t a =
  match t.support with None -> None | Some f -> Some (f a, t.default)

let score t values =
  let total = ref 0.0 in
  Array.iteri
    (fun a v -> if not (Value.is_null v) then total := !total +. t.weight a v)
    values;
  !total

let of_fun f = { weight = f; support = None; default = 0.0 }

let uniform () = of_fun (fun _ v -> if Value.is_null v then 0.0 else 1.0)

(* The triples' values per attribute, in triple order. *)
let triple_support triples a =
  List.filter_map (fun (a', v, _) -> if a' = a then Some v else None) triples

(* Per attribute, a count per [Value.equal] class, so a weight lookup
   hashes the value itself and renders nothing. *)
let of_occurrences ?(default = 0.5) relation =
  let n = Relational.Schema.arity (Relation.schema relation) in
  let counts = Array.init n (fun _ -> Value.Tbl.create 8) in
  let support = Array.make n [] in
  for a = 0 to n - 1 do
    let tbl = counts.(a) in
    for ti = 0 to Relation.size relation - 1 do
      let v = Relation.get relation ti a in
      if not (Value.is_null v) then
        match Value.Tbl.find_opt tbl v with
        | Some c -> incr c
        | None ->
            Value.Tbl.replace tbl v (ref 1);
            support.(a) <- v :: support.(a)
    done
  done;
  {
    weight =
      (fun a v ->
        if a < 0 || a >= n then default
        else
          match Value.Tbl.find_opt counts.(a) v with
          | Some c -> float_of_int !c
          | None -> default);
    support = Some (fun a -> if a < n then support.(a) else []);
    default;
  }

(* Per attribute, the triples' weights by [Value.equal] class; a later
   triple of a class replaces an earlier one's weight. *)
let triple_table triples =
  let table = Hashtbl.create 8 in
  List.iter
    (fun (a, v, w) ->
      let tbl =
        match Hashtbl.find_opt table a with
        | Some tbl -> tbl
        | None ->
            let tbl = Value.Tbl.create 16 in
            Hashtbl.add table a tbl;
            tbl
      in
      Value.Tbl.replace tbl v w)
    triples;
  fun a v ->
    match Hashtbl.find_opt table a with
    | Some tbl -> Value.Tbl.find_opt tbl v
    | None -> None

let of_table ?(default = 0.0) triples =
  let find = triple_table triples in
  {
    weight = (fun a v -> Option.value (find a v) ~default);
    support = Some (triple_support triples);
    default;
  }

let override t triples =
  let find = triple_table triples in
  {
    weight =
      (fun a v -> match find a v with Some w -> w | None -> t.weight a v);
    support =
      Option.map (fun base a -> triple_support triples a @ base a) t.support;
    default = t.default;
  }
