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

(* Two values share a key iff [Value.equal] holds: an int and the
   integral floats equal to it all key as that int (so Int 3 meets
   Float 3.0, and -0. meets 0), every other float keys by its exact
   bits, and the runtime types never collide. *)
let value_key v =
  match v with
  | Value.Null -> "n"
  | Value.Bool b -> if b then "bt" else "bf"
  | Value.Int i -> "d" ^ string_of_int i
  | Value.Float f when Float.is_integer f && f >= -0x1p62 && f < 0x1p62 ->
      "d" ^ string_of_int (int_of_float f)
  | Value.Float f -> if Float.is_nan f then "fnan" else "f" ^ Printf.sprintf "%h" f
  | Value.String s -> "s" ^ s

(* The triples' values per attribute, in triple order. *)
let triple_support triples a =
  List.filter_map (fun (a', v, _) -> if a' = a then Some v else None) triples

(* Per attribute, a count per [Value.equal] class — the identity
   [value_key] spells — so a weight lookup hashes the value itself and
   renders nothing. *)
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

let of_table ?(default = 0.0) triples =
  let table = Hashtbl.create 64 in
  List.iter (fun (a, v, w) -> Hashtbl.replace table (a, value_key v) w) triples;
  {
    weight =
      (fun a v ->
        match Hashtbl.find_opt table (a, value_key v) with
        | Some w -> w
        | None -> default);
    support = Some (triple_support triples);
    default;
  }

let override t triples =
  let table = Hashtbl.create 16 in
  List.iter (fun (a, v, w) -> Hashtbl.replace table (a, value_key v) w) triples;
  {
    weight =
      (fun a v ->
        match Hashtbl.find_opt table (a, value_key v) with
        | Some w -> w
        | None -> t.weight a v);
    support =
      Option.map (fun base a -> triple_support triples a @ base a) t.support;
    default = t.default;
  }
