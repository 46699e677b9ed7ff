module Value = Relational.Value

(* The value-class numbering of one column is a pure function of the
   entity relation, independent of any chase state, so it is split
   out of the order proper: one [numbering] can back every
   {!t} (and every ground-step compilation) over the same column
   without rehashing the values. All three arrays are immutable
   after construction and may be shared freely across instances and
   domains. *)
type numbering = {
  tuple_class : int array; (* tuple index -> class id *)
  class_values : Value.t array; (* class id -> its value *)
  members : int list array; (* class id -> member tuple indices *)
}

type t = {
  nb : numbering;
  order : Poset.t; (* strict order over classes *)
}

type add_result =
  | No_change
  | Extended of (int * int) list
  | Conflict

(* Classes are keyed by the value itself: [Value.hash] is consistent
   with [Value.compare], so the table unifies exactly the numeric
   twins that [Value.equal] unifies (Int 2 = Float 2.). The previous
   key rendered numbers through [string_of_float], which both
   allocated per tuple and collapsed distinct ints beyond 2^53 into
   one class. *)
module Vtbl = Value.Tbl

let numbering_of_column column =
  let n = Array.length column in
  let tuple_class = Array.make n (-1) in
  let values = ref [] and count = ref 0 in
  let index = Vtbl.create (max 16 n) in
  for ti = 0 to n - 1 do
    let key = column.(ti) in
    match Vtbl.find_opt index key with
    | Some c -> tuple_class.(ti) <- c
    | None ->
        Vtbl.add index key !count;
        tuple_class.(ti) <- !count;
        values := column.(ti) :: !values;
        incr count
  done;
  let class_values = Array.of_list (List.rev !values) in
  let members = Array.make !count [] in
  for ti = n - 1 downto 0 do
    members.(tuple_class.(ti)) <- ti :: members.(tuple_class.(ti))
  done;
  { tuple_class; class_values; members }

let numbering_tuples nb = Array.length nb.tuple_class
let numbering_classes nb = Array.length nb.class_values
let numbering_class_of_tuple nb ti = nb.tuple_class.(ti)
let numbering_tuple_classes nb = nb.tuple_class
let numbering_class_value nb c = nb.class_values.(c)

(* The vote of [Voting.resolve] over the column's classes in
   first-appearance order: the most weight wins (by default the class
   size), a tie goes to the least value by [Value.compare], and a class
   is spelled as its first member. *)
let numbering_majority ?weight nb =
  let best = ref (-1) and best_w = ref 0. in
  Array.iteri
    (fun c v ->
      if not (Value.is_null v) then begin
        let w =
          match weight with
          | None -> float_of_int (List.length nb.members.(c))
          | Some weight -> weight v
        in
        if
          !best < 0 || w > !best_w
          || (w = !best_w && Value.compare v nb.class_values.(!best) < 0)
        then begin
          best := c;
          best_w := w
        end
      end)
    nb.class_values;
  if !best < 0 then Value.Null else nb.class_values.(!best)

let of_numbering nb = { nb; order = Poset.create (numbering_classes nb) }
let of_column column = of_numbering (numbering_of_column column)
let numbering t = t.nb

let num_tuples t = numbering_tuples t.nb
let num_classes t = numbering_classes t.nb
let class_of_tuple t ti = t.nb.tuple_class.(ti)
let class_value t c = t.nb.class_values.(c)

let class_of_value t v =
  let rec scan c =
    if c = Array.length t.nb.class_values then None
    else if Value.equal t.nb.class_values.(c) v then Some c
    else scan (c + 1)
  in
  scan 0

let tuples_of_class t c = t.nb.members.(c)

let lt_classes t c1 c2 = Poset.mem t.order c1 c2

let leq_tuples t t1 t2 =
  let c1 = t.nb.tuple_class.(t1) and c2 = t.nb.tuple_class.(t2) in
  c1 = c2 || Poset.mem t.order c1 c2

let lt_tuples t t1 t2 =
  let c1 = t.nb.tuple_class.(t1) and c2 = t.nb.tuple_class.(t2) in
  c1 <> c2 && Poset.mem t.order c1 c2

let lift = function
  | Poset.No_change -> No_change
  | Poset.Extended pairs -> Extended pairs
  | Poset.Conflict -> Conflict

let add_classes t c1 c2 = lift (Poset.add t.order c1 c2)

let add_tuples t t1 t2 =
  add_classes t t.nb.tuple_class.(t1) t.nb.tuple_class.(t2)

let remove_classes t c1 c2 = Poset.remove_pair t.order c1 c2

let greatest t =
  match Poset.maximum t.order with
  | Some c -> Some t.nb.class_values.(c)
  | None -> None

let strict_pair_count t = Poset.pair_count t.order

(* The numbering is immutable, so a copy only needs its own order. *)
let copy t = { nb = t.nb; order = Poset.copy t.order }

let pp ppf t =
  Format.fprintf ppf "@[<h>classes={";
  Array.iteri
    (fun c v ->
      if c > 0 then Format.fprintf ppf "; ";
      Format.fprintf ppf "%d:%a" c Value.pp v)
    t.nb.class_values;
  Format.fprintf ppf "} order=%a@]" Poset.pp t.order
