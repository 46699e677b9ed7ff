type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string

let null = Null
let is_null v = v = Null

(* Exact numeric comparison of an int and a non-nan float. The naive
   [Float.compare (float_of_int x) y] loses precision for
   |x| > 2^53 (float_of_int rounds), which broke total-order
   transitivity over mixed Int/Float triples — fatal for the
   deterministic heaps in top-k and for any sorted structure keyed
   on values. Split instead: floats outside the 63-bit int range
   compare by sign; inside it, [floor y] is an exact integer (the
   float grid is coarser than 1 only beyond 2^52 < 2^62, where every
   float is integral anyway), so the comparison reduces to exact
   integer ordering plus a fractional-part tie-break. *)
let cmp_int_float x y =
  (* OCaml ints are 63-bit: max_int = 2^62 - 1, min_int = -2^62. *)
  if y >= 0x1p62 then -1 (* y > max_int >= x *)
  else if y < -0x1p62 then 1 (* y < min_int <= x *)
  else
    let fy = Float.floor y in
    (* [int_of_float] is exact here: fy is integral and within the
       63-bit int range, and the conversion never allocates (unlike
       going through boxed Int64) — this runs on compare hot paths. *)
    let iy = int_of_float fy in
    if x < iy then -1
    else if x > iy then 1
    else if y > fy then -1 (* x = floor y < y *)
    else 0

let equal a b =
  match (a, b) with
  | Null, Null -> true
  | Bool x, Bool y -> x = y
  | Int x, Int y -> x = y
  | Float x, Float y -> Float.equal x y
  | Int x, Float y | Float y, Int x ->
      (not (Float.is_nan y)) && cmp_int_float x y = 0
  | String x, String y -> String.equal x y
  | (Null | Bool _ | Int _ | Float _ | String _), _ -> false

let type_rank = function
  | Null -> 0
  | Bool _ -> 1
  | Int _ -> 2
  | Float _ -> 2 (* ints and floats share a rank: compared numerically *)
  | String _ -> 3

let compare a b =
  match (a, b) with
  | Null, Null -> 0
  | Bool x, Bool y -> Bool.compare x y
  | Int x, Int y -> Int.compare x y
  | Float x, Float y -> Float.compare x y
  | Int x, Float y ->
      (* nan sorts below every float (Float.compare), hence below
         every int too. A numeric tie is a float equal to x, zeroes
         included: Float.compare calls -0. and 0. equal as well, so
         ties stay transitive with the Float-vs-Float order. *)
      if Float.is_nan y then 1 else cmp_int_float x y
  | Float x, Int y -> if Float.is_nan x then -1 else -cmp_int_float y x
  | String x, String y -> String.compare x y
  | _ -> Int.compare (type_rank a) (type_rank b)

let lt a b =
  match (a, b) with
  | Bool x, Bool y -> (not x) && y
  | Int x, Int y -> x < y
  | Float x, Float y -> x < y
  | Int x, Float y -> (not (Float.is_nan y)) && cmp_int_float x y < 0
  | Float x, Int y -> (not (Float.is_nan x)) && cmp_int_float y x > 0
  | String x, String y -> String.compare x y < 0
  | _ -> false

(* Invariant (QCheck-enforced): compare a b = 0 implies
   hash a = hash b. Since compare unifies Int x with the integral
   floats equal to x, every integral float within the 63-bit int
   range must hash as that int — the old cutoff at 1e15 left
   integral floats in [1e15, 2^62) hashing structurally while
   comparing equal to their int twins, silently splitting
   value-keyed hashtables (the intern tables, the master index,
   the value-class numbering). -0. hashes as int 0 too: it equals
   Int 0 and 0. *)
let hash = function
  | Null -> 0
  | Bool b -> if b then 17 else 19
  | Int i -> Hashtbl.hash i
  | Float f ->
      if Float.is_integer f && f >= -0x1p62 && f < 0x1p62 then
        Hashtbl.hash (int_of_float f)
      else Hashtbl.hash f
  | String s -> Hashtbl.hash s

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)

let pp ppf = function
  | Null -> Format.pp_print_string ppf "null"
  | Bool b -> Format.pp_print_bool ppf b
  | Int i -> Format.pp_print_int ppf i
  | Float f -> Format.fprintf ppf "%g" f
  | String s -> Format.pp_print_string ppf s

(* The same bytes as [pp], without a [Format] buffer per call: both
   print floats through the C runtime's [%g]. *)
let to_string = function
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%g" f
  | String s -> s

(* A cell that starts with an ASCII letter no keyword or number can
   start with ([null], [true], [false], [nan], [inf]: int_of_string
   needs a digit or a sign first, and float_of_string reads a letter
   first only in nan and inf) and that String.trim would leave alone
   is a string, whatever follows. Anything else takes the full guess:
   "_5" and "\0115" are floats. *)
let surely_string s =
  let n = String.length s in
  n > 0
  && (match String.unsafe_get s 0 with
     | 'n' | 'N' | 't' | 'T' | 'f' | 'F' | 'i' | 'I' -> false
     | 'a' .. 'z' | 'A' .. 'Z' -> true
     | _ -> false)
  &&
  match String.unsafe_get s (n - 1) with
  | ' ' | '\012' | '\n' | '\r' | '\t' -> false
  | _ -> true

let of_string_guess s =
  if surely_string s then String s
  else
    let s = String.trim s in
    if s = "" || String.lowercase_ascii s = "null" then Null
    else
      match String.lowercase_ascii s with
      | "true" -> Bool true
      | "false" -> Bool false
      | _ -> (
          match int_of_string_opt s with
          | Some i -> Int i
          | None -> (
              match float_of_string_opt s with
              | Some f -> Float f
              | None -> String s))
