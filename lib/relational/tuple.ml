type t = {
  tid : int;
  source : int;
  snapshot : int;
  values : Value.t array;
}

let make ?(tid = -1) ?(source = 0) ?(snapshot = 0) values =
  { tid; source; snapshot; values = Array.copy values }

let unsafe_make ?(tid = -1) values = { tid; source = 0; snapshot = 0; values }
let arity t = Array.length t.values
let get t i = t.values.(i)
let values t = Array.copy t.values
let tid t = t.tid
let source t = t.source
let snapshot t = t.snapshot

let set t i v =
  let values = Array.copy t.values in
  values.(i) <- v;
  { t with values }

let with_tid t tid = { t with tid }

let equal_values a b =
  Array.length a.values = Array.length b.values
  && Array.for_all2 Value.equal a.values b.values

let compare_values a b =
  let la = Array.length a.values and lb = Array.length b.values in
  if la <> lb then Int.compare la lb
  else
    let rec go i =
      if i = la then 0
      else
        let c = Value.compare a.values.(i) b.values.(i) in
        if c <> 0 then c else go (i + 1)
    in
    go 0

let pp schema ppf t =
  Format.fprintf ppf "(";
  Array.iteri
    (fun i v ->
      if i > 0 then Format.fprintf ppf ", ";
      Format.fprintf ppf "%s=%a" (Schema.attribute schema i) Value.pp v)
    t.values;
  Format.fprintf ppf ")"

