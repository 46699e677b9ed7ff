module Value = Relational.Value

type prf = { precision : float; recall : float; f1 : float }

let prf ~predicted ~truth population =
  let flagged = List.filter predicted population in
  let positive = List.filter truth population in
  let hit = List.filter truth flagged in
  let nf = List.length flagged
  and np = List.length positive
  and nh = List.length hit in
  let precision = if nf = 0 then 1.0 else float_of_int nh /. float_of_int nf in
  let recall = if np = 0 then 1.0 else float_of_int nh /. float_of_int np in
  let f1 =
    if precision +. recall = 0.0 then 0.0
    else 2.0 *. precision *. recall /. (precision +. recall)
  in
  { precision; recall; f1 }

let accuracy pairs =
  match pairs with
  | [] -> 1.0
  | _ ->
      let agree = List.length (List.filter (fun (p, a) -> p = a) pairs) in
      float_of_int agree /. float_of_int (List.length pairs)

let attribute_match_rate ~truth deduced =
  assert (Array.length truth = Array.length deduced);
  let n = Array.length truth in
  if n = 0 then 1.0
  else begin
    let hits = ref 0 in
    for i = 0 to n - 1 do
      if Value.equal truth.(i) deduced.(i) then incr hits
    done;
    float_of_int !hits /. float_of_int n
  end

let exact_match ~truth deduced =
  Array.length truth = Array.length deduced
  && Array.for_all2 Value.equal truth deduced
