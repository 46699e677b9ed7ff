(* Node (rank, root, auxiliary elements, children).

   Auxiliary elements come from skew links: each absorbs one inserted
   element that is >= the root; children are in decreasing rank
   order. *)
type 'a tree = Node of int * 'a * 'a list * 'a tree list

type 'a t = 'a tree list (* roots in increasing rank order, except
                            the first two may share a rank *)

let empty = []
let is_empty ts = ts = []

let rank (Node (r, _, _, _)) = r
let root (Node (_, x, _, _)) = x

let m_links = Obs.Counter.make ~help:"skew binomial tree links" "pqueue_skew_links_total"

(* Simple link of two trees of equal rank r: the larger root becomes
   a child, producing rank r+1. *)
let link ~leq (Node (r, x1, xs1, c1) as t1) (Node (_, x2, xs2, c2) as t2) =
  Obs.Counter.incr m_links;
  if leq x1 x2 then Node (r + 1, x1, xs1, t2 :: c1)
  else Node (r + 1, x2, xs2, t1 :: c2)

(* Skew link: additionally absorb a single element, keeping the rank
   r+1 but storing the loser in the auxiliary list. *)
let skew_link ~leq x t1 t2 =
  let (Node (r, y, ys, c)) = link ~leq t1 t2 in
  if leq x y then Node (r, x, y :: ys, c) else Node (r, y, x :: ys, c)

let rec ins_tree ~leq t = function
  | [] -> [ t ]
  | t' :: ts ->
      if rank t < rank t' then t :: t' :: ts
      else ins_tree ~leq (link ~leq t t') ts

let rec merge_trees ~leq ts1 ts2 =
  match (ts1, ts2) with
  | [], ts | ts, [] -> ts
  | t1 :: rest1, t2 :: rest2 ->
      if rank t1 < rank t2 then t1 :: merge_trees ~leq rest1 ts2
      else if rank t2 < rank t1 then t2 :: merge_trees ~leq ts1 rest2
      else ins_tree ~leq (link ~leq t1 t2) (merge_trees ~leq rest1 rest2)

let normalize ~leq = function
  | [] -> []
  | t :: ts -> ins_tree ~leq t ts

let insert ~leq x ts =
  match ts with
  | t1 :: t2 :: rest when rank t1 = rank t2 ->
      skew_link ~leq x t1 t2 :: rest
  | _ -> Node (0, x, [], []) :: ts

let merge ~leq ts1 ts2 =
  merge_trees ~leq (normalize ~leq ts1) (normalize ~leq ts2)

let find_min ~leq = function
  | [] -> None
  | t :: ts ->
      (* Keep the FIRST minimal root on ties — remove_min_tree makes
         the same choice, so find_min/delete_min always agree on
         which tree goes. (With heap-of-heap elements, disagreeing on
         tied roots would duplicate one sub-heap and drop another.) *)
      let best =
        List.fold_left
          (fun acc t' -> if leq acc (root t') then acc else root t')
          (root t) ts
      in
      Some best

let remove_min_tree ~leq ts =
  let rec go = function
    | [] -> invalid_arg "Skew_binomial.remove_min_tree: empty"
    | [ t ] -> (t, [])
    | t :: rest ->
        let t', rest' = go rest in
        if leq (root t) (root t') then (t, rest) else (t', t :: rest')
  in
  go ts

let delete_min ~leq = function
  | [] -> []
  | ts ->
      let Node (_, _, xs, children), rest = remove_min_tree ~leq ts in
      (* Children are in decreasing rank order; reversed they form a
         valid heap. Reinsert the auxiliary elements one by one. *)
      let merged = merge ~leq (List.rev children) (normalize ~leq rest) in
      List.fold_left (fun acc x -> insert ~leq x acc) merged xs

let pop ~leq ts =
  match find_min ~leq ts with
  | None -> None
  | Some x -> Some (x, delete_min ~leq ts)

let rec tree_size (Node (_, _, xs, children)) =
  1 + List.length xs + List.fold_left (fun acc t -> acc + tree_size t) 0 children

let size ts = List.fold_left (fun acc t -> acc + tree_size t) 0 ts

let to_list ts =
  let rec of_tree (Node (_, x, xs, children)) acc =
    let acc = x :: List.rev_append xs acc in
    List.fold_left (fun acc t -> of_tree t acc) acc children
  in
  List.fold_left (fun acc t -> of_tree t acc) [] ts

let check_invariants ~leq ts =
  (* Heap order: the root is <= every auxiliary element and every
     descendant; ranks: a rank-r node has children of ranks
     r-1, ..., 0 (skew links can add one extra rank-(r-1) child, so we
     only check monotone decrease and child count bounds). *)
  let rec tree_ok (Node (r, x, xs, children)) =
    List.for_all (fun y -> leq x y) xs
    && List.for_all (fun child -> leq x (root child)) children
    && List.for_all tree_ok children
    &&
    let ranks = List.map rank children in
    let rec decreasing = function
      | a :: (b :: _ as rest) -> a >= b && decreasing rest
      | _ -> true
    in
    decreasing ranks && List.for_all (fun cr -> cr < r) ranks
  in
  let roots_ok =
    match ts with
    | [] | [ _ ] -> true
    | t1 :: t2 :: rest ->
        let rec strictly_increasing = function
          | a :: (b :: _ as rest) -> rank a < rank b && strictly_increasing rest
          | _ -> true
        in
        rank t1 <= rank t2 && strictly_increasing (t2 :: rest)
  in
  roots_ok && List.for_all tree_ok ts
