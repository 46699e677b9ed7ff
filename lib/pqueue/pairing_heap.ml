type 'a node = Leaf | Tree of 'a * 'a node list

type 'a t = { cmp : 'a -> 'a -> int; size : int; node : 'a node }

let empty ~cmp = { cmp; size = 0; node = Leaf }
let is_empty h = h.size = 0
let size h = h.size

let m_links = Obs.Counter.make ~help:"pairing heap tree links" "pqueue_pairing_links_total"

let merge_nodes cmp a b =
  match (a, b) with
  | Leaf, n | n, Leaf -> n
  | Tree (x, xs), Tree (y, ys) ->
      Obs.Counter.incr m_links;
      if cmp x y <= 0 then Tree (x, b :: xs) else Tree (y, a :: ys)

let insert x h =
  { h with size = h.size + 1; node = merge_nodes h.cmp (Tree (x, [])) h.node }

let merge h1 h2 =
  { h1 with size = h1.size + h2.size; node = merge_nodes h1.cmp h1.node h2.node }

let find_min h = match h.node with Leaf -> None | Tree (x, _) -> Some x

(* Two-pass pairing: merge children left-to-right in pairs, then
   right-to-left into one heap. *)
let rec merge_pairs cmp = function
  | [] -> Leaf
  | [ n ] -> n
  | a :: b :: rest -> merge_nodes cmp (merge_nodes cmp a b) (merge_pairs cmp rest)

let pop h =
  match h.node with
  | Leaf -> None
  | Tree (x, children) ->
      Some (x, { h with size = h.size - 1; node = merge_pairs h.cmp children })

let of_list ~cmp xs = List.fold_left (fun h x -> insert x h) (empty ~cmp) xs

let to_sorted_list h =
  let rec drain h acc =
    match pop h with None -> List.rev acc | Some (x, h') -> drain h' (x :: acc)
  in
  drain h []
