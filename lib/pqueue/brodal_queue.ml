(* Structural bootstrapping: a non-empty queue is its globally
   minimum element together with a skew binomial heap of queues,
   ordered by their minimum elements. This makes find_min, insert and
   merge O(1) worst-case, with delete_min O(log n) (Brodal & Okasaki,
   JFP 1996). *)

type 'a heap =
  | Empty
  | Rooted of 'a * 'a heap Skew_binomial.t

type 'a t = { cmp : 'a -> 'a -> int; size : int; heap : 'a heap }

let empty ~cmp = { cmp; size = 0; heap = Empty }
let is_empty q = q.size = 0
let size q = q.size

let root_leq cmp h1 h2 =
  match (h1, h2) with
  | Rooted (x, _), Rooted (y, _) -> cmp x y <= 0
  | Empty, _ | _, Empty ->
      (* Empty heaps are never stored inside the primitive layer. *)
      assert false

let m_links = Obs.Counter.make ~help:"Brodal queue root links" "pqueue_brodal_links_total"

let merge_heap cmp h1 h2 =
  match (h1, h2) with
  | Empty, h | h, Empty -> h
  | Rooted (x, p1), Rooted (y, p2) ->
      Obs.Counter.incr m_links;
      let leq = root_leq cmp in
      if cmp x y <= 0 then Rooted (x, Skew_binomial.insert ~leq h2 p1)
      else Rooted (y, Skew_binomial.insert ~leq h1 p2)

let insert x q =
  {
    q with
    size = q.size + 1;
    heap = merge_heap q.cmp (Rooted (x, Skew_binomial.empty)) q.heap;
  }

let merge q1 q2 =
  { q1 with size = q1.size + q2.size; heap = merge_heap q1.cmp q1.heap q2.heap }

let find_min q =
  match q.heap with Empty -> None | Rooted (x, _) -> Some x

let pop q =
  match q.heap with
  | Empty -> None
  | Rooted (x, primitive) ->
      let leq = root_leq q.cmp in
      let rest =
        if Skew_binomial.is_empty primitive then Empty
        else
          match Skew_binomial.find_min ~leq primitive with
          | None -> Empty
          | Some (Rooted (y, p1)) ->
              let p2 = Skew_binomial.delete_min ~leq primitive in
              Rooted (y, Skew_binomial.merge ~leq p1 p2)
          | Some Empty -> assert false
      in
      Some (x, { q with size = q.size - 1; heap = rest })

let of_list ~cmp xs = List.fold_left (fun q x -> insert x q) (empty ~cmp) xs

let to_sorted_list q =
  let rec drain q acc =
    match pop q with None -> List.rev acc | Some (x, q') -> drain q' (x :: acc)
  in
  drain q []
