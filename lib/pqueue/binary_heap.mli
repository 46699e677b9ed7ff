(** Array-based binary min-heap.

    The paper's [H_i] (§6.2) are heaps of this kind — [O(log n)] pop
    and linear-time pre-construction ([of_array], Floyd heapify);
    TopKCT reads its per-attribute domains as lazy ranked streams
    instead ([Topk.Active_domain.stream]) and keeps this heap for its
    frontier queue [Q], and RankJoinCT for its output buffer. The
    heap is a min-heap under the supplied comparison; pass an
    inverted comparison for best-score-first behaviour. *)

type 'a t

val create : cmp:('a -> 'a -> int) -> 'a t
(** Empty heap with the given total order. *)

val of_array : cmp:('a -> 'a -> int) -> 'a array -> 'a t
(** Linear-time heapify of (a copy of) the array. *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val add : 'a t -> 'a -> unit
(** [O(log n)]. *)

val peek : 'a t -> 'a option
(** Minimum without removing it. *)

val pop : 'a t -> 'a option
(** Remove and return the minimum; [None] when empty. [O(log n)]. *)

val pop_exn : 'a t -> 'a
(** Like {!pop}; raises [Invalid_argument] when empty. *)

val to_sorted_list : 'a t -> 'a list
(** Drains a copy; the heap itself is unchanged. *)
