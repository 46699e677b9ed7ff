(** Worst-case efficient priority queue (Brodal, SODA'96), in its
    standard purely functional realization: the Brodal–Okasaki
    bootstrapped skew binomial heap ("Optimal purely functional
    priority queues", JFP 1996).

    Costs: [find_min], [insert] and [merge] are worst-case [O(1)];
    [delete_min] is worst-case [O(log n)]. §6.2 of the paper uses
    exactly this structure for [TopKCT]'s frontier queue [Q]
    ("a Brodal queue, a worst-case efficient priority queue [6]; it
    takes O(1) time to insert a tuple and O(log |Q|) time to pop up
    the top tuple"). [Topk_ct] runs its frontier on the mutable
    {!Binary_heap} instead (the frontier order is total and private
    to one call, so persistence buys nothing); this queue is kept for
    the priority-queue ablation bench.

    The queue is persistent; operations return new queues. The
    comparison is fixed at creation. *)

type 'a t

val empty : cmp:('a -> 'a -> int) -> 'a t
val is_empty : 'a t -> bool

val size : 'a t -> int
(** [O(1)] (cached). *)

val insert : 'a -> 'a t -> 'a t
(** Worst-case [O(1)]. *)

val merge : 'a t -> 'a t -> 'a t
(** Worst-case [O(1)]. The two queues must have been created with
    the same comparison (the left one's is kept). *)

val find_min : 'a t -> 'a option
(** Worst-case [O(1)]. *)

val pop : 'a t -> ('a * 'a t) option
(** Remove the minimum; worst-case [O(log n)]. *)

val of_list : cmp:('a -> 'a -> int) -> 'a list -> 'a t
val to_sorted_list : 'a t -> 'a list
