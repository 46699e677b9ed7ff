(** Admission control: a bounded, thread-safe request queue.

    The queue is the service's only buffer. Its depth is a hard cap:
    {!admit} on a full queue returns immediately with the depth (the
    caller sheds the request with a typed
    {!Robust.Error.Overloaded}) instead of queueing unboundedly —
    under overload the server's latency stays bounded by
    [capacity × service time] and excess load fails fast.

    Producers are connection-reader threads, consumers are worker
    threads; all operations are mutex-guarded and O(1). *)

type 'a t

val create : capacity:int -> 'a t
(** Raises [Invalid_argument] when [capacity < 1]. *)

val admit : 'a t -> 'a -> (unit, int) result
(** Enqueue, or [Error depth] without blocking when the queue is
    full (or already closed — a closed queue admits nothing). *)

val take : 'a t -> 'a option
(** Block until an element is available; [None] once the queue is
    closed {e and} drained (the worker-shutdown signal). *)

val depth : 'a t -> int
(** Current number of queued elements. *)

val capacity : 'a t -> int

val close : 'a t -> unit
(** Stop admitting; blocked {!take}s drain the remainder and then
    return [None]. Idempotent. *)
