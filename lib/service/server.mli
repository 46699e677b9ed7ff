(** The long-lived cleaning service core (transport-agnostic).

    A {!t} owns a bounded admission queue, a pool of worker threads
    driving {!Framework.Pipeline.execute}, one table of per-spec
    entries (each spec's circuit breaker, loaded specification and
    live session, under one lock), and (optionally) a crash-safe
    {!Checkpoint}. Transports ({!Sock}, the in-process
    driver, stdio) just feed request lines to {!submit} and get the
    response line through the [reply] callback.

    The resilience ladder, in request order:

    + {b admission}: a full queue rejects immediately with
      {!Robust.Error.Overloaded} — the server sheds load at the door
      instead of queueing unboundedly;
    + {b deadline propagation}: each request's deadline is armed as a
      {!Robust.Budget} deadline {e minus the time it waited in the
      queue}; a request whose deadline already passed while queued is
      shed without doing any work;
    + {b circuit breaking}: consecutive [Internal] failures or
      quarantine-heavy cleans against one spec trip that spec's
      breaker; further requests fast-fail with
      {!Robust.Error.Circuit_open} until a cooldown admits a probe;
    + {b graceful degradation}: a tripped budget is not an error —
      the response is [degraded] with a sound partial result;
    + {b quarantine}: any unexpected exception becomes a typed
      [internal] error response. No request ever takes a worker
      thread (or the server) down.

    Control-plane ops ([ping]/[metrics]/[shutdown]) bypass the queue
    so they stay responsive under overload. *)

type config = {
  queue_depth : int;  (** admission bound (≥ 1) *)
  workers : int;  (** worker threads (≥ 1) *)
  default_deadline_ms : float option;
      (** applied when a request carries no [deadline_ms] *)
  default_max_steps : int option;
  breaker_threshold : int;  (** consecutive failures to trip *)
  breaker_cooldown_ms : float;
  checkpoint_path : string option;  (** [None] disables checkpoints *)
  checkpoint_every : int;  (** flush every N completed requests *)
}

val default_config : config
(** 64-deep queue, 2 workers, no default deadline, breaker trips at
    3 failures with a 500 ms cooldown, no checkpoint, flush every 32
    completions. *)

type t

val create : config -> t
(** Start the workers. If [checkpoint_path] names an existing
    checkpoint, each spec of the warm set is re-loaded into its
    per-spec entry and compiled ({!Framework.Compile_cache}, where the
    artifact lives as long as the entry keeps that specification)
    before any request is accepted, and journalled in-flight requests
    are replayed through the normal path (their responses are
    discarded — the original client is gone; replay rebuilds cache
    state and re-journals them, which is sound because requests are
    read-only over their inputs). *)

val submit : t -> line:string -> reply:(string -> unit) -> unit
(** Hand one raw request line to the service. [reply] is called
    {e exactly once} — possibly synchronously (parse errors,
    shedding, control ops) — with the response line (no newline).
    After {!stop} has begun, every submit is shed. *)

val queue_depth : t -> int
val stopping : t -> bool
(** True once a [shutdown] request, {!request_stop} or {!stop} was
    seen — transports poll this to leave their accept loops. *)

val request_stop : t -> unit
(** Flag the server as stopping without blocking — safe to call from
    a signal handler. New submissions are shed; the transport loop
    sees {!stopping} and unwinds to the blocking {!stop}. *)

val stop : t -> unit
(** Graceful: close the queue, drain and join the workers, write a
    final checkpoint. Idempotent. *)
