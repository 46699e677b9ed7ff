(** Compile-once / run-many: {!Core.Is_cr.compiled} artifacts keyed
    by the specification they compile.

    Grounding is the specification-level analogue of query
    compilation, so repeated whole-spec runs ({!Pipeline}'s chase and
    top-k tasks, a service's warm restart) reuse one artifact instead
    of re-instantiating Γ. The key is the specification's physical
    identity: a holder that keeps one specification (the service's
    per-spec entry, a caller re-executing a loaded spec) hits, while
    a content-equal specification built afresh misses. An artifact
    lives exactly as long as its specification: the table holds it
    through an ephemeron, so once the specification is unreachable
    the next major collection drops both, and nothing else bounds or
    resets the table.

    {!Cleaner} does not use it: a clean compiles each entity once and
    a session re-cleans only changed entities, so per-entity lookups
    never hit.

    Domain-safe: lookups and insertions are mutex-guarded (the
    compile itself runs outside the lock; a racing duplicate compile
    is idempotent). Hits and misses are observable as
    [compile_cache_hits_total] / [compile_cache_misses_total]. *)

val compile : Core.Specification.t -> Core.Is_cr.compiled
(** Cached {!Core.Is_cr.compile}. *)

val clear : unit -> unit
(** Drop every cached artifact (tests and benchmarks that start
    cold). *)

val size : unit -> int
(** Number of cached artifacts whose specification is still live. *)

type stats = { hits : int; misses : int }

val stats : unit -> stats
(** Lifetime hit/miss totals, counted independently of the Obs
    enabled flag (warm-restart assertions depend on them). *)
