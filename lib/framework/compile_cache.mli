(** Compile-once / run-many: a process-wide cache of
    {!Core.Is_cr.compiled} artifacts.

    Grounding is the specification-level analogue of query
    compilation — a pure function of (ruleset, entity, master,
    template) — so repeated whole-spec runs ({!Pipeline}'s chase and
    top-k tasks, a service's warm restart) reuse one artifact
    instead of re-instantiating Γ. Rulesets and master relations are
    keyed by physical identity; the entity relation and template by
    content ([Value.equal]-wise, with a physical shortcut), so a
    spec reloaded from the same tuples hits.

    {!Cleaner} does not use it: a clean compiles each entity once
    and a session re-cleans only changed entities, so per-entity
    lookups never hit (0 hits over a 2,735-entity clean and over a
    1k-entity session's whole update feed) and the cache only kept
    compiled entities live.

    Domain-safe: lookups and insertions are mutex-guarded (the
    compile itself runs outside the lock; a racing duplicate compile
    is idempotent). The cache is bounded ([1024] entries) and resets
    wholesale when full. Hits, misses and resets are observable as
    [compile_cache_hits_total] / [compile_cache_misses_total] /
    [compile_cache_resets_total]. *)

val compile : Core.Specification.t -> Core.Is_cr.compiled
(** Cached {!Core.Is_cr.compile}. *)

val clear : unit -> unit
(** Drop every cached artifact (tests and memory-sensitive callers). *)

val size : unit -> int
(** Current number of cached artifacts. *)

val warm : Core.Specification.t -> unit
(** Prefill: compile (through the cache) and discard the artifact —
    the checkpoint-replay hook a restarting {!Service} uses to
    restore warmth before serving traffic. *)

type stats = { hits : int; misses : int; resets : int }

val stats : unit -> stats
(** Lifetime hit/miss/reset totals, counted independently of the Obs
    enabled flag (warm-restart assertions depend on them). *)
