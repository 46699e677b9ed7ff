(** Crash-safe warm state for the long-lived server.

    Two files, both JSON:

    - the {b checkpoint} ([path]) holds the spec descriptors —
      (entity, master, rules) path triples — the server has loaded
      since it started. Compiled artifacts are closures and cannot be
      serialized; the descriptors are enough to rebuild them, so a
      restarting server re-loads each one into its spec entry,
      compiles it ({!Framework.Compile_cache.compile}) and serves its
      first request at steady-state latency. Written atomically: temp file, flush,
      [fsync], [rename].
    - the {b journal} ([path ^ ".journal"]) is an append-only log of
      in-flight requests: a [begin] line (carrying the raw request)
      when a request is admitted, an [end] line when its response is
      written. Each append is flushed; a [SIGKILL] loses at most the
      entries racing the final flush. On restart, requests with a
      [begin] but no [end] are replayed through the normal path —
      requests are read-only over their inputs, so replay is
      idempotent: it rebuilds the caches exactly as the interrupted
      run would have, and re-serving the same request yields the
      same report. The journal is compacted (rewritten atomically
      with only the still-in-flight entries) on every {!flush}.

    All mutation is mutex-guarded; readers/writers may be any
    worker thread. *)

type spec_key = { entity : string; master : string option; rules : string }

val spec_key_name : spec_key -> string
(** Canonical rendering of the triple — the circuit-breaker registry
    key and the [spec] field of {!Robust.Error.Circuit_open}. *)

type restored = {
  warm : spec_key list;  (** in first-compiled order *)
  inflight : string list;  (** raw request lines, in admission order *)
}

val load : path:string -> restored
(** Read a checkpoint + journal pair; missing files mean an empty
    [restored] (first boot), a corrupt line is skipped (the tail a
    crash tore is expected to be garbage) — loading never raises. *)

type t

val create : path:string -> t
(** Open (creating if needed) the journal for appending. *)

val note_warm : t -> spec_key -> unit
(** Record that [spec_key] compiled successfully (idempotent). *)

val begin_request : t -> seq:int -> line:string -> unit
val end_request : t -> seq:int -> unit

val flush : t -> unit
(** Write the checkpoint atomically and compact the journal. *)

val close : t -> unit
(** {!flush}, then close the journal handle. *)
