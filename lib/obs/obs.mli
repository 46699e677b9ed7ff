(** Observability: a process-wide metrics registry and lightweight
    trace spans, with text exporters.

    The registry holds three metric kinds — monotone {!Counter}s,
    {!Gauge}s (with a high-water-mark combinator) and {!Histogram}s
    over fixed bucket boundaries — keyed by name. Engines declare
    their metrics once at module initialisation and mutate them from
    hot loops; {!Span.with_} wraps a phase of work and records its
    wall time into a per-span histogram plus a bounded trace buffer.

    {b Cost discipline}: collection is {e off} by default. Every
    mutator checks one [bool ref] and returns — no allocation, no
    clock read, no hashing — so instrumented hot paths are a single
    predictable branch when disabled. [set_enabled true] (what the
    CLI's [--metrics]/[--trace] flags do) turns collection on.

    The library deliberately depends on nothing but the stdlib and a
    [CLOCK_MONOTONIC] reader (bechamel's stub — the clock
    [Util.Timing.mono_ms] and [Robust.Budget] deadlines use, so span
    durations never jump with a wall-clock step), so it can sit below
    every other layer of the system.

    {b Domain safety}: the registry is safe to mutate from any
    number of domains concurrently (the {!Parallel} worker pool
    does). Counters and histograms use atomic increments and are
    exact under contention; gauges converge to the true high-water
    mark through a compare-and-set loop; each domain records
    {!Span.with_} events into its own bounded buffer (no contention
    on the hot path), and {!Span.events} merges every domain's
    buffer in start order. {!reset} and {!set_enabled} are meant to
    be called from the orchestrating domain while no workers run. *)

val enabled : unit -> bool
val set_enabled : bool -> unit
(** Enabling does not reset previously collected values; call
    {!reset} for a clean slate. *)

module Counter : sig
  type t

  val make : ?help:string -> string -> t
  (** Registers (or retrieves) the counter named [name]. Repeated
      [make] with the same name returns the same counter; a name
      already registered as another metric kind raises
      [Invalid_argument]. *)

  val incr : t -> unit
  val add : t -> int -> unit
  (** Raises [Invalid_argument] on a negative increment — counters
      are monotone. *)

  val value : t -> int
end

module Gauge : sig
  type t

  val make : ?help:string -> string -> t
  val set : t -> float -> unit

  val observe_max : t -> float -> unit
  (** Keep the maximum of the current and observed value — the
      high-water-mark pattern (worklist length, heap depth). *)

  val add : t -> float -> unit
  (** Atomic signed delta — the live-level pattern (queue depth,
      in-flight requests): [add g 1.] on entry, [add g (-1.)] on
      exit, exact under contention. *)

  val value : t -> float
end

module Histogram : sig
  type t

  val default_ms_buckets : float array
  (** [0.01, 0.1, 1, 10, 100, 1000, 10000] — latency buckets in
      milliseconds, the default for span histograms. *)

  val make : ?help:string -> ?buckets:float array -> string -> t
  (** [buckets] are upper bounds, strictly increasing (defaults to
      {!default_ms_buckets}); an implicit +∞ bucket is always
      appended. Raises [Invalid_argument] on unsorted bounds or a
      kind/bounds mismatch with an existing registration. *)

  val observe : t -> float -> unit
  val count : t -> int
  val sum : t -> float

  val bucket_counts : t -> (float * int) list
  (** Cumulative counts per upper bound, Prometheus-style; the last
      entry's bound is [infinity] and its count equals {!count}. *)
end

(** {2 Registry-wide views} *)

type value =
  | Counter of int
  | Gauge of float
  | Histogram of { buckets : (float * int) list; sum : float; count : int }

val snapshot : unit -> (string * value) list
(** Every registered metric, sorted by name. *)

val find : string -> value option

val reset : unit -> unit
(** Zero every metric and clear the span trace. Registrations (and
    the enabled flag) survive. *)

module Span : sig
  type event = {
    name : string;
    depth : int;  (** nesting depth at entry; roots are 0 *)
    start_ms : float;  (** relative to process start *)
    dur_ms : float;
  }

  val with_ : name:string -> (unit -> 'a) -> 'a
  (** Run the thunk inside a named span. When collection is enabled,
      the span's wall time is observed into the histogram
      [span_<name>_ms] (name sanitised to \[a-z0-9_\]) and an
      {!event} is appended to the calling domain's bounded trace
      buffer (the oldest events are dropped past {!capacity}).
      Exceptions propagate; the span still closes. Disabled: calls
      the thunk directly. *)

  val capacity : int
  (** Per-domain buffer capacity. *)

  val events : unit -> event list
  (** Completed spans of {e every} domain, merged in start order
      (the per-domain stacks joined back together; nesting depth is
      per domain). *)

  val pp_tree : Format.formatter -> unit -> unit
  (** The trace as an indented tree with per-span durations. *)
end

module Export : sig
  val to_table : unit -> string
  (** Human-readable aligned table of the snapshot. *)

  val to_json_lines : unit -> string
  (** One JSON object per line:
      [{"type":"counter","name":...,"value":...}] etc.; histogram
      lines carry ["count"], ["sum"] and cumulative ["buckets"]
      pairs (the +∞ bound is rendered as the string ["inf"]). *)

  val to_prometheus : unit -> string
  (** Prometheus text exposition format ([# TYPE] comments,
      [_bucket{le="..."}] / [_sum] / [_count] series). *)
end
