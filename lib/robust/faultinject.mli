(** Deterministic fault injection, driven by {!Util.Prng}.

    The harness corrupts the three inputs the engine consumes — CSV
    rows, rule text, and ground chase steps — at configurable rates,
    so tests can assert the system {e degrades} (typed errors,
    quarantined entities, partial results) instead of dying. Same
    seed, same input ⇒ same faults, so every degradation scenario is
    replayable. All rates default to 0 in {!none}. *)

type config = {
  cell_rate : float;  (** per data cell: scramble the text *)
  ragged_rate : float;  (** per data row: drop the last field *)
  unterminated_rate : float;  (** per CSV text: open an unclosed quote *)
  rule_token_rate : float;  (** per rule text: break the syntax *)
  step_drop_rate : float;  (** per ground chase step: drop it *)
  payload_rate : float;  (** per service request line: scramble a byte *)
  latency_rate : float;  (** per service request: inject extra latency *)
  latency_ms : float;  (** the latency injected when the draw fires *)
  drop_rate : float;  (** per service request: drop it silently *)
}

val none : config

val corrupt_cell : Util.Prng.t -> string -> string
(** Unconditionally scramble one cell (always changes the string,
    and makes numeric cells non-numeric). *)

val corrupt_row : Util.Prng.t -> config -> string list -> string list
val corrupt_rows : Util.Prng.t -> config -> string list list -> string list list
(** Header row (first) is left intact; data rows are corrupted per
    [ragged_rate] then [cell_rate]. *)

val corrupt_csv_text : Util.Prng.t -> config -> string -> string
val corrupt_rule_text : Util.Prng.t -> config -> string -> string

val keep_step : Util.Prng.t -> config -> bool
(** One Bernoulli draw at [step_drop_rate]: [false] to drop. *)

val drop_steps : Util.Prng.t -> config -> 'a list -> 'a list
(** Filter a ground-step list through {!keep_step} — plugs into the
    [~prepare] seam of the test suite's reference chase
    ([test/oracle/chase.mli]). *)

(** {2 Service-boundary faults} (the chaos/soak driver) *)

val corrupt_payload : Util.Prng.t -> config -> string -> string
(** One Bernoulli draw at [payload_rate]: scramble a byte of the
    serialized request line (always changes the string when it
    fires). *)

val inject_latency_ms : Util.Prng.t -> config -> float
(** [latency_ms] when the [latency_rate] draw fires, else [0.]. *)

val drop_request : Util.Prng.t -> config -> bool
(** One Bernoulli draw at [drop_rate]: [true] to drop the request
    before it is sent. *)
