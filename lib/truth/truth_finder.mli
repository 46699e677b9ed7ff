(** A TruthFinder-style iterative truth-discovery baseline (Yin, Han
    & Yu, TKDE 2008 — reference [29] of the paper).

    Beyond the paper's Table 4 line-up — included because §7 cites
    the vote-counting/probabilistic family [4, 19, 28–30] as the
    prior approaches the AR-based method is complementary to, and
    because it gives the test suite a second independent
    probabilistic baseline to cross-check {!Copy_cef} against
    (no copy detection, so copier-amplified errors hurt it more).

    Model (simplified TruthFinder):
    - source trustworthiness [t(s)] starts at a prior;
    - a claim's confidence grows with the trust of the sources
      asserting it: [σ(v) = 1 - Π_{s claims v} (1 - t(s))]
      (computed in log space);
    - a source's trust is the average confidence of its claims;
    - iterate until the trust vector moves less than [epsilon].

    Only each source's latest claim per object participates (the
    dynamic-world reduction, as in {!Copy_cef}). *)

type config = {
  iterations : int;  (** cap (default 20) *)
  prior_trust : float;  (** initial t(s) (default 0.8) *)
  dampening : float;  (** claim-confidence dampening (default 0.3) *)
  epsilon : float;  (** convergence threshold (default 1e-4) *)
}

val default_config : config

type result

val run :
  ?config:config -> num_sources:int -> Copy_cef.claim list -> result
(** Shares {!Copy_cef.claim} as the input format. *)

val truth : result -> object_id:int -> attr:int -> Relational.Value.t option
(** The highest-confidence value, spelled as its first claim; a tie
    goes to the least by {!Relational.Value.compare}. *)

val confidence : result -> object_id:int -> attr:int -> Relational.Value.t -> float
(** The confidence of the claims {!Relational.Value.equal} to a value
    (0 if never claimed). *)

val source_trust : result -> int -> float
val rounds_used : result -> int
