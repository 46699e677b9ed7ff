(** Entity resolution: building the entity instances [Ie] that §2.1
    presupposes ("such an Ie is identified by entity resolution
    techniques") from a raw, dirty relation.

    Standard three-stage pipeline:
    + {e blocking} — group tuples by cheap keys (normalized value or
      Soundex of chosen attributes) so that only same-block pairs
      are compared;
    + {e matching} — weighted string/value similarity over the
      configured attributes, with null-tolerant semantics (a null on
      either side contributes the configured neutral score);
    + {e clustering} — union-find over pairs above the match
      threshold (transitive closure of the match relation).

    The output clusters become the per-entity relations fed to the
    chase. *)

type config = {
  key_attrs : int list;
      (** blocking keys: tuples sharing {e any} key value collide *)
  use_soundex : bool;  (** Soundex-code string keys (fuzzier blocks) *)
  compare_attrs : (int * float) list;
      (** (attribute, weight) pairs for similarity scoring *)
  null_score : float;  (** per-attribute score when either side is null *)
  threshold : float;  (** pairs scoring >= this are merged *)
}

val default_config : key_attrs:int list -> compare_attrs:(int * float) list -> config
(** [use_soundex = false], [null_score = 0.5], [threshold = 0.75]. *)

val similarity : config -> Relational.Tuple.t -> Relational.Tuple.t -> float
(** Weighted average of per-attribute similarities: exact
    {!Relational.Value.equal} scores 1; strings are compared with
    Levenshtein similarity; other mismatches score 0. *)

type prepared
(** A tuple as clustering reads it, built once: per compare attribute
    its normalized string with a character histogram (or its
    non-string value, or null), and its blocking keys. *)

val prepare : config -> Relational.Tuple.t -> prepared
(** Partially applied to a config, it reads the config once for many
    tuples. *)

val tuple_block_keys : prepared -> (int * string) list
(** The [(attribute, key)] blocking keys of one tuple, in [key_attrs]
    order (a repeated attribute counts once; attributes whose value
    yields no key — null or empty after normalization — are omitted).
    A key is the normalized value, or with [use_soundex] the Soundex
    code of a string, falling back to the normalized string when it
    has no letter (so digit-only values such as numeric registration
    numbers keep distinct keys instead of sharing an empty code).
    Two tuples can only be compared by {!cluster} if they share at
    least one such pair; incremental maintenance uses this to find
    the candidate neighbours of an added tuple without re-blocking
    the relation. *)

val share_block : prepared -> prepared -> bool
(** Whether the two tuples share a blocking key. *)

val matches : config -> prepared -> prepared -> bool
(** [similarity config t1 t2 >= config.threshold], bit for bit, on the
    prepared forms of [t1] and [t2] — mostly without computing the
    similarity: upper bounds from lengths and character histograms
    reject most pairs, and a Levenshtein DP capped at the largest
    distance that could still pass settles the rest. *)

val blocks : config -> Relational.Relation.t -> int list list
(** Candidate groups of tuple indices (singletons omitted). A tuple
    can appear in several blocks. *)

val cluster : config -> Relational.Relation.t -> int list list
(** Entity clusters as tuple-index groups (every tuple appears in
    exactly one), each ascending, in first-tuple order: the connected
    components of the graph linking two tuples that share a block and
    {!matches}. The result is a pure function of this {e match
    partition}, so any process that maintains that partition (batch
    or incremental) reproduces the same clustering. Each tuple is
    prepared once; tuples with equal prepared forms decide every pair
    alike, so pairs are decided per pair of distinct forms, each at
    most once (a pair sharing several keys is decided in the block of
    the first). The pruning work is counted in the [er_pairs_*] and
    [er_dp_*] counters. *)

val cluster_prepared : config -> prepared array -> int list list
(** {!cluster} over rows already prepared with [prepare config], row
    [i] at index [i]: a caller that keeps prepared rows (the
    incremental session) clusters without preparing them again. *)

val entity_instances :
  config -> Relational.Relation.t -> Relational.Relation.t list
(** Clusters materialized as relations (tuples renumbered). *)

type quality = { pair_precision : float; pair_recall : float; pair_f1 : float }

val pairwise_quality :
  truth:(int -> int) -> int list list -> int -> quality
(** Evaluate clusters against a ground-truth entity labelling
    [truth : tuple index -> entity id] by pairwise P/R/F1 over the
    [n] tuples' same-entity pairs. *)
