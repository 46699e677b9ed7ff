(** String similarity measures used by the entity-resolution substrate
    and the dataset generators (typo injection verification). *)

val levenshtein : string -> string -> int
(** Edit distance with unit costs: [levenshtein_bounded] with the cap
    at the longer length. *)

val levenshtein_bounded : int -> string -> string -> int
(** [levenshtein_bounded cap a b] is the edit distance when it is at
    most [cap], else [cap + 1]; it fills only the diagonal band of
    width [2 cap + 1] and stops at the first row whose band exceeds
    [cap], so a rejection costs O(cap * min-length). Raises
    [Invalid_argument] on a negative [cap]. *)

val levenshtein_similarity : string -> string -> float
(** [1 - distance / max-length], in [\[0, 1\]]; [1.] for two empty
    strings. *)

val jaccard_tokens : string -> string -> float
(** Jaccard similarity of whitespace-separated token sets. *)

val ngrams : int -> string -> string list
(** [ngrams n s] lists the character n-grams of [s] (with [n-1]
    padding characters ['#'] on each side), in order. *)

val trigram_similarity : string -> string -> float
(** Jaccard similarity of character trigram sets. *)

val normalize : string -> string
(** Lowercase and collapse runs of non-alphanumeric characters into
    single spaces; trims. Used as a canonical form before matching. *)

val soundex : string -> string
(** American Soundex code (4 characters) of the first word, or [""]
    for inputs with no ASCII letter. Used for cheap blocking keys. *)
