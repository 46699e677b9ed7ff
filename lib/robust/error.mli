(** The one structured error type of the execution layer.

    Every recoverable failure mode of the engine — unreadable input,
    malformed CSV, bad rule text, an invalid rule set, a
    non-Church-Rosser order conflict, a tripped execution budget —
    is a variant here, carrying enough context (file, row, line,
    rule name) to report *where* things went wrong. [Result]-typed
    APIs across the library return this type; the CLI maps each
    class to a distinct exit code. *)

type trip =
  | Steps  (** the chase-step budget ran out *)
  | Deadline  (** the wall-clock deadline passed *)
  | Combos
      (** the rank-join search generated as many join combinations
          as its cap ({!Topk.solve}'s [max_pops]) allows *)

type t =
  | Io of { path : string; detail : string }
  | Csv_shape of { file : string option; row : int option; detail : string }
      (** [row] is 1-based and counts the header *)
  | Rule_parse of { file : string option; line : int option; detail : string }
  | Rule_invalid of { rule : string option; detail : string }
  | Spec_invalid of { detail : string }
  | Order_conflict of { rule : string; detail : string }
      (** anti-symmetry violation: the specification is not
          Church-Rosser on this input *)
  | Budget_exhausted of { trip : trip; spent : int; detail : string }
  | Overloaded of { depth : int; detail : string }
      (** load shedding: the service's admission queue was full (or
          the request's deadline expired while it waited); [depth]
          is the queue depth at rejection. Retryable. *)
  | Circuit_open of { spec : string; retry_ms : float; detail : string }
      (** the per-spec circuit breaker is open: recent requests
          against [spec] failed consecutively, so the service
          fast-fails instead of burning budget on it. [retry_ms] is
          the cooldown remaining before a probe is admitted. *)
  | Internal of { detail : string }
      (** an unexpected exception, quarantined rather than propagated *)

exception Error of t
(** Carrier for the few remaining exception-style entry points
    (registered with [Printexc] for readable traces). *)

(** {2 Constructors} *)

val io : path:string -> string -> t
val csv_shape : ?file:string -> ?row:int -> string -> t
val rule_parse : ?file:string -> ?line:int -> string -> t
val rule_invalid : ?rule:string -> string -> t
val spec_invalid : string -> t
val order_conflict : rule:string -> string -> t
val budget_exhausted : trip:trip -> spent:int -> string -> t
val overloaded : depth:int -> string -> t
val circuit_open : spec:string -> retry_ms:float -> string -> t
val internal : string -> t

(** {2 Reporting} *)

val trip_to_string : trip -> string
val class_name : t -> string

val exit_code : t -> int
(** Distinct per class: order-conflict 2, io 3, csv-shape 4,
    rule-parse 5, rule-invalid 6, spec-invalid 7,
    budget-exhausted 8, internal 10, overloaded 11,
    circuit-open 12. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

val raise_error : t -> 'a
(** [raise_error e] raises {!Error}. *)

val guard_io : path:string -> (unit -> 'a) -> ('a, t) result
(** Run a file-reading thunk, converting [Sys_error] /
    [End_of_file] into {!Io}. *)

val of_exn : exn -> t
(** Quarantine an arbitrary exception ({!Error} unwraps; anything
    else becomes {!Internal}). *)
