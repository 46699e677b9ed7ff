(** Experiment registry: maps the ids used in DESIGN.md /
    EXPERIMENTS.md (fig6a .. fig7b, tbl4, exp5cfp) to their drivers.
    The bench harness and the CLI both dispatch through here.

    [`Quick] shrinks the workloads for fast runs (CI-sized);
    [`Full] uses the paper's sizes where feasible. *)

type scale = [ `Quick | `Full ]

val ids : string list
(** All experiment ids, in presentation order. *)

val describe : string -> string option

val run : ?scale:scale -> string -> Report.t option
(** [None] for an unknown id. Default scale [`Quick]. *)
