(* What a workload gets and what it returns. *)

type t = {
  seed : int;
  seconds : float;
  dir : string;  (** this run's scratch directory, removed at exit *)
  record_dir : string;  (** per-checkout digest records, kept *)
}

type outcome = {
  attempted : int;
  failed : int;
  metrics : (string * float) list;
}
