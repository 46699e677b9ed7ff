module Spec = Core.Specification

let m_hits = Obs.Counter.make ~help:"compile cache hits" "compile_cache_hits_total"
let m_misses = Obs.Counter.make ~help:"compile cache misses" "compile_cache_misses_total"

(* Unconditional twins of the Obs counters: the service reports them
   even when metrics collection is off. *)
type stats = { hits : int; misses : int }

let n_hits = Atomic.make 0
let n_misses = Atomic.make 0

(* Keyed by physical identity, hashed on the specification's stamp.
   The ephemeron keeps an artifact only while its specification is
   reachable from elsewhere: the artifact's own reference back to the
   specification does not hold it. *)
module Tbl = Ephemeron.K1.Make (struct
  type t = Spec.t

  let equal = ( == )
  let hash = Spec.stamp
end)

(* Shared across all threads and worker domains: reads and writes go
   through the mutex; the (idempotent) compile itself runs outside
   it, so a racing duplicate compile costs time, never correctness. *)
let lock = Mutex.create ()
let table : Core.Is_cr.compiled Tbl.t = Tbl.create 16

let compile spec =
  match Mutex.protect lock (fun () -> Tbl.find_opt table spec) with
  | Some c ->
      Obs.Counter.incr m_hits;
      Atomic.incr n_hits;
      c
  | None ->
      Obs.Counter.incr m_misses;
      Atomic.incr n_misses;
      let c = Core.Is_cr.compile spec in
      Mutex.protect lock (fun () -> Tbl.replace table spec c);
      c

let clear () = Mutex.protect lock (fun () -> Tbl.reset table)

let size () =
  Mutex.protect lock (fun () ->
      Tbl.clean table;
      Tbl.length table)

let stats () = { hits = Atomic.get n_hits; misses = Atomic.get n_misses }
