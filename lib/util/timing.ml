(* CLOCK_MONOTONIC through bechamel's stub (already a dependency);
   int64 nanoseconds since an arbitrary origin. Every duration in the
   system — bench kernels, Budget deadlines, the service's queue-wait
   accounting, Obs spans — is measured against this one clock, which
   an NTP step never moves. *)
let mono_ms () = Int64.to_float (Monotonic_clock.now ()) /. 1.0e6

let time_ms f =
  let start = mono_ms () in
  let result = f () in
  (result, mono_ms () -. start)

let best_of n f =
  assert (n >= 1);
  let rec go i best result =
    if i = n then (result, best)
    else
      let r, t = time_ms f in
      go (i + 1) (min best t) r
  in
  let r0, t0 = time_ms f in
  go 1 t0 r0
