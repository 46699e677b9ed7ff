type limits = {
  max_steps : int option;
  deadline_ms : float option;
}

let unlimited = { max_steps = None; deadline_ms = None }

let limits ?max_steps ?deadline_ms () =
  (match max_steps with
  | Some n when n < 0 -> invalid_arg "Budget.limits: negative max_steps"
  | _ -> ());
  (match deadline_ms with
  | Some d when d < 0.0 -> invalid_arg "Budget.limits: negative deadline_ms"
  | _ -> ());
  { max_steps; deadline_ms }

let is_unlimited l = l.max_steps = None && l.deadline_ms = None

let relax ?(factor = 4) l =
  {
    max_steps =
      Option.map (fun n -> if n > max_int / factor then max_int else n * factor) l.max_steps;
    deadline_ms = Option.map (fun d -> d *. float_of_int factor) l.deadline_ms;
  }

type t = {
  lim : limits;
  clock : unit -> float;
  started_ms : float;
  mutable steps : int;
  mutable trip : Error.trip option;
}

(* Deadlines are armed against the monotonic clock, not the wall
   clock: a long-lived service meters requests for hours, and an NTP
   step of the wall clock must neither spuriously trip a deadline
   nor silently extend one. [?clock] is the test seam for simulating
   clock behaviour; production callers never pass it. *)
let start ?(clock = Util.Timing.mono_ms) lim =
  {
    lim;
    clock;
    started_ms = clock ();
    steps = 0;
    trip = None;
  }

let steps_used t = t.steps
let tripped t = t.trip
let limits_of t = t.lim
let elapsed_ms t = t.clock () -. t.started_ms

(* The deadline is only consulted when set, so unbudgeted runs never
   touch the clock. *)
let check t =
  match t.trip with
  | Some _ as trip -> trip
  | None -> (
      match t.lim.deadline_ms with
      | Some d when elapsed_ms t > d ->
          t.trip <- Some Error.Deadline;
          t.trip
      | _ -> None)

let step t =
  match t.trip with
  | Some _ as trip -> trip
  | None -> (
      t.steps <- t.steps + 1;
      match t.lim.max_steps with
      | Some cap when t.steps > cap ->
          t.trip <- Some Error.Steps;
          t.trip
      | _ -> check t)

let to_error ?(detail = "partial result returned") t =
  let trip = match t.trip with Some tr -> tr | None -> Error.Steps in
  Error.budget_exhausted ~trip ~spent:t.steps detail
