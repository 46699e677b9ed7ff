(* Clock, sample statistics and process memory.

   Every duration in the benchmark is a difference of two
   [Util.Timing.mono_ms] readings (CLOCK_MONOTONIC); nothing reads the
   wall clock. Quantiles interpolate linearly between order
   statistics, so a median of two samples is their mean. *)

let now_ms = Util.Timing.mono_ms

let time f =
  let t0 = now_ms () in
  let r = f () in
  (r, now_ms () -. t0)

let sum xs = List.fold_left ( +. ) 0.0 xs

let mean = function
  | [] -> 0.0
  | xs -> sum xs /. float_of_int (List.length xs)

let quantile p xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  match Array.length a with
  | 0 -> 0.0
  | n ->
      let pos = p *. float_of_int (n - 1) in
      let i = int_of_float pos in
      if i + 1 >= n then a.(n - 1)
      else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile 0.5 xs

(* VmHWM (peak resident set) of a process, from /proc — "self" or a
   child's pid. *)
let peak_rss_mb proc =
  let path = Printf.sprintf "/proc/%s/status" proc in
  match open_in path with
  | exception Sys_error _ -> 0.0
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0.0
        | line -> (
            match Scanf.sscanf line "VmHWM: %d kB" Fun.id with
            | kb -> float_of_int kb /. 1024.0
            | exception (Scanf.Scan_failure _ | End_of_file | Failure _) ->
                scan ())
      in
      Fun.protect ~finally:(fun () -> close_in_noerr ic) scan

(* Cumulative Obs readings, for before/after deltas around a phase. *)
let counter name =
  match Obs.find name with Some (Obs.Counter n) -> float_of_int n | _ -> 0.0

let histogram_sum name =
  match Obs.find name with
  | Some (Obs.Histogram { sum; _ }) -> sum
  | _ -> 0.0

(* The engines' work counters a traced run reports, by metric name. *)
let layer_counters =
  [
    ("rules.form1_steps", "instantiation_form1_steps_total");
    ("rules.steps_deferred", "instantiation_steps_deferred_total");
    ("rules.steps_materialized", "instantiation_steps_materialized_total");
    ("rules.master_rows_visited", "instantiation_master_rows_visited_total");
    ("core.chase_steps_fired", "chase_steps_fired_total");
    ("core.pred_decrements", "chase_pred_decrements_total");
    ("topk.frontier_pops", "topk_frontier_pops_total");
    ("topk.checks", "topk_checks_total");
  ]

let read_counters () = List.map (fun (m, c) -> (m, counter c)) layer_counters

(* Growth of every layer counter since an earlier [read_counters]. *)
let counters_since before =
  List.map2 (fun (m, a) (_, b) -> (m, b -. a)) before (read_counters ())
