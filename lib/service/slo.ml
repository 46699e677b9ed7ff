type status =
  [ `Ok | `Degraded | `Error of string | `Dropped | `Malformed ]

type cls_acc = {
  mutable lats : float list;  (* reverse arrival order; sorted at report *)
  mutable ok : int;
  mutable degraded : int;
  mutable dropped : int;
  mutable bad : int;
  errs : (string, int) Hashtbl.t;
}

type t = { mu : Mutex.t; classes : (string, cls_acc) Hashtbl.t }

let create () = { mu = Mutex.create (); classes = Hashtbl.create 8 }

let acc_for t cls =
  match Hashtbl.find_opt t.classes cls with
  | Some a -> a
  | None ->
      let a =
        {
          lats = [];
          ok = 0;
          degraded = 0;
          dropped = 0;
          bad = 0;
          errs = Hashtbl.create 8;
        }
      in
      Hashtbl.add t.classes cls a;
      a

let record t ~cls ~status ~latency_ms =
  Mutex.protect t.mu @@ fun () ->
  let a = acc_for t cls in
  (match status with
  | `Dropped -> ()
  | _ -> a.lats <- latency_ms :: a.lats);
  match status with
  | `Ok -> a.ok <- a.ok + 1
  | `Degraded -> a.degraded <- a.degraded + 1
  | `Dropped -> a.dropped <- a.dropped + 1
  | `Malformed -> a.bad <- a.bad + 1
  | `Error cls ->
      Hashtbl.replace a.errs cls
        (1 + Option.value ~default:0 (Hashtbl.find_opt a.errs cls))

let fold t f init =
  Mutex.protect t.mu @@ fun () ->
  Hashtbl.fold f t.classes init

let n_of a =
  a.ok + a.degraded + a.dropped + a.bad
  + Hashtbl.fold (fun _ n acc -> n + acc) a.errs 0

let total t = fold t (fun _ a acc -> acc + n_of a) 0
let malformed t = fold t (fun _ a acc -> acc + a.bad) 0

let errors t ~cls =
  Mutex.protect t.mu @@ fun () ->
  match Hashtbl.find_opt t.classes cls with
  | None -> []
  | Some a ->
      List.sort compare (Hashtbl.fold (fun k n acc -> (k, n) :: acc) a.errs [])

let ok_degraded t =
  fold t (fun _ a (ok, d) -> (ok + a.ok, d + a.degraded)) (0, 0)

let error_total t ~cls =
  fold t
    (fun _ a acc -> acc + Option.value ~default:0 (Hashtbl.find_opt a.errs cls))
    0

let quantiles lats =
  let xs = Array.of_list lats in
  if Array.length xs = 0 then None
  else
    Some
      ( Util.Stats.median xs,
        Util.Stats.percentile xs 95.0,
        Util.Stats.percentile xs 99.0,
        Util.Stats.maximum xs )

let overall_latency t = quantiles (fold t (fun _ a acc -> List.rev_append a.lats acc) [])

let cls_json a =
  let latency =
    match quantiles a.lats with
    | None -> Json.Null
    | Some (med, p95, p99, mx) ->
        Json.Obj
          [
            ("median", Json.Num med);
            ("p95", Json.Num p95);
            ("p99", Json.Num p99);
            ("max", Json.Num mx);
          ]
  in
  let errs =
    List.sort compare (Hashtbl.fold (fun k n acc -> (k, Json.int n) :: acc) a.errs [])
  in
  Json.Obj
    [
      ("n", Json.int (n_of a));
      ("ok", Json.int a.ok);
      ("degraded", Json.int a.degraded);
      ("dropped", Json.int a.dropped);
      ("malformed", Json.int a.bad);
      ("errors", Json.Obj errs);
      ("latency_ms", latency);
    ]

let to_json t ~duration_s =
  let classes =
    List.sort compare (fold t (fun cls a acc -> (cls, cls_json a) :: acc) [])
  in
  let total = total t in
  let throughput =
    if duration_s > 0.0 then float_of_int total /. duration_s else 0.0
  in
  Json.Obj
    [
      ("duration_s", Json.Num duration_s);
      ("total", Json.int total);
      ("throughput_rps", Json.Num throughput);
      ("malformed", Json.int (malformed t));
      ("classes", Json.Obj classes);
    ]

let pp ~duration_s ppf t =
  let total = total t in
  Format.fprintf ppf "@[<v>%d requests in %.1f s (%.1f rps)" total duration_s
    (if duration_s > 0.0 then float_of_int total /. duration_s else 0.0);
  List.iter
    (fun (cls, a) ->
      Format.fprintf ppf
        "@,%-6s n=%-5d ok=%-5d degraded=%-4d dropped=%-4d malformed=%d" cls
        (n_of a) a.ok a.degraded a.dropped a.bad;
      (match quantiles a.lats with
      | Some (med, p95, p99, mx) ->
          Format.fprintf ppf
            "@,        latency ms: median=%.2f p95=%.2f p99=%.2f max=%.2f" med
            p95 p99 mx
      | None -> ());
      List.iter
        (fun (k, n) -> Format.fprintf ppf "@,        %s=%d" k n)
        (List.sort compare
           (Hashtbl.fold (fun k n acc -> (k, n) :: acc) a.errs [])))
    (List.sort compare (fold t (fun cls a acc -> (cls, a) :: acc) []));
  Format.fprintf ppf "@]"
