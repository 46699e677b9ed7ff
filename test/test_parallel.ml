(* Tests for the Parallel.Pool domain worker pool: ordering,
   determinism, fault isolation — and the tentpole guarantee that
   Cleaner.clean ~jobs:n produces a report identical to the serial
   run, on a batch with injected faults. *)

module Value = Relational.Value
module Relation = Relational.Relation
module Pool = Parallel.Pool
module Error = Robust.Error

let check = Alcotest.check
let failf = Alcotest.failf

(* ------------------------------------------------------------------ *)
(* Pool unit tests                                                    *)
(* ------------------------------------------------------------------ *)

let test_create_validation () =
  (match Pool.create ~jobs:(-3) () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative jobs must be rejected");
  check Alcotest.int "explicit size" 4 (Pool.jobs (Pool.create ~jobs:4 ()));
  check Alcotest.bool "default size positive" true
    (Pool.jobs (Pool.create ()) >= 1);
  (* 0 = auto: same resolution as the default. *)
  check Alcotest.int "jobs 0 is auto"
    (Domain.recommended_domain_count ())
    (Pool.jobs (Pool.create ~jobs:0 ()));
  (* Creation publishes the effective-domain gauge. *)
  let was = Obs.enabled () in
  Obs.set_enabled true;
  ignore (Pool.create ~jobs:1024 () : Pool.t);
  let eff =
    match Obs.find "parallel_domains_effective" with
    | Some (Obs.Gauge g) -> g
    | _ -> Alcotest.fail "parallel_domains_effective gauge not registered"
  in
  Obs.set_enabled was;
  check Alcotest.int "gauge reports host capacity, not the request"
    (min 1024 (Domain.recommended_domain_count ()))
    (int_of_float eff)

let test_map_preserves_order () =
  let items = Array.init 1_000 Fun.id in
  List.iter
    (fun jobs ->
      let pool = Pool.create ~jobs () in
      let out = Pool.map pool (fun x -> x * x) items in
      Array.iteri
        (fun i y ->
          if y <> i * i then
            failf "jobs=%d: slot %d holds %d, expected %d" jobs i y (i * i))
        out)
    [ 1; 2; 3; 4; 7 ]

let test_map_handles_extremes () =
  let pool = Pool.create ~jobs:4 () in
  check Alcotest.int "empty input" 0 (Array.length (Pool.map pool succ [||]));
  (* fewer items than workers *)
  check (Alcotest.array Alcotest.int) "two items on four workers" [| 1; 2 |]
    (Pool.map pool succ [| 0; 1 |])

let test_map_result_isolates_faults () =
  let pool = Pool.create ~jobs:4 () in
  let items = Array.init 100 Fun.id in
  let out =
    Pool.map_result pool
      (fun x -> if x mod 7 = 0 then failwith (string_of_int x) else x + 1)
      items
  in
  Array.iteri
    (fun i r ->
      match r with
      | Ok y when i mod 7 <> 0 && y = i + 1 -> ()
      | Error (Failure m) when i mod 7 = 0 && m = string_of_int i -> ()
      | Ok y -> failf "slot %d: unexpected Ok %d" i y
      | Error e -> failf "slot %d: unexpected %s" i (Printexc.to_string e))
    out

let test_map_reraises_first_error () =
  let pool = Pool.create ~jobs:4 () in
  let items = Array.init 100 Fun.id in
  (* Errors at 90, 40, 70 — map must re-raise the one at the lowest
     input index, independent of which domain hit one first. *)
  match
    Pool.map pool
      (fun x ->
        if x = 90 || x = 40 || x = 70 then failwith (string_of_int x) else x)
      items
  with
  | exception Failure m -> check Alcotest.string "lowest index wins" "40" m
  | _ -> Alcotest.fail "map must re-raise"

let test_map_deterministic_under_skew () =
  (* A wildly skewed workload exercises stealing: the first shard
     holds almost all the work. The result must not care. *)
  let items = Array.init 64 (fun i -> if i < 8 then 200_000 else 10) in
  let burn n =
    let acc = ref 0 in
    for i = 1 to n do
      acc := (!acc * 31) + i
    done;
    !acc
  in
  let serial = Pool.map (Pool.create ~jobs:1 ()) burn items in
  List.iter
    (fun jobs ->
      let par = Pool.map (Pool.create ~jobs ()) burn items in
      check (Alcotest.array Alcotest.int)
        (Printf.sprintf "jobs=%d equals serial" jobs)
        serial par)
    [ 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Cleaner: jobs:n ≡ jobs:1 on a fault-injected batch                 *)
(* ------------------------------------------------------------------ *)

(* Same batch construction as test_robust: a Med dataset flattened
   into one dirty relation with known entity clusters. *)
let med_batch ~entities ~seed =
  let ds = Datagen.Med_gen.dataset ~entities ~seed () in
  let flat =
    Relation.make ds.schema
      (List.concat_map
         (fun (e : Datagen.Entity_gen.entity) -> Relation.tuples e.instance)
         ds.entities)
  in
  let clusters, _ =
    List.fold_left
      (fun (acc, offset) (e : Datagen.Entity_gen.entity) ->
        let n = Relation.size e.instance in
        (List.init n (fun i -> offset + i) :: acc, offset + n))
      ([], 0) ds.entities
  in
  (ds, flat, List.rev clusters)

let outcome_to_string = function
  | Framework.Cleaner.Complete -> "complete"
  | Framework.Cleaner.Completed_by_topk -> "topk"
  | Framework.Cleaner.Still_incomplete -> "incomplete"
  | Framework.Cleaner.Not_church_rosser rule -> "non-cr:" ^ rule
  | Framework.Cleaner.Quarantined err -> "quarantined:" ^ Error.to_string err

(* Every report field, rendered — byte-identical reports have
   byte-identical renderings and vice versa. *)
let report_fingerprint (r : Framework.Cleaner.report) =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf "entities=%d complete=%d topk=%d incomplete=%d rejected=%d quarantined=%d retries=%d changes=%d\n"
       r.entities r.complete r.completed_by_topk r.still_incomplete r.rejected
       r.quarantined r.retries_used r.cell_changes);
  List.iter
    (fun (idx, o) ->
      Buffer.add_string buf (Printf.sprintf "%d:%s\n" idx (outcome_to_string o)))
    r.outcomes;
  List.iter
    (fun (idx, e) ->
      Buffer.add_string buf (Printf.sprintf "err %d:%s\n" idx (Error.to_string e)))
    r.errors;
  for i = 0 to Relation.size r.cleaned - 1 do
    Array.iter
      (fun v ->
        Buffer.add_string buf (Value.to_string v);
        Buffer.add_char buf '|')
      (Relational.Tuple.values (Relation.tuple r.cleaned i));
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf

let test_cleaner_parallel_equals_serial () =
  (* A 60-entity batch with injected faults: 6 poisoned clusters
     (referencing rows that do not exist) and a tight-but-relaxable
     budget so the retry machinery runs too. The jobs:4 report must
     equal the jobs:1 report bit for bit. *)
  let entities = 60 in
  let ds, flat, clusters = med_batch ~entities ~seed:9001 in
  let g = Util.Prng.create 424242 in
  let poisoned = Hashtbl.create 8 in
  while Hashtbl.length poisoned < 6 do
    Hashtbl.replace poisoned (Util.Prng.int g entities) ()
  done;
  let clusters =
    List.mapi
      (fun i members ->
        if Hashtbl.mem poisoned i then (Relation.size flat + 1_000 + i) :: members
        else members)
      clusters
  in
  let run jobs =
    Framework.Cleaner.clean ~clusters ~master:ds.master
      ~budget:(Robust.Budget.limits ~max_steps:64 ())
      ~retries:8 ~jobs ds.ruleset flat
  in
  let serial = run 1 in
  (* sanity: the batch actually exercises the interesting paths *)
  check Alcotest.int "faults quarantined" 6
    serial.Framework.Cleaner.quarantined;
  check Alcotest.bool "retries exercised" true
    (serial.Framework.Cleaner.retries_used > 0);
  check Alcotest.int "one row per entity" entities
    (Relation.size serial.Framework.Cleaner.cleaned);
  let want = report_fingerprint serial in
  List.iter
    (fun jobs ->
      check Alcotest.string
        (Printf.sprintf "jobs=%d report equals serial" jobs)
        want
        (report_fingerprint (run jobs)))
    [ 2; 4 ];
  (* jobs = 0 resolves to the host's recommended count and must
     still equal the serial report. *)
  check Alcotest.string "jobs=0 (auto) report equals serial" want
    (report_fingerprint (run 0));
  match Framework.Cleaner.clean ~clusters ~jobs:(-1) ds.ruleset flat with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative jobs must be rejected"

(* ------------------------------------------------------------------ *)
(* One intern scope per master: reports never read an id's value      *)
(* ------------------------------------------------------------------ *)

(* Every specification over a master interns into that master's
   table, so the ids an entity's clean sees depend on what the scope
   met first. Half B of a random Med corpus, cleaned against a fresh
   copy of the master (a fresh scope), must print the same report as
   when half A has filled a shared master's scope first — serial and
   on two domains. Each run copies the master, so it also gets its
   own compile-cache keys and really re-grounds. *)
let scope_history_property =
  QCheck.Test.make ~count:6
    ~name:"report of half B independent of the scope's history (jobs 1, 2)"
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let ds = Datagen.Med_gen.dataset ~entities:8 ~seed () in
      let half_a, half_b =
        List.partition (fun (e : Datagen.Entity_gen.entity) -> e.id mod 2 = 0) ds.entities
      in
      let batch entities =
        let flat =
          Relation.make ds.schema
            (List.concat_map
               (fun (e : Datagen.Entity_gen.entity) -> Relation.tuples e.instance)
               entities)
        in
        let clusters, _ =
          List.fold_left
            (fun (acc, offset) (e : Datagen.Entity_gen.entity) ->
              let n = Relation.size e.instance in
              (List.init n (fun i -> offset + i) :: acc, offset + n))
            ([], 0) entities
        in
        (flat, List.rev clusters)
      in
      let fresh_master () =
        Relation.make (Relation.schema ds.master) (Relation.tuples ds.master)
      in
      let clean ~master ~jobs (flat, clusters) =
        Framework.Cleaner.clean ~clusters ~master ~jobs ds.ruleset flat
      in
      let print r =
        Format.asprintf "%a@." Framework.Cleaner.pp_report r ^ report_fingerprint r
      in
      let alone = print (clean ~master:(fresh_master ()) ~jobs:1 (batch half_b)) in
      let after_a jobs =
        let master = fresh_master () in
        ignore (clean ~master ~jobs (batch half_a) : Framework.Cleaner.report);
        print (clean ~master ~jobs (batch half_b))
      in
      String.equal alone (after_a 1) && String.equal alone (after_a 2))

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "create validation" `Quick test_create_validation;
          Alcotest.test_case "map preserves order" `Quick test_map_preserves_order;
          Alcotest.test_case "empty and tiny inputs" `Quick test_map_handles_extremes;
          Alcotest.test_case "faults isolated per item" `Quick
            test_map_result_isolates_faults;
          Alcotest.test_case "map re-raises first error" `Quick
            test_map_reraises_first_error;
          Alcotest.test_case "deterministic under skew" `Quick
            test_map_deterministic_under_skew;
        ] );
      ( "cleaner",
        [
          Alcotest.test_case "jobs:4 report equals jobs:1" `Slow
            test_cleaner_parallel_equals_serial;
          QCheck_alcotest.to_alcotest scope_history_property;
        ] );
    ]
