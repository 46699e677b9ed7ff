(* The resilient service layer: JSON codec, admission control,
   circuit breaker, deadline propagation, graceful degradation,
   crash-safe checkpoints with warm restart, and a short in-process
   chaos soak auditing the response contract. *)

open Alcotest
module Json = Service.Json
module Admission = Service.Admission
module Breaker = Service.Breaker
module Checkpoint = Service.Checkpoint
module Protocol = Service.Protocol
module Server = Service.Server
module Driver = Service.Driver
module Slo = Service.Slo

(* ------------------------------------------------------------------ *)
(* JSON codec                                                         *)
(* ------------------------------------------------------------------ *)

let test_json_roundtrip () =
  let cases =
    [
      "null";
      "true";
      "42";
      "-1.5";
      "\"hi\"";
      "\"quo\\\"te\\n\\\\\"";
      "[]";
      "[1,2,[3]]";
      "{\"a\":1,\"b\":{\"c\":[true,null]}}";
    ]
  in
  List.iter
    (fun s ->
      match Json.parse s with
      | Error e -> failf "parse %s: %s" s e
      | Ok j -> (
          let printed = Json.to_string j in
          match Json.parse printed with
          | Error e -> failf "reparse %s: %s" printed e
          | Ok j2 ->
              check string ("stable " ^ s) printed (Json.to_string j2)))
    cases;
  (* member order is preserved: responses are byte-stable *)
  check string "order preserved" "{\"b\":1,\"a\":2}"
    (Json.to_string (Json.Obj [ ("b", Json.int 1); ("a", Json.int 2) ]))

let test_json_rejects_garbage () =
  List.iter
    (fun s ->
      match Json.parse s with
      | Ok _ -> failf "accepted garbage %S" s
      | Error e -> check bool "has detail" true (String.length e > 0))
    [ ""; "{"; "[1,"; "\"unterminated"; "{\"a\" 1}"; "nul"; "1 2"; "{1:2}" ]

let test_json_depth_limited () =
  (* Regression: the fault injector's corrupted payloads include
     unbounded "[[[[..." prefixes, which used to raise Stack_overflow
     through the result boundary and kill the reader thread. *)
  (match Json.parse (String.make 100_000 '[') with
  | Ok _ -> fail "accepted unterminated deep nesting"
  | Error e -> check bool "fails as data" true (String.length e > 0));
  let balanced d = String.make d '[' ^ "1" ^ String.make d ']' in
  (match Json.parse (balanced 1000) with
  | Ok _ -> fail "accepted 1000-deep nesting"
  | Error _ -> ());
  match Json.parse (balanced 64) with
  | Ok _ -> ()
  | Error e -> failf "rejected reasonable nesting: %s" e

let test_json_float_roundtrip () =
  (* Latencies, thresholds and journaled floats must survive a
     print/parse round-trip bit-exactly (the old %g kept only six
     significant digits). *)
  List.iter
    (fun f ->
      let s = Json.to_string (Json.Num f) in
      match Json.parse s with
      | Ok (Json.Num f') ->
          check bool (Printf.sprintf "%s round-trips" s) true (Float.equal f f')
      | _ -> failf "float printed unparseably: %s" s)
    [
      0.1;
      1.5;
      3.141592653589793;
      1234.5678901234567;
      1e-9;
      -2.2250738585072014e-308;
      123.456789012345678;
    ]

(* ------------------------------------------------------------------ *)
(* Admission control                                                  *)
(* ------------------------------------------------------------------ *)

let test_admission_sheds_when_full () =
  let q = Admission.create ~capacity:2 in
  check (result unit int) "1 admitted" (Ok ()) (Admission.admit q 1);
  check (result unit int) "2 admitted" (Ok ()) (Admission.admit q 2);
  check (result unit int) "3 shed at depth 2" (Error 2) (Admission.admit q 3);
  check int "depth" 2 (Admission.depth q);
  check (option int) "fifo" (Some 1) (Admission.take q);
  check (result unit int) "room again" (Ok ()) (Admission.admit q 4);
  Admission.close q;
  check (result unit int) "closed sheds" (Error 2) (Admission.admit q 5);
  (* a closed queue still drains *)
  check (option int) "drain 2" (Some 2) (Admission.take q);
  check (option int) "drain 4" (Some 4) (Admission.take q);
  check (option int) "drained" None (Admission.take q)

(* ------------------------------------------------------------------ *)
(* Circuit breaker (hand-driven clock)                                *)
(* ------------------------------------------------------------------ *)

let test_breaker_state_machine () =
  let b = Breaker.create ~threshold:3 ~cooldown_ms:100.0 in
  let proceed now =
    match Breaker.acquire b ~now_ms:now with
    | `Proceed | `Probe -> true
    | `Reject _ -> false
  in
  check bool "closed proceeds" true (proceed 0.0);
  Breaker.record b ~now_ms:0.0 ~ok:false;
  Breaker.record b ~now_ms:1.0 ~ok:false;
  check bool "still closed below threshold" true (proceed 2.0);
  Breaker.record b ~now_ms:2.0 ~ok:false;
  (* third consecutive failure trips it *)
  check bool "open fast-fails" false (proceed 3.0);
  (match Breaker.acquire b ~now_ms:50.0 with
  | `Reject retry_ms -> check (float 1e-6) "retry hint" 52.0 retry_ms
  | `Proceed | `Probe -> fail "must reject during cooldown");
  (* cooldown over: half-open admits one probe, rejects the rest *)
  check bool "probe admitted" true (proceed 103.0);
  check bool "second probe rejected" false (proceed 104.0);
  (* failed probe re-opens for a full cooldown *)
  Breaker.record b ~now_ms:105.0 ~ok:false;
  check bool "re-opened" false (proceed 150.0);
  check bool "probe after second cooldown" true (proceed 206.0);
  Breaker.record b ~now_ms:207.0 ~ok:true;
  check bool "success closes" true (proceed 208.0);
  check int "failure streak reset" 0 (Breaker.consecutive_failures b);
  (* a success anywhere resets the streak *)
  Breaker.record b ~now_ms:209.0 ~ok:false;
  Breaker.record b ~now_ms:210.0 ~ok:false;
  Breaker.record b ~now_ms:211.0 ~ok:true;
  Breaker.record b ~now_ms:212.0 ~ok:false;
  check bool "no trip without 3 consecutive" true (proceed 213.0)

let test_breaker_probe_abort_recovers () =
  (* Regression: a half-open probe that ended in a deterministic
     typed error (neither success nor Internal failure) used to
     leave the breaker wedged in Half_open, rejecting the spec
     forever. [abort] resolves the probe by re-opening briefly. *)
  let b = Breaker.create ~threshold:2 ~cooldown_ms:100.0 in
  Breaker.record b ~now_ms:0.0 ~ok:false;
  Breaker.record b ~now_ms:1.0 ~ok:false;
  check bool "tripped open" true (Breaker.state b = Breaker.Open);
  (match Breaker.acquire b ~now_ms:150.0 with
  | `Probe -> ()
  | `Proceed | `Reject _ -> fail "cooldown over: must admit the probe");
  (* the probe hit, say, a vanished rules file: no verdict on the fault *)
  Breaker.abort b ~now_ms:151.0;
  check bool "re-opened, not wedged half-open" true
    (Breaker.state b = Breaker.Open);
  (* a quarter cooldown later a new probe is admitted... *)
  (match Breaker.acquire b ~now_ms:180.0 with
  | `Probe -> ()
  | `Proceed | `Reject _ -> fail "short retry must admit a new probe");
  (* ...and its success restores service *)
  Breaker.record b ~now_ms:181.0 ~ok:true;
  (match Breaker.acquire b ~now_ms:182.0 with
  | `Proceed -> ()
  | `Probe | `Reject _ -> fail "closed after successful probe");
  Breaker.abort b ~now_ms:183.0;
  check bool "abort when closed is a no-op" true
    (Breaker.state b = Breaker.Closed)

(* ------------------------------------------------------------------ *)
(* Protocol                                                           *)
(* ------------------------------------------------------------------ *)

let test_protocol_requests () =
  (match Protocol.parse_request {|{"id":"a","task":"chase","entity":"e.csv","rules":"r.txt"}|} with
  | Ok { id = "a"; op = Run { task = Framework.Pipeline.Chase; master = None; _ } } -> ()
  | Ok _ -> fail "wrong shape"
  | Error e -> failf "rejected: %s" e);
  (match Protocol.parse_request {|{"id":"b","task":"topk","k":5,"algo":"rankjoin","entity":"e","rules":"r"}|} with
  | Ok { op = Run { task = Framework.Pipeline.Topk { k = 5; algo = `Rank_join }; _ }; _ } -> ()
  | Ok _ -> fail "wrong topk shape"
  | Error e -> failf "rejected: %s" e);
  (match Protocol.parse_request {|{"id":"c","task":"clean","key":["name"],"entity":"e","rules":"r"}|} with
  | Ok { op = Run { task = Framework.Pipeline.Clean { key_attrs = [ "name" ]; _ }; _ }; _ } -> ()
  | Ok _ -> fail "wrong clean shape"
  | Error e -> failf "rejected: %s" e);
  (match Protocol.parse_request {|{"id":"p","op":"ping"}|} with
  | Ok { op = Ping; _ } -> ()
  | _ -> fail "ping");
  List.iter
    (fun line ->
      match Protocol.parse_request line with
      | Ok _ -> failf "accepted %s" line
      | Error e -> check bool "detail" true (String.length e > 0))
    [
      "not json";
      {|{"task":"chase","entity":"e","rules":"r"}|} (* no id *);
      {|{"id":"x","task":"fly","entity":"e","rules":"r"}|};
      {|{"id":"x","task":"clean","entity":"e","rules":"r"}|} (* no key *);
      {|{"id":"x","op":"reboot"}|};
    ]

let test_protocol_classification () =
  check bool "ok" true (Protocol.classify_response {|{"id":"1","status":"ok"}|} = `Ok);
  check bool "degraded" true
    (Protocol.classify_response {|{"id":"1","status":"degraded"}|} = `Degraded);
  check bool "typed error" true
    (Protocol.classify_response {|{"id":"1","status":"error","class":"overloaded"}|}
    = `Error "overloaded");
  (match Protocol.classify_response {|{"id":"1","status":"error"}|} with
  | `Malformed _ -> ()
  | _ -> fail "error without class is a contract breach");
  match Protocol.classify_response "}{" with
  | `Malformed _ -> ()
  | _ -> fail "unparseable response is a contract breach"

(* ------------------------------------------------------------------ *)
(* Checkpoint store                                                   *)
(* ------------------------------------------------------------------ *)

let temp_path name =
  let p = Filename.temp_file "relacc_svc" name in
  Sys.remove p;
  p

let test_checkpoint_roundtrip () =
  let path = temp_path "ckpt" in
  let c = Checkpoint.create ~path in
  let k1 = { Checkpoint.entity = "e0.csv"; master = Some "m.csv"; rules = "r" } in
  let k2 = { Checkpoint.entity = "e1.csv"; master = None; rules = "r" } in
  Checkpoint.note_warm c k1;
  Checkpoint.note_warm c k2;
  Checkpoint.note_warm c k1 (* dedup *);
  Checkpoint.begin_request c ~seq:1 ~line:{|{"id":"a"}|};
  Checkpoint.begin_request c ~seq:2 ~line:{|{"id":"b"}|};
  Checkpoint.end_request c ~seq:1;
  Checkpoint.flush c;
  let r = Checkpoint.load ~path in
  check int "both keys, deduped" 2 (List.length r.warm);
  check bool "order preserved" true (List.nth r.warm 0 = k1);
  check (list string) "only the open request is in flight"
    [ {|{"id":"b"}|} ] r.inflight;
  (* a torn journal tail (the crash case) is skipped, not fatal *)
  let oc = open_out_gen [ Open_append ] 0o644 (path ^ ".journal") in
  output_string oc "{\"begin\":3,\"li";
  close_out oc;
  let r2 = Checkpoint.load ~path in
  check (list string) "torn tail ignored" [ {|{"id":"b"}|} ] r2.inflight;
  Checkpoint.close c;
  check bool "missing files load empty" true
    ((Checkpoint.load ~path:(path ^ ".nope")).warm = [])

let test_checkpoint_begin_end_interleaved () =
  (* [end] for an unknown seq is a no-op, so begin must always land
     first — the server guarantees this by journaling [begin] before
     admission. Verify an end-without-begin does not poison a later
     begin of the same seq. *)
  let path = temp_path "ordckpt" in
  let c = Checkpoint.create ~path in
  Checkpoint.end_request c ~seq:7 (* unknown: ignored *);
  Checkpoint.begin_request c ~seq:7 ~line:{|{"id":"x"}|};
  Checkpoint.end_request c ~seq:7;
  Checkpoint.close c;
  check (list string) "nothing left in flight" []
    (Checkpoint.load ~path).inflight

(* ------------------------------------------------------------------ *)
(* The server: degradation, shedding, deadlines, warm restart         *)
(* ------------------------------------------------------------------ *)

let corpus =
  lazy
    (let dir = temp_path "corpus" in
     Driver.ensure_corpus ~dir ~entities:12 ~seed:11)

let send_to server line = Option.get (Driver.in_proc_send server line)

let run_line corpus ~id ~extra =
  Json.to_string
    (Json.Obj
       ([
          ("id", Json.Str id);
          ("task", Json.Str "chase");
          ("entity", Json.Str corpus.Driver.entity_files.(0));
          ("master", Json.Str corpus.Driver.master);
          ("rules", Json.Str corpus.Driver.rules);
        ]
       @ extra))

let test_server_ok_and_degraded () =
  let corpus = Lazy.force corpus in
  let server = Server.create Server.default_config in
  Fun.protect ~finally:(fun () -> Server.stop server) @@ fun () ->
  let resp = send_to server (run_line corpus ~id:"full" ~extra:[]) in
  check bool "unbudgeted chase is ok" true
    (Protocol.classify_response resp = `Ok);
  let resp =
    send_to server
      (run_line corpus ~id:"tight" ~extra:[ ("max_steps", Json.int 3) ])
  in
  check bool "tripped budget degrades" true
    (Protocol.classify_response resp = `Degraded);
  (match Json.parse resp with
  | Ok j ->
      let result = Option.get (Json.member "result" j) in
      check bool "partial is carried" true (Json.member "partial" result <> None);
      check (option string) "trip named" (Some "max-steps")
        (Option.bind (Json.member "trip" result) Json.to_str)
  | Error e -> failf "bad json: %s" e);
  let resp = send_to server {|{"id":"gone","task":"chase","entity":"missing.csv","rules":"nope.txt"}|} in
  check bool "unreadable file is a typed io error" true
    (Protocol.classify_response resp = `Error "io");
  let resp = send_to server "}{ garbage" in
  check bool "garbage is a typed parse error" true
    (Protocol.classify_response resp = `Error "parse")

let test_server_sheds_on_deadline_expiry () =
  let corpus = Lazy.force corpus in
  (* One worker, so the queue orders strictly: a slow clean holds the
     worker while a chase with a microscopic deadline waits — by the
     time it is dequeued, its deadline has passed and it must be shed
     without doing work. *)
  let server = Server.create { Server.default_config with workers = 1 } in
  Fun.protect ~finally:(fun () -> Server.stop server) @@ fun () ->
  let clean_line =
    Json.to_string
      (Json.Obj
         [
           ("id", Json.Str "slow");
           ("task", Json.Str "clean");
           ("entity", Json.Str corpus.Driver.flat);
           ("master", Json.Str corpus.Driver.master);
           ("rules", Json.Str corpus.Driver.rules);
           ("key", Json.list (fun a -> Json.Str a) corpus.Driver.key_attrs);
         ])
  in
  let slow_done = ref None in
  Server.submit server ~line:clean_line ~reply:(fun r -> slow_done := Some r);
  let resp =
    send_to server
      (run_line corpus ~id:"late" ~extra:[ ("deadline_ms", Json.Num 0.01) ])
  in
  check bool "expired-in-queue is shed as overloaded" true
    (Protocol.classify_response resp = `Error "overloaded");
  (* the slow request itself completes fine *)
  let rec wait n =
    if n = 0 then fail "clean never completed"
    else if !slow_done = None then (Thread.delay 0.05; wait (n - 1))
  in
  wait 200;
  match Protocol.classify_response (Option.get !slow_done) with
  | `Ok | `Degraded -> ()
  | _ -> fail "clean must succeed"

let test_server_sheds_when_queue_full () =
  let corpus = Lazy.force corpus in
  let server =
    Server.create { Server.default_config with workers = 1; queue_depth = 1 }
  in
  Fun.protect ~finally:(fun () -> Server.stop server) @@ fun () ->
  (* Fill the single worker and the single queue slot with slow
     cleans, then overflow: the third run request must be rejected
     at the door with the queue depth in the error. *)
  let clean_line id =
    Json.to_string
      (Json.Obj
         [
           ("id", Json.Str id);
           ("task", Json.Str "clean");
           ("entity", Json.Str corpus.Driver.flat);
           ("master", Json.Str corpus.Driver.master);
           ("rules", Json.Str corpus.Driver.rules);
           ("key", Json.list (fun a -> Json.Str a) corpus.Driver.key_attrs);
         ])
  in
  let mu = Mutex.create () in
  let finished = ref [] in
  let note r = Mutex.protect mu (fun () -> finished := r :: !finished) in
  Server.submit server ~line:(clean_line "c1") ~reply:note;
  Server.submit server ~line:(clean_line "c2") ~reply:note;
  Server.submit server ~line:(clean_line "c3") ~reply:note;
  (* c1 may already be running (queue empty) or both c1+c2 queued;
     either way a burst beyond worker+queue capacity must shed at
     least one request synchronously. *)
  Server.submit server ~line:(clean_line "c4") ~reply:note;
  let shed_now =
    Mutex.protect mu (fun () ->
        List.filter
          (fun r -> Protocol.classify_response r = `Error "overloaded")
          !finished)
  in
  check bool "burst beyond capacity sheds immediately" true
    (List.length shed_now >= 1);
  match Json.parse (List.hd shed_now) with
  | Ok j ->
      check bool "depth reported" true (Json.member "depth" j <> None);
      check (option (float 1e-9)) "no work done" (Some 0.0)
        (Option.bind (Json.member "work_ms" j) Json.to_num)
  | Error e -> failf "bad shed response: %s" e

let test_server_session_lifecycle () =
  let corpus = Lazy.force corpus in
  let server = Server.create Server.default_config in
  Fun.protect ~finally:(fun () -> Server.stop server) @@ fun () ->
  let open_line =
    Json.to_string
      (Json.Obj
         [
           ("id", Json.Str "s0");
           ("op", Json.Str "session");
           ("entity", Json.Str corpus.Driver.flat);
           ("master", Json.Str corpus.Driver.master);
           ("rules", Json.Str corpus.Driver.rules);
           ("key", Json.list (fun a -> Json.Str a) corpus.Driver.key_attrs);
         ])
  in
  let resp = send_to server open_line in
  (match Protocol.classify_response resp with
  | `Ok | `Degraded -> ()
  | _ -> failf "session open failed: %s" resp);
  let result line =
    match Json.parse line with
    | Ok j -> Option.get (Json.member "result" j)
    | Error e -> failf "bad json: %s" e
  in
  let key =
    match Option.bind (Json.member "session" (result resp)) Json.to_str with
    | Some k -> k
    | None -> failf "open response carries no session key: %s" resp
  in
  let entities_of line =
    Option.get (Option.bind (Json.member "entities" (result line)) Json.to_int)
  in
  let n0 = entities_of resp in
  let update_line id fields =
    Json.to_string
      (Json.Obj
         (("id", Json.Str id)
         :: ("op", Json.Str "update")
         :: ("session", Json.Str key)
         :: fields))
  in
  (* Retract the first row, then add it right back: ER re-forms the
     cluster, and the maintained entity count returns to the start. *)
  let row0 =
    match Relational.Csv.read_relation corpus.Driver.flat with
    | Ok r ->
        Array.to_list
          (Array.map Relational.Value.to_string
             (Relational.Tuple.values (Relational.Relation.tuple r 0)))
    | Error _ -> fail "corpus unreadable"
  in
  let resp =
    send_to server
      (update_line "u1"
         [ ("kind", Json.Str "tuple_retract"); ("pos", Json.int 0) ])
  in
  (match Protocol.classify_response resp with
  | `Ok | `Degraded -> ()
  | _ -> failf "retract failed: %s" resp);
  let resp =
    send_to server
      (update_line "u2"
         [
           ("kind", Json.Str "tuple_add");
           ("values", Json.list (fun s -> Json.Str s) row0);
         ])
  in
  (match Protocol.classify_response resp with
  | `Ok | `Degraded -> ()
  | _ -> failf "add failed: %s" resp);
  check int "entity count restored after retract+add" n0 (entities_of resp);
  check bool "delta counters present" true
    (Json.member "recleaned" (result resp) <> None);
  (* Rule churn through the wire: retire a user rule by name, then
     feed the same rule back as text. *)
  let rule_name, rule_text =
    match Relational.Csv.read_relation corpus.Driver.flat with
    | Error _ -> fail "corpus unreadable"
    | Ok r -> (
        let schema = Relational.Relation.schema r in
        let master =
          match Relational.Csv.read_relation corpus.Driver.master with
          | Ok m -> Some (Relational.Relation.schema m)
          | Error _ -> None
        in
        let text =
          In_channel.with_open_text corpus.Driver.rules In_channel.input_all
        in
        match Rules.Parser.parse_robust ~schema ?master text with
        | Ok (r0 :: _) ->
            (Rules.Ar.name r0, Rules.Parser.to_string ~schema ?master [ r0 ])
        | _ -> fail "corpus rules unparseable")
  in
  let resp =
    send_to server
      (update_line "u3"
         [ ("kind", Json.Str "rule_retire"); ("name", Json.Str rule_name) ])
  in
  (match Protocol.classify_response resp with
  | `Ok | `Degraded -> ()
  | _ -> failf "retire failed: %s" resp);
  let resp =
    send_to server
      (update_line "u4"
         [ ("kind", Json.Str "rule_add"); ("rule", Json.Str rule_text) ])
  in
  (match Protocol.classify_response resp with
  | `Ok | `Degraded -> ()
  | _ -> failf "re-add failed: %s" resp);
  (* Typed rejections: an unknown session, and a retire of a rule
     that no longer exists. Neither touches session state. *)
  let resp =
    send_to server
      (Json.to_string
         (Json.Obj
            [
              ("id", Json.Str "nosess");
              ("op", Json.Str "update");
              ("session", Json.Str "no-such-session");
              ("kind", Json.Str "tuple_retract");
              ("pos", Json.int 0);
            ]))
  in
  check bool "unknown session is a typed spec error" true
    (Protocol.classify_response resp = `Error "spec-invalid");
  let resp =
    send_to server
      (update_line "u5"
         [ ("kind", Json.Str "rule_retire"); ("name", Json.Str "no-such-rule") ])
  in
  check bool "unknown rule is a typed rule error" true
    (Protocol.classify_response resp = `Error "rule-invalid")

let test_server_journal_closes_every_request () =
  (* Regression: [begin] used to be journaled after admission, so a
     fast worker could hit [end] first (a no-op on an unknown seq)
     and the entry stayed open for the process lifetime, replayed on
     every restart; a shed request was never journaled but the same
     ordering bug class applies. After a full drain + stop, no
     request — completed or shed — may remain in flight. *)
  let corpus = Lazy.force corpus in
  let path = temp_path "leakckpt" in
  let server =
    Server.create
      {
        Server.default_config with
        workers = 1;
        queue_depth = 1;
        checkpoint_path = Some path;
      }
  in
  let clean_line id =
    Json.to_string
      (Json.Obj
         [
           ("id", Json.Str id);
           ("task", Json.Str "clean");
           ("entity", Json.Str corpus.Driver.flat);
           ("master", Json.Str corpus.Driver.master);
           ("rules", Json.Str corpus.Driver.rules);
           ("key", Json.list (fun a -> Json.Str a) corpus.Driver.key_attrs);
         ])
  in
  let mu = Mutex.create () in
  let n_replies = ref 0 in
  let note _ = Mutex.protect mu (fun () -> incr n_replies) in
  (* more requests than worker+queue capacity: some complete fast
     (exercising the begin/end race), at least one is shed *)
  List.iter
    (fun id -> Server.submit server ~line:(clean_line id) ~reply:note)
    [ "j1"; "j2"; "j3"; "j4" ];
  Server.stop server (* drains the queue, then flushes + closes *);
  check int "every request replied exactly once" 4 !n_replies;
  check (list string) "no request left open in the journal" []
    (Checkpoint.load ~path).inflight

let test_server_circuit_breaker_trips () =
  (* Internal failures against one spec trip its breaker; a healthy
     spec keeps flowing. Internal errors are provoked through a spec
     whose rules file is readable but whose entity CSV is a directory
     — load fails with a typed Io error... which must NOT trip the
     breaker (deterministic input error). So instead drive the
     breaker directly at the unit level plus assert the service's
     failure taxonomy: only internal/quarantine-heavy count. *)
  let corpus = Lazy.force corpus in
  let server = Server.create Server.default_config in
  Fun.protect ~finally:(fun () -> Server.stop server) @@ fun () ->
  (* Ten consecutive io errors on one spec: breaker must stay closed
     (requests keep getting the typed io error, never circuit-open). *)
  let bad = {|{"id":"io","task":"chase","entity":"missing.csv","rules":"nope.txt"}|} in
  for _ = 1 to 10 do
    match Protocol.classify_response (send_to server bad) with
    | `Error "io" -> ()
    | `Error other -> failf "expected io, got %s" other
    | _ -> fail "expected a typed error"
  done;
  (* and the healthy spec still flows *)
  check bool "healthy spec unaffected" true
    (Protocol.classify_response (send_to server (run_line corpus ~id:"ok" ~extra:[]))
    = `Ok)

let test_server_warm_restart_replays_identically () =
  let corpus = Lazy.force corpus in
  let path = temp_path "warmckpt" in
  let cfg = { Server.default_config with checkpoint_path = Some path } in
  let server = Server.create cfg in
  let first = send_to server (run_line corpus ~id:"probe" ~extra:[]) in
  check bool "first run ok" true (Protocol.classify_response first = `Ok);
  (* crash: no graceful stop — the checkpoint must already be good *)
  Server.request_stop server;
  Framework.Compile_cache.clear ();
  let before = Framework.Compile_cache.stats () in
  let server2 = Server.create cfg in
  Fun.protect ~finally:(fun () -> Server.stop server2) @@ fun () ->
  let after_boot = Framework.Compile_cache.stats () in
  check bool "restart re-warms the compile cache" true
    (after_boot.misses > before.misses);
  let second = send_to server2 (run_line corpus ~id:"probe" ~extra:[]) in
  let final = Framework.Compile_cache.stats () in
  check bool "warm cache serves the replay" true (final.hits > after_boot.hits);
  let result j =
    match Json.parse j with
    | Ok doc -> Json.to_string (Option.get (Json.member "result" doc))
    | Error e -> failf "bad response: %s" e
  in
  check string "replayed request reports identical bytes" (result first)
    (result second)

(* ------------------------------------------------------------------ *)
(* Per-spec entries and the metrics op                                *)
(* ------------------------------------------------------------------ *)

(* One metrics reply, read as a counter lookup. *)
let metrics_of server =
  let result =
    match Json.parse (send_to server {|{"id":"m","op":"metrics"}|}) with
    | Ok j -> Option.get (Json.member "result" j)
    | Error e -> failf "bad metrics reply: %s" e
  in
  fun name ->
    match Option.bind (Json.member name result) Json.to_int with
    | Some n -> n
    | None -> failf "metrics reply has no %S" name

let result_kind resp =
  match Json.parse resp with
  | Ok j ->
      Option.bind (Json.member "result" j) (fun r ->
          Option.bind (Json.member "kind" r) Json.to_str)
  | Error e -> failf "bad response: %s" e

(* A malformed line is one error: the metrics reply's tally and the
   Obs counter both move by one. *)
let test_server_parse_error_counted () =
  let server = Server.create Server.default_config in
  Fun.protect ~finally:(fun () -> Server.stop server) @@ fun () ->
  let was = Obs.enabled () in
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled was) @@ fun () ->
  let obs_errors () =
    match Obs.find "service_errors_total" with
    | Some (Obs.Counter n) -> n
    | _ -> fail "service_errors_total not registered"
  in
  let errors0 = metrics_of server "errors" and obs0 = obs_errors () in
  check bool "garbage is a typed parse error" true
    (Protocol.classify_response (send_to server "}{ garbage") = `Error "parse");
  check int "metrics errors moved by one" 1 (metrics_of server "errors" - errors0);
  check int "service_errors_total moved by one" 1 (obs_errors () - obs0)

(* An edited rule file (its mtime moved) replaces the entry's
   specification: the next request compiles afresh and answers under
   the new rules, and the one after it reuses that compile. *)
let test_server_reloads_edited_rules () =
  let dir = temp_path "reload" in
  Sys.mkdir dir 0o700;
  let ( / ) = Filename.concat in
  let csv name rel =
    let path = dir / name in
    Relational.Csv.write_file path (Relational.Csv.relation_to_rows rel);
    path
  in
  let entity = csv "stat.csv" Datagen.Mj.stat in
  let master = csv "nba.csv" Datagen.Mj.nba in
  let rules = dir / "rules.txt" in
  let write_rules text =
    Out_channel.with_open_text rules (fun oc -> output_string oc text)
  in
  write_rules Datagen.Mj.rules_text;
  let line =
    Json.to_string
      (Json.Obj
         [
           ("id", Json.Str "mj");
           ("task", Json.Str "chase");
           ("entity", Json.Str entity);
           ("master", Json.Str master);
           ("rules", Json.Str rules);
         ])
  in
  let server = Server.create Server.default_config in
  Fun.protect ~finally:(fun () ->
      Server.stop server;
      List.iter Sys.remove [ entity; master; rules ];
      Sys.rmdir dir)
  @@ fun () ->
  check (option string) "the MJ rules deduce a target" (Some "chase")
    (result_kind (send_to server line));
  let misses0 = metrics_of server "compile_misses" in
  write_rules (Datagen.Mj.rules_text ^ "\n" ^ Datagen.Mj.phi12_text);
  let st = Unix.stat rules in
  Unix.utimes rules st.Unix.st_atime (st.Unix.st_mtime +. 10.0);
  check (option string) "the edited rules answer" (Some "not-church-rosser")
    (result_kind (send_to server line));
  check int "the reload is a compile miss" 1
    (metrics_of server "compile_misses" - misses0);
  let hits0 = metrics_of server "compile_hits" in
  check (option string) "the reloaded spec is kept" (Some "not-church-rosser")
    (result_kind (send_to server line));
  check int "and its compile reused" 1 (metrics_of server "compile_hits" - hits0);
  check int "no further miss" 1 (metrics_of server "compile_misses" - misses0)

(* Chase requests over two specs compile each spec once: the metrics
   reply reads two misses and a hit for every other request. *)
let test_server_compiles_each_spec_once () =
  let corpus = Lazy.force corpus in
  let server = Server.create Server.default_config in
  Fun.protect ~finally:(fun () -> Server.stop server) @@ fun () ->
  let line i =
    Json.to_string
      (Json.Obj
         [
           ("id", Json.Str (string_of_int i));
           ("task", Json.Str "chase");
           ("entity", Json.Str corpus.Driver.entity_files.(i mod 2));
           ("master", Json.Str corpus.Driver.master);
           ("rules", Json.Str corpus.Driver.rules);
         ])
  in
  let n = 8 in
  let m0 = metrics_of server in
  let hits0 = m0 "compile_hits" and misses0 = m0 "compile_misses" in
  for i = 0 to n - 1 do
    check bool "chase ok" true (Protocol.classify_response (send_to server (line i)) = `Ok)
  done;
  let m = metrics_of server in
  check int "one miss per spec" 2 (m "compile_misses" - misses0);
  check int "every other request hits" (n - 2) (m "compile_hits" - hits0)

(* ------------------------------------------------------------------ *)
(* In-process chaos soak: the response contract holds under faults    *)
(* ------------------------------------------------------------------ *)

let test_soak_contract_under_chaos () =
  let corpus = Lazy.force corpus in
  let server =
    Server.create
      { Server.default_config with workers = 2; queue_depth = 4 }
  in
  Fun.protect ~finally:(fun () -> Server.stop server) @@ fun () ->
  let cfg =
    {
      Driver.default_config with
      requests = 120;
      senders = 6;
      seed = 23;
      chaos =
        {
          Robust.Faultinject.none with
          payload_rate = 0.1;
          latency_rate = 0.05;
          latency_ms = 5.0;
          drop_rate = 0.05;
        };
      deadline_ms = Some 150.0;
      tight_rate = 0.15;
      clean_rate = 0.05;
    }
  in
  let outcome = Driver.run ~send:(Driver.in_proc_send server) cfg corpus in
  check (list string) "no contract violations" [] outcome.violations;
  check int "nothing malformed" 0 (Slo.malformed outcome.slo);
  check int "every request accounted for" 120 (Slo.total outcome.slo);
  (* the report serializes *)
  match Slo.to_json outcome.slo ~duration_s:outcome.duration_s with
  | Json.Obj fields ->
      check bool "has classes" true (List.mem_assoc "classes" fields)
  | _ -> fail "slo report must be an object"

let () =
  Alcotest.run "service"
    [
      ( "json",
        [
          test_case "roundtrip" `Quick test_json_roundtrip;
          test_case "rejects garbage" `Quick test_json_rejects_garbage;
          test_case "depth limited" `Quick test_json_depth_limited;
          test_case "float roundtrip" `Quick test_json_float_roundtrip;
        ] );
      ( "admission",
        [ test_case "sheds when full" `Quick test_admission_sheds_when_full ] );
      ( "breaker",
        [
          test_case "state machine" `Quick test_breaker_state_machine;
          test_case "probe abort recovers" `Quick
            test_breaker_probe_abort_recovers;
        ] );
      ( "protocol",
        [
          test_case "requests" `Quick test_protocol_requests;
          test_case "classification" `Quick test_protocol_classification;
        ] );
      ( "checkpoint",
        [
          test_case "roundtrip" `Quick test_checkpoint_roundtrip;
          test_case "begin/end interleaving" `Quick
            test_checkpoint_begin_end_interleaved;
        ] );
      ( "server",
        [
          test_case "ok and degraded" `Quick test_server_ok_and_degraded;
          test_case "deadline expiry sheds" `Quick
            test_server_sheds_on_deadline_expiry;
          test_case "full queue sheds" `Quick test_server_sheds_when_queue_full;
          test_case "session lifecycle" `Quick test_server_session_lifecycle;
          test_case "journal closes every request" `Quick
            test_server_journal_closes_every_request;
          test_case "io errors do not trip the breaker" `Quick
            test_server_circuit_breaker_trips;
          test_case "warm restart replays identically" `Quick
            test_server_warm_restart_replays_identically;
          test_case "malformed line is one counted error" `Quick
            test_server_parse_error_counted;
          test_case "edited rules reload the spec" `Quick
            test_server_reloads_edited_rules;
          test_case "each spec compiles once" `Quick
            test_server_compiles_each_spec_once;
        ] );
      ( "soak",
        [ test_case "contract under chaos" `Quick test_soak_contract_under_chaos ] );
    ]
