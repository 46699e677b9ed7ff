type config = {
  queue_depth : int;
  workers : int;
  default_deadline_ms : float option;
  default_max_steps : int option;
  breaker_threshold : int;
  breaker_cooldown_ms : float;
  checkpoint_path : string option;
  checkpoint_every : int;
}

let default_config =
  {
    queue_depth = 64;
    workers = 2;
    default_deadline_ms = None;
    default_max_steps = None;
    breaker_threshold = 3;
    breaker_cooldown_ms = 500.0;
    checkpoint_path = None;
    checkpoint_every = 32;
  }

(* Metrics are registered once at module initialisation (duplicate
   names raise), so a process may create servers repeatedly — e.g.
   the test suite — without tripping the registry. *)
let m_requests = Obs.Counter.make "service_requests_total"
let m_shed = Obs.Counter.make "service_shed_total"
let m_degraded = Obs.Counter.make "service_degraded_total"
let m_errors = Obs.Counter.make "service_errors_total"
let m_breaker_rejects = Obs.Counter.make "service_breaker_rejects_total"
let m_queue_depth = Obs.Gauge.make "service_queue_depth"
let m_queue_ms = Obs.Histogram.make "service_queue_ms"
let m_work_ms = Obs.Histogram.make "service_work_ms"

(* What a worker dequeues: a one-shot run, a session open (the
   initial clean), or a session update. All three share the queue,
   admission control, and the worker fault boundary. *)
type job =
  | J_run of Protocol.run
  | J_open of Protocol.run
  | J_update of { key : string; upd : Protocol.upd }

type pending = {
  seq : int;
  id : string;
  job : job;
  line : string;
  arrival_ms : float;
  reply : string -> unit;
}

(* A service event: its live tally, kept whether or not Obs
   collection is on (the metrics op reports it), and its Obs counter.
   [bump] moves both, so the two never disagree. *)
type tally = { count : int Atomic.t; metric : Obs.Counter.t }

let tally metric = { count = Atomic.make 0; metric }

let bump x =
  Atomic.incr x.count;
  Obs.Counter.incr x.metric

type loaded = { spec : Core.Specification.t; mtimes : float list }

(* A live session plus its own lock: sessions are single-threaded on
   the update side, but the worker pool is not — two queued updates
   against the same session must serialise (each other worker just
   blocks, it does not spin). *)
type live_session = { smu : Mutex.t; session : Framework.Pipeline.Session.t }

(* Everything the server keeps for one spec key (the path triple):
   its circuit breaker, its loaded specification with the input
   files' mtimes, and its live session. The mutable fields change
   only under the server's [entries_mu]. The loaded specification is
   also the key of its compiled artifact in the compile cache, so
   replacing it on a reload frees the old artifact. *)
type entry = {
  breaker : Breaker.t;
  mutable loaded : loaded option;
  mutable session : live_session option;
}

type t = {
  cfg : config;
  queue : pending Admission.t;
  seq : int Atomic.t;
  completed : int Atomic.t;
  requests : tally;
  shed : tally;
  degraded : tally;
  errors : tally;
  breaker_rejects : tally;
  entries_mu : Mutex.t;
  entries : (string, entry) Hashtbl.t;
  checkpoint : Checkpoint.t option;
  mutable stop_requested : bool;
  mutable stopped : bool;
  stop_mu : Mutex.t;
  mutable workers : Thread.t list;
}

let queue_depth t = Admission.depth t.queue
let stopping t = t.stop_requested
let request_stop t = t.stop_requested <- true

(* ------------------------------------------------------------------ *)
(* Per-spec state                                                     *)
(* ------------------------------------------------------------------ *)

let entry_for t kname =
  Mutex.protect t.entries_mu @@ fun () ->
  match Hashtbl.find_opt t.entries kname with
  | Some e -> e
  | None ->
      let e =
        {
          breaker =
            Breaker.create ~threshold:t.cfg.breaker_threshold
              ~cooldown_ms:t.cfg.breaker_cooldown_ms;
          loaded = None;
          session = None;
        }
      in
      Hashtbl.add t.entries kname e;
      e

let mtimes_of (k : Checkpoint.spec_key) =
  List.map
    (fun p ->
      match Unix.stat p with
      | { Unix.st_mtime; _ } -> st_mtime
      | exception Unix.Unix_error _ -> 0.0)
    (k.entity :: k.rules :: Option.to_list k.master)

(* An entry's specification is loaded once and reused across
   requests until any input file's mtime moves — a long-lived server
   must notice edited rule files. *)
let spec_for t entry (k : Checkpoint.spec_key) =
  let mtimes = mtimes_of k in
  let cached =
    Mutex.protect t.entries_mu @@ fun () ->
    match entry.loaded with
    | Some l when List.equal Float.equal l.mtimes mtimes -> Some l.spec
    | _ -> None
  in
  match cached with
  | Some spec -> Ok spec
  | None -> (
      match
        Framework.Pipeline.load_spec ?master:k.master ~entity:k.entity
          ~rules:k.rules ()
      with
      | Error _ as e -> e
      | Ok spec ->
          Mutex.protect t.entries_mu (fun () ->
              entry.loaded <- Some { spec; mtimes });
          Ok spec)

(* ------------------------------------------------------------------ *)
(* The worker: deadline arming, breaker, pipeline, accounting        *)
(* ------------------------------------------------------------------ *)

let now_ms = Util.Timing.mono_ms

(* Quarantine-heavy: more than half the entities of a clean landed in
   quarantine — the spec is effectively failing even though each
   entity degraded "gracefully". Counts as a breaker failure. *)
let quarantine_heavy (report : Framework.Pipeline.report) =
  match report.outcome with
  | Cleaned r -> r.entities > 0 && 2 * r.quarantined > r.entities
  | Chased _ | Ranked _ -> false

let is_degraded (report : Framework.Pipeline.report) =
  match report.outcome with
  | Chased (Chase_exhausted _) -> true
  | Ranked { result; _ } -> result.exhausted <> None
  | Cleaned r -> r.quarantined > 0
  | Chased _ -> false

(* The deadline-shed prologue, shared by runs and session opens: if
   the deadline elapsed while the request sat in the queue, shed now
   rather than burn a worker on an answer nobody can use. Same error
   class as admission rejection — both mean "the service was too
   loaded for this request". *)
let with_deadline t ~id ~queue_ms deadline_ms k =
  let requested =
    match deadline_ms with
    | Some _ as d -> d
    | None -> t.cfg.default_deadline_ms
  in
  let remaining = Option.map (fun d -> d -. queue_ms) requested in
  match remaining with
  | Some r when r <= 0.0 ->
      bump t.shed;
      Protocol.error_response ~id ~queue_ms ~work_ms:0.0
        (Robust.Error.overloaded ~depth:(Admission.depth t.queue)
           (Printf.sprintf
              "deadline (%.0f ms) expired after %.0f ms in queue"
              (Option.get requested) queue_ms))
  | _ -> k remaining

(* Breaker-scoped execution, shared by runs and session opens:
   [work remaining] loads the spec and computes; [render] turns the
   [Ok] payload into a response line; [report_of] extracts the clean
   outcome for quarantine-heavy accounting (and [degraded_of] the
   degraded verdict). *)
let compute_run t p (run : Protocol.run) ~queue_ms =
  let work_start = now_ms () in
  let work_ms () = now_ms () -. work_start in
  let is_open = match p.job with J_open _ -> true | _ -> false in
  with_deadline t ~id:p.id ~queue_ms run.deadline_ms @@ fun remaining ->
  let key = Protocol.spec_key run in
  let kname = Checkpoint.spec_key_name key in
  let entry = entry_for t kname in
  let breaker = entry.breaker in
  match Breaker.acquire breaker ~now_ms:(now_ms ()) with
  | `Reject retry_ms ->
      bump t.breaker_rejects;
      Protocol.error_response ~id:p.id ~queue_ms ~work_ms:0.0
        (Robust.Error.circuit_open ~spec:kname ~retry_ms
           "circuit open: recent requests against this spec failed")
  | (`Proceed | `Probe) as role ->
      let limits =
        {
          Robust.Budget.max_steps =
            (match run.max_steps with
            | Some _ as s -> s
            | None -> t.cfg.default_max_steps);
          deadline_ms = remaining;
        }
      in
      let result =
        (* Exceptions become typed errors *here*, inside the
           breaker scope, so a crashing spec counts as an
           [Internal] failure (and resolves a half-open probe)
           instead of escaping to the worker fault boundary past
           the accounting below. *)
        try
          match spec_for t entry key with
          | Error _ as e -> e
          | Ok spec ->
              Option.iter (fun c -> Checkpoint.note_warm c key) t.checkpoint;
              if is_open then (
                  match run.task with
                  | Framework.Pipeline.Clean
                      { key_attrs; threshold; retries; jobs } -> (
                      match
                        Framework.Pipeline.Session.open_spec ~key_attrs
                          ~threshold ~retries ~jobs ~limits spec
                      with
                      | Error _ as e -> e
                      | Ok session ->
                          (* Re-opening replaces the old session —
                             the idempotent "reset to a fresh full
                             clean" semantics a crashed client
                             wants. *)
                          Mutex.protect t.entries_mu (fun () ->
                              entry.session <-
                                Some { smu = Mutex.create (); session });
                          Ok
                            {
                              Framework.Pipeline.spec;
                              outcome =
                                Framework.Pipeline.Cleaned
                                  (Framework.Pipeline.Session.report session);
                            })
                  | _ ->
                      Error
                        (Robust.Error.spec_invalid
                           "op \"session\" requires task \"clean\""))
              else Framework.Pipeline.execute ~limits spec run.task
        with exn -> Error (Robust.Error.of_exn exn)
      in
      (* Breaker accounting: only [Internal] failures and
         quarantine-heavy cleans count against the spec;
         deterministic typed errors (unreadable file, bad rule
         text) neither trip nor reset — but a half-open probe
         must still be resolved, else the breaker wedges in
         [Half_open] and rejects the spec forever. *)
      (match result with
      | Error (Robust.Error.Internal _) ->
          Breaker.record breaker ~now_ms:(now_ms ()) ~ok:false
      | Ok report when quarantine_heavy report ->
          Breaker.record breaker ~now_ms:(now_ms ()) ~ok:false
      | Ok _ -> Breaker.record breaker ~now_ms:(now_ms ()) ~ok:true
      | Error _ -> (
          match role with
          | `Probe -> Breaker.abort breaker ~now_ms:(now_ms ())
          | `Proceed -> ()));
      (match result with
      | Ok report -> if is_degraded report then bump t.degraded
      | Error _ -> bump t.errors);
      let work_ms = work_ms () in
      Obs.Histogram.observe m_work_ms work_ms;
      (match result with
      | Ok { Framework.Pipeline.outcome = Framework.Pipeline.Cleaned r; _ }
        when is_open ->
          (* Session open: same counters as a clean, plus the key
             that updates must quote. *)
          Protocol.session_response ~id:p.id ~queue_ms ~work_ms ~key:kname r
      | Ok report -> Protocol.ok_response ~id:p.id ~queue_ms ~work_ms report
      | Error e -> Protocol.error_response ~id:p.id ~queue_ms ~work_ms e)

(* Resolve a syntactic update against the session's schemas: cell
   literals re-type like CSV cells, master attributes resolve by
   name, rule text parses against the live schemas. *)
let resolve_update session (upd : Protocol.upd) =
  let module S = Framework.Pipeline.Session in
  match upd with
  | Protocol.U_tuple_add cells ->
      Ok
        (S.Tuple_add
           (Relational.Tuple.make
              (Array.of_list
                 (List.map Relational.Value.of_string_guess cells))))
  | Protocol.U_tuple_retract pos -> Ok (S.Tuple_retract pos)
  | Protocol.U_master_fix { row; attr; value } -> (
      match S.master session with
      | None ->
          Error (Robust.Error.spec_invalid "session has no master relation")
      | Some m -> (
          match
            Relational.Schema.index_opt (Relational.Relation.schema m) attr
          with
          | None ->
              Error
                (Robust.Error.spec_invalid
                   (Printf.sprintf "unknown master attribute %S" attr))
          | Some a ->
              Ok
                (S.Master_fix
                   {
                     row;
                     attr = a;
                     value = Relational.Value.of_string_guess value;
                   })))
  | Protocol.U_rule_add text -> (
      let schema = S.schema session in
      let master = Option.map Relational.Relation.schema (S.master session) in
      match Rules.Parser.parse_robust ~schema ?master text with
      | Error _ as e -> e
      | Ok [ rule ] -> Ok (S.Rule_add rule)
      | Ok rules ->
          Error
            (Robust.Error.rule_invalid
               (Printf.sprintf "rule_add expects exactly one rule, got %d"
                  (List.length rules))))
  | Protocol.U_rule_retire name -> Ok (S.Rule_retire name)

let compute_update t p ~key ~upd ~queue_ms =
  let work_start = now_ms () in
  let module S = Framework.Pipeline.Session in
  let live =
    Mutex.protect t.entries_mu @@ fun () ->
    Option.bind (Hashtbl.find_opt t.entries key) (fun e -> e.session)
  in
  let result =
    match live with
    | None ->
        Error
          (Robust.Error.spec_invalid
             (Printf.sprintf
                "unknown session %S (open it with op \"session\")" key))
    | Some { smu; session } ->
        (* One update at a time per session; concurrent updates to
           DIFFERENT sessions proceed in parallel on other workers. *)
        Mutex.protect smu @@ fun () ->
        (try
           match resolve_update session upd with
           | Error _ as e -> e
           | Ok u -> (
               match S.update session u with
               | Error _ as e -> e
               | Ok delta -> Ok (delta, S.report session))
         with exn -> Error (Robust.Error.of_exn exn))
  in
  (match result with
  | Ok (_, report) ->
      if report.Framework.Cleaner.quarantined > 0 then bump t.degraded
  | Error _ -> bump t.errors);
  let work_ms = now_ms () -. work_start in
  Obs.Histogram.observe m_work_ms work_ms;
  match result with
  | Ok (delta, report) ->
      Protocol.update_response ~id:p.id ~queue_ms ~work_ms delta report
  | Error e -> Protocol.error_response ~id:p.id ~queue_ms ~work_ms e

let compute_response t p ~queue_ms =
  match p.job with
  | J_run run | J_open run -> compute_run t p run ~queue_ms
  | J_update { key; upd } -> compute_update t p ~key ~upd ~queue_ms

let finish_request t seq =
  Option.iter
    (fun c ->
      Checkpoint.end_request c ~seq;
      let done_ = Atomic.fetch_and_add t.completed 1 + 1 in
      if done_ mod t.cfg.checkpoint_every = 0 then Checkpoint.flush c)
    t.checkpoint;
  if t.checkpoint = None then ignore (Atomic.fetch_and_add t.completed 1 : int)

let worker_loop t () =
  let rec loop () =
    match Admission.take t.queue with
    | None -> () (* queue closed and drained: clean exit *)
    | Some p ->
        Obs.Gauge.add m_queue_depth (-1.0);
        let queue_ms = now_ms () -. p.arrival_ms in
        Obs.Histogram.observe m_queue_ms queue_ms;
        let response =
          (* The fault boundary: no request may take the worker
             down. Anything unexpected becomes a typed [internal]
             error response. *)
          try compute_response t p ~queue_ms
          with exn ->
            bump t.errors;
            Protocol.error_response ~id:p.id ~queue_ms ~work_ms:0.0
              (Robust.Error.of_exn exn)
        in
        (try p.reply response with _ -> () (* client went away *));
        (try finish_request t p.seq with _ -> ());
        loop ()
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Submission (transport side)                                        *)
(* ------------------------------------------------------------------ *)

let best_effort_id line =
  match Json.parse line with
  | Ok j ->
      Option.value ~default:"?" (Option.bind (Json.member "id" j) Json.to_str)
  | Error _ -> "?"

let metrics_response t ~id =
  let cache = Framework.Compile_cache.stats () in
  Json.to_string
    (Json.Obj
       [
         ("id", Json.Str id);
         ("status", Json.Str "ok");
         ( "result",
           Json.Obj
             [
               ("kind", Json.Str "metrics");
               ("requests", Json.int (Atomic.get t.requests.count));
               ("shed", Json.int (Atomic.get t.shed.count));
               ("degraded", Json.int (Atomic.get t.degraded.count));
               ("errors", Json.int (Atomic.get t.errors.count));
               ( "breaker_rejects",
                 Json.int (Atomic.get t.breaker_rejects.count) );
               ("queue_depth", Json.int (Admission.depth t.queue));
               ( "sessions",
                 Json.int
                   (Mutex.protect t.entries_mu (fun () ->
                        Hashtbl.fold
                          (fun _ e n -> if Option.is_some e.session then n + 1 else n)
                          t.entries 0)) );
               ("completed", Json.int (Atomic.get t.completed));
               ("compile_hits", Json.int cache.hits);
               ("compile_misses", Json.int cache.misses);
             ] );
       ])

let enqueue t ~id ~line ~reply job =
  if t.stop_requested then begin
    bump t.shed;
    reply
      (Protocol.error_response ~id ~queue_ms:0.0 ~work_ms:0.0
         (Robust.Error.overloaded ~depth:(Admission.depth t.queue)
            "server is shutting down"))
  end
  else begin
    let seq = Atomic.fetch_and_add t.seq 1 in
    let p = { seq; id; job; line; arrival_ms = now_ms (); reply } in
    (* Journal [begin] before the request becomes visible to
       workers: admitting first would let a fast worker reach
       [end_request] (a no-op on an unknown seq) before [begin]
       lands, leaving the entry open forever and replayed on
       every restart. A rejected admission closes the entry
       right back; a crash in between merely replays a request
       whose client never got an answer — idempotent. *)
    Option.iter (fun c -> Checkpoint.begin_request c ~seq ~line) t.checkpoint;
    match Admission.admit t.queue p with
    | Error depth ->
        Option.iter (fun c -> Checkpoint.end_request c ~seq) t.checkpoint;
        bump t.shed;
        reply
          (Protocol.error_response ~id ~queue_ms:0.0 ~work_ms:0.0
             (Robust.Error.overloaded ~depth
                (Printf.sprintf "admission queue full (depth %d)" depth)))
    | Ok () -> Obs.Gauge.add m_queue_depth 1.0
  end

let submit t ~line ~reply =
  let reply s = try reply s with _ -> () in
  bump t.requests;
  match Protocol.parse_request line with
  | Error detail ->
      bump t.errors;
      reply (Protocol.parse_error_response ~id:(best_effort_id line) ~detail)
  | Ok { id; op = Ping } -> reply (Protocol.pong_response ~id)
  | Ok { id; op = Metrics } -> reply (metrics_response t ~id)
  | Ok { id; op = Shutdown } ->
      t.stop_requested <- true;
      reply (Protocol.pong_response ~id)
  | Ok { id; op = Run run } -> enqueue t ~id ~line ~reply (J_run run)
  | Ok { id; op = Session_open run } -> enqueue t ~id ~line ~reply (J_open run)
  | Ok { id; op = Session_update { key; upd } } ->
      enqueue t ~id ~line ~reply (J_update { key; upd })

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                          *)
(* ------------------------------------------------------------------ *)

(* Load each checkpointed spec into its entry and compile it: the
   artifact lives as long as the entry keeps that specification, so
   the first request after a restart hits. *)
let warm_from_checkpoint t (restored : Checkpoint.restored) =
  List.iter
    (fun (k : Checkpoint.spec_key) ->
      match spec_for t (entry_for t (Checkpoint.spec_key_name k)) k with
      | Ok spec ->
          ignore (Framework.Compile_cache.compile spec : Core.Is_cr.compiled);
          Option.iter (fun c -> Checkpoint.note_warm c k) t.checkpoint
      | Error _ -> () (* input files gone since the checkpoint *))
    restored.warm

let create (cfg : config) =
  if cfg.workers < 1 then
    invalid_arg (Printf.sprintf "Server.create: workers = %d" cfg.workers);
  if cfg.checkpoint_every < 1 then
    invalid_arg
      (Printf.sprintf "Server.create: checkpoint_every = %d"
         cfg.checkpoint_every);
  let restored =
    match cfg.checkpoint_path with
    | Some path -> Checkpoint.load ~path
    | None -> { Checkpoint.warm = []; inflight = [] }
  in
  let t =
    {
      cfg;
      queue = Admission.create ~capacity:cfg.queue_depth;
      seq = Atomic.make 0;
      completed = Atomic.make 0;
      requests = tally m_requests;
      shed = tally m_shed;
      degraded = tally m_degraded;
      errors = tally m_errors;
      breaker_rejects = tally m_breaker_rejects;
      entries_mu = Mutex.create ();
      entries = Hashtbl.create 8;
      checkpoint = Option.map (fun path -> Checkpoint.create ~path)
          cfg.checkpoint_path;
      stop_requested = false;
      stopped = false;
      stop_mu = Mutex.create ();
      workers = [];
    }
  in
  (* Re-warm before accepting traffic, so the first post-restart
     request hits a hot compile cache. *)
  warm_from_checkpoint t restored;
  t.workers <-
    List.init cfg.workers (fun _ -> Thread.create (worker_loop t) ());
  (* Replay requests that were in flight at the crash. Their clients
     are gone, so responses are discarded; the replay re-drives the
     caches and re-journals, making replay-after-a-second-crash
     idempotent too. *)
  List.iter
    (fun line -> submit t ~line ~reply:(fun _ -> ()))
    restored.inflight;
  t

let stop t =
  let first =
    Mutex.protect t.stop_mu @@ fun () ->
    if t.stopped then false
    else begin
      t.stopped <- true;
      true
    end
  in
  if first then begin
    t.stop_requested <- true;
    Admission.close t.queue;
    List.iter Thread.join t.workers;
    Option.iter Checkpoint.close t.checkpoint
  end
