(* serve-med32: relacc-serve as a child process (2 workers, queue
   depth 64, a checkpoint in the run's directory), driven open loop
   at a fixed rate over one pipelined Unix-socket connection by this
   single-threaded generator.

   Not listed in BENCHMARK.json: until TopKCT honours request
   deadlines, one top-k request on an unlucky entity runs for minutes
   and two of them wedge both workers, so whether a run's corpus holds
   such an entity decides its figures (see README.md). *)

module Json = Service.Json
module Prng = Util.Prng

let entities = 32
let rate_per_s = 200.0
let deadline_ms = 200.0
let clean_rate = 0.05
let server_exe = Filename.concat "_build" "default/bin/relacc_serve.exe"

let unit_of name =
  match name with
  | "setup_s" -> "s"
  | "goodput_rps" -> "1/s"
  | "failed_frac" -> "ratio"
  | "peak_rss_mb" -> "MB"
  | "framework.compile_hits" | "service.shed" | "service.degraded"
  | "service.errors" | "service.breaker_rejects" | "topk.frontier_pops" ->
      "count"
  | "service.checkpoint_bytes_per_request" -> "B"
  | _ -> "ms"

(* ------------------------------------------------------------------ *)
(* The request stream: the soak driver's mix without chaos or tight    *)
(* budgets, every request carrying the latency limit as its deadline.  *)
(* ------------------------------------------------------------------ *)

type request = { id : string; cls : string; entity : string; line : string; due : float }

let requests (corpus : Service.Driver.corpus) ~seed ~n =
  let g = Prng.create seed in
  List.init n (fun i ->
      let id = Printf.sprintf "r%d" i in
      let u = Prng.float g 1.0 in
      let cls, entity, fields =
        if u < clean_rate then
          ( "clean",
            corpus.flat,
            [
              ("task", Json.Str "clean");
              ("entity", Json.Str corpus.flat);
              ("key", Json.list (fun a -> Json.Str a) corpus.key_attrs);
              ("retries", Json.int 1);
            ] )
        else
          let e = Prng.choose g corpus.entity_files in
          if u < clean_rate +. ((1.0 -. clean_rate) /. 2.0) then
            ("chase", e, [ ("task", Json.Str "chase"); ("entity", Json.Str e) ])
          else
            ( "topk",
              e,
              [ ("task", Json.Str "topk"); ("k", Json.int 2); ("entity", Json.Str e) ] )
      in
      let line =
        Json.to_string
          (Json.Obj
             ((("id", Json.Str id) :: fields)
             @ [
                 ("master", Json.Str corpus.master);
                 ("rules", Json.Str corpus.rules);
                 ("deadline_ms", Json.Num deadline_ms);
               ]))
      in
      { id; cls; entity; line; due = float_of_int i *. 1000.0 /. rate_per_s })

(* ------------------------------------------------------------------ *)
(* The server process                                                   *)
(* ------------------------------------------------------------------ *)

type server = { pid : int; sock : string; ckpt : string }

let rec wait_pid pid =
  match Unix.waitpid [] pid with
  | _ -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait_pid pid
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()

let kill s =
  (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
  wait_pid s.pid

let spawn ~dir ~metrics tag =
  if not (Sys.file_exists server_exe) then Check.fail "%s is not built" server_exe;
  let path ext = Filename.concat dir (tag ^ ext) in
  let log = Unix.openfile (path ".log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let args =
    [ server_exe; "--socket"; path ".sock"; "-j"; "2"; "--queue-depth"; "64";
      "--checkpoint"; path ".ckpt" ]
    @ if metrics then [ "--metrics" ] else []
  in
  let pid = Unix.create_process server_exe (Array.of_list args) Unix.stdin log log in
  Unix.close log;
  { pid; sock = path ".sock"; ckpt = path ".ckpt" }

(* A non-blocking connection: queued output, buffered partial input. *)
type conn = {
  fd : Unix.file_descr;
  out : string Queue.t;
  mutable out_off : int;
  mutable partial : string;
}

let connect s =
  let t0 = Measure.now_ms () in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX s.sock) with
    | () ->
        Unix.set_nonblock fd;
        { fd; out = Queue.create (); out_off = 0; partial = "" }
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
        Unix.close fd;
        (match Unix.waitpid [ Unix.WNOHANG ] s.pid with
        | 0, _ -> ()
        | _ -> Check.fail "relacc-serve exited before accepting");
        if Measure.now_ms () -. t0 > 60_000.0 then
          Check.fail "relacc-serve did not listen within 60 s";
        Unix.sleepf 0.002;
        go ()
  in
  go ()

let send c line = Queue.add (line ^ "\n") c.out

let write_some c =
  match Queue.peek_opt c.out with
  | None -> ()
  | Some s -> (
      let len = String.length s - c.out_off in
      match Unix.single_write_substring c.fd s c.out_off len with
      | n ->
          if n = len then begin
            ignore (Queue.pop c.out : string);
            c.out_off <- 0
          end
          else c.out_off <- c.out_off + n
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
      | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
          Check.fail "relacc-serve closed the connection")

let buf = Bytes.create 65536

(* Wait up to [timeout_ms] for the socket, write what it takes, and
   hand every complete reply line to [on_line]. *)
let pump c ~timeout_ms ~on_line =
  let want_write = not (Queue.is_empty c.out) in
  match
    Unix.select [ c.fd ] (if want_write then [ c.fd ] else []) []
      (Float.max 0.0 (timeout_ms /. 1000.0))
  with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | readable, writable, _ ->
      if writable <> [] then write_some c;
      if readable <> [] then (
        match Unix.read c.fd buf 0 (Bytes.length buf) with
        | 0 -> Check.fail "relacc-serve closed the connection"
        | n ->
            let lines = String.split_on_char '\n' (c.partial ^ Bytes.sub_string buf 0 n) in
            let rec go = function
              | [ last ] -> c.partial <- last
              | l :: rest -> on_line l; go rest
              | [] -> c.partial <- ""
            in
            go lines
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ())

let id_of line =
  match Json.parse line with
  | Ok j -> Option.bind (Json.member "id" j) Json.to_str
  | Error _ -> None

(* Send one control line and wait (at most [timeout_ms]) for its reply. *)
let call c ~id ~timeout_ms line =
  send c line;
  let t0 = Measure.now_ms () in
  let reply = ref None in
  while !reply = None && Measure.now_ms () -. t0 < timeout_ms do
    pump c ~timeout_ms:10.0 ~on_line:(fun l -> if id_of l = Some id then reply := Some l)
  done;
  !reply

(* Spawn, connect and ping: the service's set-up time. *)
let start ~dir ~metrics tag =
  (* A server that dies mid-run must fail the check, not kill us. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let t0 = Measure.now_ms () in
  let s = spawn ~dir ~metrics tag in
  match
    let c = connect s in
    match call c ~id:"ping" ~timeout_ms:60_000.0 {|{"id":"ping","op":"ping"}|} with
    | Some _ -> (c, Measure.now_ms () -. t0)
    | None -> Check.fail "relacc-serve did not answer ping"
  with
  | r -> (s, r)
  | exception e -> kill s; raise e

(* ------------------------------------------------------------------ *)
(* One open-loop pass                                                   *)
(* ------------------------------------------------------------------ *)

type pass = {
  setup_ms : float;  (** spawn to the first ping reply *)
  sent : request array;
  replies : (string * float) option array;  (** line, latency from due time *)
  late_max : float;
  metrics_reply : Json.t option;
  rss_mb : float;
  ckpt_bytes : int;
}

let file_size p = try (Unix.stat p).Unix.st_size with Unix.Unix_error _ -> 0

let pass ~dir ~metrics ~seconds tag reqs =
  let s, (c, setup_ms) = start ~dir ~metrics tag in
  Fun.protect
    ~finally:(fun () ->
      kill s;
      Unix.close c.fd)
  @@ fun () ->
  let reqs = Array.of_list reqs in
  let n = Array.length reqs in
  let replies = Array.make n None in
  let start = Measure.now_ms () in
  let stop = start +. (seconds *. 1000.0) in
  let next = ref 0 and late_max = ref 0.0 in
  let on_line line =
    let now = Measure.now_ms () in
    match id_of line with
    | Some id when String.length id > 1 && id.[0] = 'r' -> (
        match int_of_string_opt (String.sub id 1 (String.length id - 1)) with
        | Some i when i >= 0 && i < n && replies.(i) = None && now <= stop ->
            replies.(i) <- Some (line, now -. (start +. reqs.(i).due))
        | _ -> ())
    | _ -> ()
  in
  while Measure.now_ms () < stop do
    let now = Measure.now_ms () in
    while !next < n && start +. reqs.(!next).due <= now do
      send c reqs.(!next).line;
      late_max := Float.max !late_max (now -. (start +. reqs.(!next).due));
      incr next
    done;
    let wake = if !next < n then Float.min stop (start +. reqs.(!next).due) else stop in
    pump c ~timeout_ms:(wake -. Measure.now_ms ()) ~on_line
  done;
  (* The metrics op goes over a fresh connection: the run's own
     connection may hold a backlog the server has not read yet. *)
  let metrics_reply =
    if not metrics then None
    else
      let m = connect s in
      Fun.protect ~finally:(fun () -> Unix.close m.fd) @@ fun () ->
      Option.bind
        (call m ~id:"metrics" ~timeout_ms:30_000.0
           {|{"id":"metrics","op":"metrics"}|})
        (fun l -> Result.to_option (Json.parse l))
  in
  {
    setup_ms;
    sent = Array.sub reqs 0 !next;
    replies = Array.sub replies 0 !next;
    late_max = !late_max;
    metrics_reply;
    rss_mb = Measure.peak_rss_mb (string_of_int s.pid);
    ckpt_bytes = file_size s.ckpt + file_size (s.ckpt ^ ".journal");
  }

(* ------------------------------------------------------------------ *)
(* Checks and figures                                                   *)
(* ------------------------------------------------------------------ *)

let result_of line =
  match Json.parse line with
  | Ok j -> Option.map Json.to_string (Json.member "result" j)
  | Error _ -> None

(* Every reply must classify, and every ok chase result must equal an
   in-process Pipeline run on the same files. *)
let check (corpus : Service.Driver.corpus) p =
  let expected = Hashtbl.create 32 in
  let expect entity =
    match Hashtbl.find_opt expected entity with
    | Some r -> r
    | None ->
        let r =
          match
            Framework.Pipeline.run
              (Framework.Pipeline.config ~master:corpus.master ~entity
                 ~rules:corpus.rules Framework.Pipeline.Chase)
          with
          | Ok report ->
              result_of
                (Service.Protocol.ok_response ~id:"x" ~queue_ms:0.0 ~work_ms:0.0 report)
          | Error e -> Check.fail "in-process chase of %s: %s" entity (Robust.Error.to_string e)
        in
        Hashtbl.replace expected entity r;
        r
  in
  Array.iteri
    (fun i reply ->
      match reply with
      | None -> ()
      | Some (line, _) -> (
          let req = p.sent.(i) in
          match Service.Protocol.classify_response line with
          | `Malformed why -> Check.fail "%s: malformed reply (%s)" req.id why
          | `Ok when req.cls = "chase" ->
              if result_of line <> expect req.entity then
                Check.fail "%s: chase result differs from Pipeline.run on %s" req.id req.entity
          | `Ok | `Degraded | `Error _ -> ()))
    p.replies

let ok_latencies p =
  Array.to_list p.replies
  |> List.filter_map (function
       | Some (line, lat) when Service.Protocol.classify_response line = `Ok -> Some lat
       | _ -> None)

let reply_field name p =
  Array.to_list p.replies
  |> List.filter_map (function
       | Some (line, _) -> (
           match Json.parse line with
           | Ok j -> Option.bind (Json.member name j) Json.to_num
           | Error _ -> None)
       | None -> None)

let inputs (ctx : Ctx.t) =
  let corpus = Service.Driver.ensure_corpus ~dir:ctx.dir ~entities ~seed:ctx.seed in
  let n = int_of_float (rate_per_s *. ctx.seconds) in
  (corpus, requests corpus ~seed:ctx.seed ~n)

let run (ctx : Ctx.t) =
  let corpus, reqs = inputs ctx in
  (* Two throwaway starts, so set-up is a median of three. *)
  let setups =
    List.init 2 (fun i ->
        let s, (c, ms) = start ~dir:ctx.dir ~metrics:false (Printf.sprintf "setup%d" i) in
        Unix.close c.fd;
        kill s;
        ms)
  in
  let p = pass ~dir:ctx.dir ~metrics:false ~seconds:ctx.seconds "run" reqs in
  check corpus p;
  let ok = ok_latencies p in
  let sent = Array.length p.sent in
  let good = List.length (List.filter (fun l -> l <= deadline_ms) ok) in
  {
    Ctx.attempted = sent;
    failed = sent - List.length ok;
    metrics =
      [
        ("setup_s", Measure.median (p.setup_ms :: setups) /. 1000.0);
        ("latency_p50_ms", Measure.median ok);
        ("latency_p99_ms", Measure.quantile 0.99 ok);
        ("goodput_rps", float_of_int good /. ctx.seconds);
        ("failed_frac", float_of_int (sent - List.length ok) /. float_of_int (max 1 sent));
        ("peak_rss_mb", p.rss_mb);
      ];
  }

let trace (ctx : Ctx.t) =
  let corpus, reqs = inputs ctx in
  let plain = pass ~dir:ctx.dir ~metrics:false ~seconds:ctx.seconds "plain" reqs in
  let p = pass ~dir:ctx.dir ~metrics:true ~seconds:ctx.seconds "traced" reqs in
  check corpus plain;
  check corpus p;
  let m name =
    match Option.bind p.metrics_reply (Json.member "result") with
    | Some r -> Option.value ~default:0.0 (Option.bind (Json.member name r) Json.to_num)
    | None -> Check.fail "relacc-serve did not answer the metrics op"
  in
  let pulls =
    Array.to_list p.replies
    |> List.filter_map (function
         | Some (line, _) -> (
             match Json.parse line with
             | Ok j ->
                 Option.bind (Json.member "result" j) (fun r ->
                     Option.bind (Json.member "pulls" r) Json.to_num)
             | Error _ -> None)
         | None -> None)
  in
  let sent = Array.length p.sent in
  {
    Ctx.attempted = sent;
    failed = sent - List.length (ok_latencies p);
    metrics =
      [
        ("service.queue_ms_mean", Measure.mean (reply_field "queue_ms" p));
        ("service.work_ms_mean", Measure.mean (reply_field "work_ms" p));
        ("framework.compile_hits", m "compile_hits");
        ("service.shed", m "shed");
        ("service.degraded", m "degraded");
        ("service.errors", m "errors");
        ("service.breaker_rejects", m "breaker_rejects");
        ("topk.frontier_pops", Measure.sum pulls);
        ( "service.checkpoint_bytes_per_request",
          float_of_int p.ckpt_bytes /. Float.max 1.0 (m "completed") );
        ("gen.late_ms_max", p.late_max);
        ( "trace.overhead_ms",
          Measure.mean (reply_field "work_ms" p) -. Measure.mean (reply_field "work_ms" plain) );
      ];
  }
