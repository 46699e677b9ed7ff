(** The JSON-lines wire protocol of the cleaning service.

    One request per line, one response line per request.

    Request:
    {v
    {"id":"r1","task":"chase","entity":"e.csv","rules":"r.rules",
     "master":"m.csv","deadline_ms":250,"max_steps":100000}
    {"id":"r2","task":"topk","k":3,"algo":"topkct",...}
    {"id":"r3","task":"clean","key":["name"],"threshold":0.72,
     "retries":1,"jobs":2,...}
    {"id":"p","op":"ping"}   {"id":"m","op":"metrics"}
    {"id":"q","op":"shutdown"}
    v}

    Response — exactly one of three statuses:
    - [{"id":..,"status":"ok","queue_ms":..,"work_ms":..,"result":{..}}]
    - [{"id":..,"status":"degraded", ...,"result":{..}}] — the budget
      tripped (or entities were quarantined); [result] is a sound
      partial answer and carries what tripped;
    - [{"id":..,"status":"error","class":"overloaded","exit_code":11,
       "message":..}] — a typed {!Robust.Error.t} (or protocol-level
      ["parse"] for a malformed request line).

    Nothing else: the soak harness fails the run if any response
    falls outside this contract. *)

type run = {
  entity : string;
  master : string option;
  rules : string;
  task : Framework.Pipeline.task;
  deadline_ms : float option;  (** per-request; server default applies if absent *)
  max_steps : int option;
}

(** A session update, syntactically parsed — cell values and rule
    text are resolved against the session's schemas by the server,
    not here. *)
type upd =
  | U_tuple_add of string list
      (** cell literals, re-typed like CSV cells *)
  | U_tuple_retract of int  (** current-relation position *)
  | U_master_fix of { row : int; attr : string; value : string }
      (** master row index, attribute {e name}, cell literal *)
  | U_rule_add of string  (** one rule in relacc syntax *)
  | U_rule_retire of string  (** user-rule name *)

type op =
  | Run of run
  | Session_open of run
      (** op ["session"]: open (or re-open) an incremental cleaning
          session; the run's task must be [Clean] (and defaults to
          it when the ["task"] field is absent) *)
  | Session_update of { key : string; upd : upd }
      (** op ["update"]: one update against the session named by the
          ["session"] field (the key returned by [Session_open]) *)
  | Ping
  | Metrics
  | Shutdown

type request = { id : string; op : op }

val parse_request : string -> (request, string) result
(** [Error detail] on malformed JSON, a missing/unknown [task]/[op],
    or missing required fields. Never raises. *)

val spec_key : run -> Checkpoint.spec_key
(** The (entity, master, rules) triple — the compile-cache warmth
    descriptor and the circuit-breaker registry key. *)

(** {2 Responses} *)

val ok_response :
  id:string ->
  queue_ms:float ->
  work_ms:float ->
  Framework.Pipeline.report ->
  string
(** Renders status [ok] or [degraded] — degraded when the chase or
    top-k budget tripped, or a clean quarantined entities. The line
    has no trailing newline. *)

val session_response :
  id:string ->
  queue_ms:float ->
  work_ms:float ->
  key:string ->
  Framework.Cleaner.report ->
  string
(** The [Session_open] success line: the initial clean's counters
    plus the ["session"] key later updates must quote. Degraded when
    entities were quarantined, exactly as for a batch clean. *)

val update_response :
  id:string ->
  queue_ms:float ->
  work_ms:float ->
  Framework.Session.delta_report ->
  Framework.Cleaner.report ->
  string
(** The [Session_update] success line: the delta counters (touched /
    recleaned / rows_changed) plus the maintained report's clean
    counters. *)

val error_response :
  id:string -> queue_ms:float -> work_ms:float -> Robust.Error.t -> string

val parse_error_response : id:string -> detail:string -> string
(** Protocol-level failure: the request line itself was unusable.
    Class ["parse"], exit code 64 (usage). *)

val pong_response : id:string -> string

val classify_response :
  string ->
  [ `Ok | `Degraded | `Error of string | `Malformed of string ]
(** The driver-side verdict on a response line. [`Malformed] means
    the service violated its own contract — a bug the soak harness
    turns into a non-zero exit. *)
