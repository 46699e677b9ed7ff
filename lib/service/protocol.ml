type run = {
  entity : string;
  master : string option;
  rules : string;
  task : Framework.Pipeline.task;
  deadline_ms : float option;
  max_steps : int option;
}

type upd =
  | U_tuple_add of string list
  | U_tuple_retract of int
  | U_master_fix of { row : int; attr : string; value : string }
  | U_rule_add of string
  | U_rule_retire of string

type op =
  | Run of run
  | Session_open of run
  | Session_update of { key : string; upd : upd }
  | Ping
  | Metrics
  | Shutdown

type request = { id : string; op : op }

(* ------------------------------------------------------------------ *)
(* Request parsing                                                    *)
(* ------------------------------------------------------------------ *)

let ( let* ) = Result.bind

let str_field j k =
  match Option.bind (Json.member k j) Json.to_str with
  | Some s -> Ok s
  | None -> Error (Printf.sprintf "missing or non-string field %S" k)

let opt_str j k = Option.bind (Json.member k j) Json.to_str
let opt_num j k = Option.bind (Json.member k j) Json.to_num
let opt_int j k = Option.bind (Json.member k j) Json.to_int

let algo_of_string = function
  | "topkct" | "ct" -> Ok `Ct
  | "topkcth" | "ct-h" -> Ok `Ct_h
  | "rankjoin" | "rank-join" -> Ok `Rank_join
  | s -> Error (Printf.sprintf "unknown algo %S (topkct|topkcth|rankjoin)" s)

let task_of_json j = function
  | "chase" -> Ok Framework.Pipeline.Chase
  | "topk" ->
      let k = Option.value ~default:3 (opt_int j "k") in
      let* algo =
        match opt_str j "algo" with
        | None -> Ok `Ct
        | Some s -> algo_of_string s
      in
      Ok (Framework.Pipeline.Topk { k; algo })
  | "clean" ->
      let* key_attrs =
        match Json.member "key" j with
        | Some (Json.Arr xs) -> (
            match List.filter_map Json.to_str xs with
            | [] -> Error "field \"key\" must list at least one attribute"
            | ks when List.length ks = List.length xs -> Ok ks
            | _ -> Error "field \"key\" must contain only strings")
        | Some _ -> Error "field \"key\" must be an array of attribute names"
        | None -> Error "task \"clean\" requires field \"key\""
      in
      let threshold = Option.value ~default:0.72 (opt_num j "threshold") in
      let retries = Option.value ~default:1 (opt_int j "retries") in
      let jobs = Option.value ~default:1 (opt_int j "jobs") in
      Ok (Framework.Pipeline.Clean { key_attrs; threshold; retries; jobs })
  | t -> Error (Printf.sprintf "unknown task %S (chase|topk|clean)" t)

let run_of_json j ~default_task =
  let* tname =
    match (opt_str j "task", default_task) with
    | Some t, _ -> Ok t
    | None, Some t -> Ok t
    | None, None -> Error "missing or non-string field \"task\""
  in
  let* task = task_of_json j tname in
  let* entity = str_field j "entity" in
  let* rules = str_field j "rules" in
  Ok
    {
      entity;
      master = opt_str j "master";
      rules;
      task;
      deadline_ms = opt_num j "deadline_ms";
      max_steps = opt_int j "max_steps";
    }

let int_field j k =
  match opt_int j k with
  | Some n -> Ok n
  | None -> Error (Printf.sprintf "missing or non-integer field %S" k)

let upd_of_json j =
  let* kind = str_field j "kind" in
  match kind with
  | "tuple_add" -> (
      match Json.member "values" j with
      | Some (Json.Arr xs) ->
          let vs = List.filter_map Json.to_str xs in
          if List.length vs = List.length xs then Ok (U_tuple_add vs)
          else Error "field \"values\" must contain only strings"
      | _ -> Error "update \"tuple_add\" requires a string array \"values\"")
  | "tuple_retract" ->
      let* pos = int_field j "pos" in
      Ok (U_tuple_retract pos)
  | "master_fix" ->
      let* row = int_field j "row" in
      let* attr = str_field j "attr" in
      let* value = str_field j "value" in
      Ok (U_master_fix { row; attr; value })
  | "rule_add" ->
      let* rule = str_field j "rule" in
      Ok (U_rule_add rule)
  | "rule_retire" ->
      let* name = str_field j "name" in
      Ok (U_rule_retire name)
  | k ->
      Error
        (Printf.sprintf
           "unknown update kind %S \
            (tuple_add|tuple_retract|master_fix|rule_add|rule_retire)"
           k)

let parse_request line =
  let* j =
    match Json.parse line with
    | Ok (Json.Obj _ as j) -> Ok j
    | Ok _ -> Error "request must be a JSON object"
    | Error e -> Error e
  in
  let* id = str_field j "id" in
  match opt_str j "op" with
  | Some "ping" -> Ok { id; op = Ping }
  | Some "metrics" -> Ok { id; op = Metrics }
  | Some "shutdown" -> Ok { id; op = Shutdown }
  | Some "run" | None ->
      let* run = run_of_json j ~default_task:None in
      Ok { id; op = Run run }
  | Some "session" ->
      (* A session is an incremental clean; the task may be omitted
         (only "clean" is legal anyway). *)
      let* run = run_of_json j ~default_task:(Some "clean") in
      let* () =
        match run.task with
        | Framework.Pipeline.Clean _ -> Ok ()
        | _ -> Error "op \"session\" requires task \"clean\""
      in
      Ok { id; op = Session_open run }
  | Some "update" ->
      let* key = str_field j "session" in
      let* upd = upd_of_json j in
      Ok { id; op = Session_update { key; upd } }
  | Some op -> Error (Printf.sprintf "unknown op %S" op)

let spec_key (r : run) : Checkpoint.spec_key =
  { entity = r.entity; master = r.master; rules = r.rules }

(* ------------------------------------------------------------------ *)
(* Response rendering                                                 *)
(* ------------------------------------------------------------------ *)

let target_json schema te =
  let attrs = Relational.Schema.attributes schema in
  Json.Obj
    (Array.to_list
       (Array.mapi
          (fun i v -> (attrs.(i), Json.Str (Relational.Value.to_string v)))
          te))

let trip_json (trip : Robust.Error.trip) =
  Json.Str (Robust.Error.trip_to_string trip)

let clean_fields (r : Framework.Cleaner.report) =
  [
    ("entities", Json.int r.entities);
    ("complete", Json.int r.complete);
    ("completed_by_topk", Json.int r.completed_by_topk);
    ("still_incomplete", Json.int r.still_incomplete);
    ("rejected", Json.int r.rejected);
    ("quarantined", Json.int r.quarantined);
    ("retries_used", Json.int r.retries_used);
    ("cell_changes", Json.int r.cell_changes);
  ]

(* Render the report body and decide ok-vs-degraded. Degraded means
   "sound but partial": a tripped chase/top-k budget, or a clean with
   quarantined entities. *)
let result_json (report : Framework.Pipeline.report) =
  let schema = Core.Specification.schema report.spec in
  match report.outcome with
  | Chased (Deduced { te; complete }) ->
      ( false,
        Json.Obj
          [
            ("kind", Json.Str "chase");
            ("complete", Json.Bool complete);
            ("target", target_json schema te);
          ] )
  | Chased (Not_church_rosser { rule; reason }) ->
      ( false,
        Json.Obj
          [
            ("kind", Json.Str "not-church-rosser");
            ("rule", Json.Str rule);
            ("reason", Json.Str reason);
          ] )
  | Chased (Chase_exhausted { partial; fired; trip }) ->
      ( true,
        Json.Obj
          [
            ("kind", Json.Str "chase");
            ("partial", target_json schema partial);
            ("fired", Json.int fired);
            ("trip", trip_json trip);
          ] )
  | Ranked { result; pref = _ } ->
      ( result.exhausted <> None,
        Json.Obj
          (List.concat
             [
               [
                 ("kind", Json.Str "topk");
                 ("targets", Json.list (target_json schema) result.targets);
                 ("checks", Json.int result.checks);
                 ("pulls", Json.int result.pulls);
               ];
               (match result.exhausted with
               | Some trip -> [ ("trip", trip_json trip) ]
               | None -> []);
             ]) )
  | Cleaned r ->
      ( r.quarantined > 0,
        Json.Obj (("kind", Json.Str "clean") :: clean_fields r) )

let timing_fields ~queue_ms ~work_ms =
  [ ("queue_ms", Json.Num queue_ms); ("work_ms", Json.Num work_ms) ]

let ok_response ~id ~queue_ms ~work_ms report =
  let degraded, result = result_json report in
  Json.to_string
    (Json.Obj
       (List.concat
          [
            [
              ("id", Json.Str id);
              ("status", Json.Str (if degraded then "degraded" else "ok"));
            ];
            timing_fields ~queue_ms ~work_ms;
            [ ("result", result) ];
          ]))

let session_response ~id ~queue_ms ~work_ms ~key (report : Framework.Cleaner.report)
    =
  Json.to_string
    (Json.Obj
       (List.concat
          [
            [
              ("id", Json.Str id);
              ( "status",
                Json.Str (if report.quarantined > 0 then "degraded" else "ok")
              );
            ];
            timing_fields ~queue_ms ~work_ms;
            [
              ( "result",
                Json.Obj
                  (("kind", Json.Str "session")
                  :: ("session", Json.Str key)
                  :: clean_fields report) );
            ];
          ]))

let update_response ~id ~queue_ms ~work_ms
    (delta : Framework.Session.delta_report)
    (report : Framework.Cleaner.report) =
  Json.to_string
    (Json.Obj
       (List.concat
          [
            [
              ("id", Json.Str id);
              ( "status",
                Json.Str (if report.quarantined > 0 then "degraded" else "ok")
              );
            ];
            timing_fields ~queue_ms ~work_ms;
            [
              ( "result",
                Json.Obj
                  (("kind", Json.Str "update")
                  :: ("touched", Json.int delta.d_touched)
                  :: ("recleaned", Json.int delta.d_recleaned)
                  :: ("rows_changed", Json.int delta.d_rows_changed)
                  :: clean_fields report) );
            ];
          ]))

let error_response ~id ~queue_ms ~work_ms err =
  Json.to_string
    (Json.Obj
       (List.concat
          [
            [
              ("id", Json.Str id);
              ("status", Json.Str "error");
              ("class", Json.Str (Robust.Error.class_name err));
              ("exit_code", Json.int (Robust.Error.exit_code err));
            ];
            timing_fields ~queue_ms ~work_ms;
            [ ("message", Json.Str (Robust.Error.to_string err)) ];
            (match err with
            | Robust.Error.Overloaded { depth; _ } ->
                [ ("depth", Json.int depth) ]
            | Robust.Error.Circuit_open { retry_ms; _ } ->
                [ ("retry_ms", Json.Num retry_ms) ]
            | _ -> []);
          ]))

let parse_error_response ~id ~detail =
  Json.to_string
    (Json.Obj
       [
         ("id", Json.Str id);
         ("status", Json.Str "error");
         ("class", Json.Str "parse");
         ("exit_code", Json.int 64);
         ("message", Json.Str detail);
       ])

let pong_response ~id =
  Json.to_string
    (Json.Obj [ ("id", Json.Str id); ("status", Json.Str "ok");
                ("result", Json.Obj [ ("kind", Json.Str "pong") ]) ])

let classify_response line =
  match Json.parse line with
  | Error e -> `Malformed (Printf.sprintf "unparseable response: %s" e)
  | Ok j -> (
      match Option.bind (Json.member "status" j) Json.to_str with
      | Some "ok" -> `Ok
      | Some "degraded" -> `Degraded
      | Some "error" -> (
          match Option.bind (Json.member "class" j) Json.to_str with
          | Some cls -> `Error cls
          | None -> `Malformed "error response without a class")
      | Some s -> `Malformed (Printf.sprintf "unknown status %S" s)
      | None -> `Malformed "response without a status")
