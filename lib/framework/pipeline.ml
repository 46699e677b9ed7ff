let ( let* ) = Result.bind

type task =
  | Chase
  | Topk of { k : int; algo : Topk.algo }
  | Clean of {
      key_attrs : string list;
      threshold : float;
      retries : int;
      jobs : int;
    }

type config = {
  entity : string;
  master : string option;
  rules : string;
  task : task;
  limits : Robust.Budget.limits;
}

let config ?master ?(limits = Robust.Budget.unlimited) ~entity ~rules task =
  { entity; master; rules; task; limits }

type chase_outcome =
  | Deduced of { te : Relational.Value.t array; complete : bool }
  | Not_church_rosser of { rule : string; reason : string }
  | Chase_exhausted of {
      partial : Relational.Value.t array;
      fired : int;
      trip : Robust.Error.trip;
    }

type outcome =
  | Chased of chase_outcome
  | Ranked of { pref : Topk.Preference.t; result : Topk.outcome }
  | Cleaned of Cleaner.report

type report = { spec : Core.Specification.t; outcome : outcome }

let load_spec ?master ~entity ~rules () =
  Obs.Span.with_ ~name:"pipeline.load" @@ fun () ->
  (* Relations are named after their file (stat.csv -> "stat"), so
     rule files may quantify over them by name. *)
  let* entity = Relational.Csv.read_relation entity in
  let* master =
    match master with
    | None -> Ok None
    | Some path -> Result.map Option.some (Relational.Csv.read_relation path)
  in
  let schema = Relational.Relation.schema entity in
  let master_schema = Option.map Relational.Relation.schema master in
  let* parsed =
    Rules.Parser.parse_file_robust ~schema ?master:master_schema rules
  in
  let* ruleset =
    Result.map_error Robust.Error.rule_invalid
      (Rules.Ruleset.make ~schema ?master:master_schema parsed)
  in
  Result.map_error Robust.Error.spec_invalid
    (Core.Specification.make ~entity ?master ruleset)

let compile spec =
  Obs.Span.with_ ~name:"pipeline.compile" @@ fun () -> Compile_cache.compile spec

(* [Chase_exhausted] when the base chase's meter trips: the partial
   target and the steps fired, as a chase task reports them. *)
let exhausted_of state =
  Option.map
    (fun { Core.Is_cr.partial; fired; trip } ->
      Chase_exhausted { partial = Core.Instance.te partial; fired; trip })
    (Core.Is_cr.exhausted state)

let run_chase ?on_step limits spec =
  Obs.Span.with_ ~name:"pipeline.chase" @@ fun () ->
  (* Unlimited runs go through the compiled path too (the meter just
     never trips): a long-lived server warms the compile cache once
     and every later request — budgeted or not — reuses it. *)
  let meter = Robust.Budget.start limits in
  let compiled = compile spec in
  let state = Core.Is_cr.start ?trace:on_step ~budget:meter compiled in
  match (exhausted_of state, Core.Is_cr.conflict state) with
  | Some exhausted, _ -> exhausted
  | None, Some (rule, reason) -> Not_church_rosser { rule; reason }
  | None, None ->
      let te = Core.Is_cr.te state in
      Deduced { te; complete = not (Array.exists Relational.Value.is_null te) }

(* The base chase is drained once, under the request's limits, as a
   resumable state: from the all-null template it is the base every
   candidate check resumes, so top-k takes it over instead of chasing
   the same fixpoint again. A base chase that trips its meter is
   reported as a chase task's exhausted outcome; otherwise the search
   runs under a meter of its own. *)
let run_topk ~k ~algo limits spec =
  let compiled = compile spec in
  let state =
    Obs.Span.with_ ~name:"pipeline.chase" @@ fun () ->
    Core.Is_cr.start ~budget:(Robust.Budget.start limits) compiled
  in
  match (exhausted_of state, Core.Is_cr.conflict state) with
  | Some exhausted, _ -> Ok (Chased exhausted)
  | None, Some (rule, reason) ->
      (* No well-defined target exists to complete. *)
      Error (Robust.Error.order_conflict ~rule reason)
  | None, None ->
      let te = Core.Is_cr.te state in
      let state =
        if Array.for_all Relational.Value.is_null (Core.Specification.template spec)
        then Some state
        else None
      in
      let pref =
        Topk.Preference.of_occurrences (Core.Specification.entity spec)
      in
      let budget =
        if Robust.Budget.is_unlimited limits then None
        else Some (Robust.Budget.start limits)
      in
      Obs.Span.with_ ~name:"pipeline.topk" @@ fun () ->
      Result.map
        (fun result -> Ranked { pref; result })
        (Topk.solve ~algo ?state ?budget ~k ~pref compiled te)

let er_config ~key_attrs ~threshold schema =
  let* keys =
    List.fold_left
      (fun acc name ->
        let* acc = acc in
        match Relational.Schema.index_opt schema name with
        | Some i -> Ok (i :: acc)
        | None ->
            Error
              (Robust.Error.spec_invalid
                 (Printf.sprintf "unknown key attribute %S" name)))
      (Ok []) key_attrs
  in
  match List.rev keys with
  | [] ->
      Error
        (Robust.Error.spec_invalid
           "clean: pass at least one key attribute for entity resolution")
  | keys ->
      Ok
        {
          (Er.Resolver.default_config ~key_attrs:keys
             ~compare_attrs:(List.map (fun a -> (a, 1.0)) keys))
          with
          use_soundex = true;
          threshold;
        }

let open_session ~key_attrs ~threshold ~retries ~jobs limits spec =
  let* er = er_config ~key_attrs ~threshold (Core.Specification.schema spec) in
  Ok
    (Session.create ~er
       ?master:(Core.Specification.master spec)
       ~budget:limits ~retries ~jobs
       (Core.Specification.ruleset spec)
       (Core.Specification.entity spec))

let run_clean ~key_attrs ~threshold ~retries ~jobs limits spec =
  (* The one-shot clean IS a session's initial state: open, report,
     drop. Keeping the batch entry point on the session path is what
     guarantees the two can never drift. *)
  let* session =
    Obs.Span.with_ ~name:"pipeline.clean" @@ fun () ->
    open_session ~key_attrs ~threshold ~retries ~jobs limits spec
  in
  Ok (Cleaned (Session.report session))

let execute ?on_step ?(limits = Robust.Budget.unlimited) spec task =
  let* outcome =
    match task with
    | Chase -> Ok (Chased (run_chase ?on_step limits spec))
    | Topk { k; algo } -> run_topk ~k ~algo limits spec
    | Clean { key_attrs; threshold; retries; jobs } ->
        run_clean ~key_attrs ~threshold ~retries ~jobs limits spec
  in
  Ok { spec; outcome }

let run ?on_step cfg =
  let* spec =
    load_spec ?master:cfg.master ~entity:cfg.entity ~rules:cfg.rules ()
  in
  execute ?on_step ~limits:cfg.limits spec cfg.task

(* The long-lived entry point: [open_spec] is cluster + compile +
   initial clean over a loaded specification; each [update] then
   delta-maintains the report. The inner session module does the real
   work; this facade adds the conventions of [execute]. *)
module Session = struct
  include Session

  let open_spec ~key_attrs ~threshold ?(retries = 1) ?(jobs = 1)
      ?(limits = Robust.Budget.unlimited) spec =
    open_session ~key_attrs ~threshold ~retries ~jobs limits spec
end
