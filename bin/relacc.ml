(* relacc — command-line front end.

   Subcommands:
     demo                      run the paper's Michael Jordan example
     chase  -e CSV -r RULES    deduce a target tuple for a CSV entity instance
     topk   -e CSV -r RULES    top-k candidate targets
     generate DATASET          write a synthetic dataset to CSV files
     experiment [ID..]         reproduce the paper's figures/tables
     rules  -r RULES           parse, validate and echo a rule file, and
                               list the rules an earlier one subsumes

   The loading/chase/top-k/clean subcommands are thin shells over
   Framework.Pipeline — the CLI parses flags into a Pipeline.config,
   runs it, and renders the typed report (or error). *)

open Cmdliner
module Pipeline = Framework.Pipeline

let setup_logs verbose =
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (Some (if verbose then Logs.Debug else Logs.Warning))

let verbose_arg =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Verbose logging.")

let report_error e =
  Format.eprintf "relacc: %a@." Robust.Error.pp e;
  Robust.Error.exit_code e

let entity_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "e"; "entity" ] ~docv:"CSV" ~doc:"Entity instance (CSV with header).")

let master_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "m"; "master" ] ~docv:"CSV" ~doc:"Master relation (CSV with header).")

let rules_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "r"; "rules" ] ~docv:"FILE" ~doc:"Accuracy rules (relacc syntax).")

(* ---------------------------------------------------------------- *)
(* Observability flags                                              *)
(* ---------------------------------------------------------------- *)

let metrics_conv =
  Arg.enum [ ("table", `Table); ("json", `Json); ("prometheus", `Prometheus) ]

let metrics_arg =
  Arg.(
    value
    & opt (some metrics_conv) None
    & info [ "metrics" ] ~docv:"FMT"
        ~doc:
          "Collect engine metrics during the run and print them afterwards:           $(b,table) (human-readable), $(b,json) (one object per line) or           $(b,prometheus) (text exposition format).")

let trace_spans_arg =
  Arg.(
    value & flag
    & info [ "trace" ]
        ~doc:"Collect trace spans and print the span tree after the run.")

(* Arm collection before the work, render after it. [run_with_obs]
   brackets a unit -> int action so every subcommand reports the
   same way; rendering goes to stderr for --trace (diagnostics) and
   stdout for --metrics (machine-consumable). *)
let run_with_obs ~metrics ~trace f =
  if Option.is_some metrics || trace then begin
    Obs.set_enabled true;
    Obs.reset ()
  end;
  let code = f () in
  if trace then Format.eprintf "%a@?" Obs.Span.pp_tree ();
  (match metrics with
  | None -> ()
  | Some `Table -> print_string (Obs.Export.to_table ())
  | Some `Json -> print_string (Obs.Export.to_json_lines ())
  | Some `Prometheus -> print_string (Obs.Export.to_prometheus ()));
  code

(* ---------------------------------------------------------------- *)
(* Budgets and strictness                                           *)
(* ---------------------------------------------------------------- *)

(* Negative caps are a usage error the parser should catch, not an
   Invalid_argument escaping from Robust.Budget.limits. *)
let nonneg (type a) (conv : a Arg.conv) ~(to_float : a -> float) what :
    a Arg.conv =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok v when to_float v < 0.0 ->
        Error (`Msg (Printf.sprintf "%s must be non-negative, got %s" what s))
    | r -> r
  in
  Arg.conv (parse, Arg.conv_printer conv)

let timeout_arg =
  Arg.(
    value
    & opt (some (nonneg float ~to_float:Fun.id "SECONDS")) None
    & info [ "timeout" ] ~docv:"SECONDS"
        ~doc:
          "Wall-clock budget. When it trips, the run reports the partial result           deduced so far instead of spinning.")

let max_steps_arg =
  Arg.(
    value
    & opt (some (nonneg int ~to_float:float_of_int "N")) None
    & info [ "max-steps" ] ~docv:"N"
        ~doc:"Chase-step budget (per entity). Exhaustion yields a partial result.")

let strict_arg =
  Arg.(
    value
    & vflag false
        [
          ( true,
            info [ "strict" ]
              ~doc:"Exit with code 8 when a budget trips (partial results are                     still printed)." );
          ( false,
            info [ "lenient" ]
              ~doc:"Degrade gracefully: budget-exhausted partial results exit 0                     (default)." );
        ])

let limits_of ~timeout ~max_steps =
  Robust.Budget.limits ?max_steps
    ?deadline_ms:(Option.map (fun s -> s *. 1000.0) timeout)
    ()

let jobs_arg =
  let jobs_conv =
    let parse s =
      match Arg.conv_parser Arg.int s with
      | Ok v when v < 0 ->
          Error (`Msg (Printf.sprintf "JOBS must be 0 (auto) or positive, got %s" s))
      | r -> r
    in
    Arg.conv (parse, Arg.conv_printer Arg.int)
  in
  Arg.(
    value & opt jobs_conv 1
    & info [ "j"; "jobs" ] ~docv:"JOBS"
        ~doc:
          "Worker domains for the per-entity work; 0 picks the host's           recommended domain count. The output is identical for every value;           $(docv) only changes the wall time.")

let budget_exit ~strict ~trip ~spent =
  if strict then
    Robust.Error.exit_code (Robust.Error.budget_exhausted ~trip ~spent "")
  else 0

let pp_target schema te =
  Array.iteri
    (fun i v ->
      Format.printf "  %-24s %a@."
        (Relational.Schema.attribute schema i)
        Relational.Value.pp v)
    te

(* ---------------------------------------------------------------- *)
(* demo                                                             *)
(* ---------------------------------------------------------------- *)

let demo verbose =
  setup_logs verbose;
  let spec = Datagen.Mj.specification in
  Format.printf "%a@." Relational.Relation.pp Datagen.Mj.stat;
  (match Core.Is_cr.run spec with
  | Core.Is_cr.Church_rosser inst ->
      Format.printf "Church-Rosser; deduced target:@.";
      pp_target Datagen.Mj.stat_schema (Core.Instance.te inst)
  | Core.Is_cr.Not_church_rosser { rule; reason } ->
      Format.printf "not Church-Rosser (%s: %s)@." rule reason);
  0

let demo_cmd =
  Cmd.v
    (Cmd.info "demo" ~doc:"Run the paper's Michael Jordan running example.")
    Term.(const demo $ verbose_arg)

(* One printer for every task's report, so a top-k run whose base
   chase ran out of budget prints exactly what a chase run does.
   Returns the exit code. *)
let print_report ~strict ?out { Pipeline.spec; outcome } =
  let schema = Core.Specification.schema spec in
  match outcome with
  | Pipeline.Chased (Deduced { te; complete }) ->
      Format.printf "Church-Rosser: yes@.";
      Format.printf "deduced target (%s):@."
        (if complete then "complete" else "incomplete");
      pp_target schema te;
      0
  | Chased (Not_church_rosser { rule; reason }) ->
      Format.printf "Church-Rosser: NO — rule %s: %s@." rule reason;
      2
  | Chased (Chase_exhausted { partial; fired; trip }) ->
      Format.printf "budget exhausted (%s) after %d steps; partial target:@."
        (Robust.Error.trip_to_string trip)
        fired;
      pp_target schema partial;
      budget_exit ~strict ~trip ~spent:fired
  | Ranked { pref; result } -> (
      List.iteri
        (fun i t ->
          Format.printf "candidate %d (score %.2f):@." (i + 1)
            (Topk.Preference.score pref t);
          pp_target schema t)
        result.Topk.targets;
      if result.Topk.targets = [] then Format.printf "no candidate targets@.";
      match result.Topk.exhausted with
      | Some trip ->
          Format.printf "budget exhausted (%s): best-%d-so-far shown@."
            (Robust.Error.trip_to_string trip)
            (List.length result.Topk.targets);
          budget_exit ~strict ~trip ~spent:result.Topk.pulls
      | None -> 0)
  | Cleaned report ->
      Format.printf "%a@." Framework.Cleaner.pp_report report;
      Option.iter
        (fun path ->
          Relational.Csv.write_file path
            (Relational.Csv.relation_to_rows report.cleaned);
          Format.printf "wrote %s@." path)
        out;
      if strict && report.Framework.Cleaner.quarantined > 0 then begin
        Format.eprintf "relacc: %d entities quarantined (strict mode)@."
          report.Framework.Cleaner.quarantined;
        (* Report the worst error class among the quarantined
           entities so scripted callers can branch on it. *)
        match report.Framework.Cleaner.errors with
        | (_, e) :: _ -> Robust.Error.exit_code e
        | [] -> 1
      end
      else 0

(* ---------------------------------------------------------------- *)
(* chase                                                            *)
(* ---------------------------------------------------------------- *)

let chase verbose entity master rules steps timeout max_steps strict metrics
    trace =
  setup_logs verbose;
  run_with_obs ~metrics ~trace @@ fun () ->
  let on_step =
    if steps then
      Some (fun step -> Format.printf "  %a@." Rules.Ground.pp_step step)
    else None
  in
  let cfg =
    Pipeline.config ?master
      ~limits:(limits_of ~timeout ~max_steps)
      ~entity ~rules Pipeline.Chase
  in
  match Pipeline.run ?on_step cfg with
  | Error e -> report_error e
  | Ok report -> print_report ~strict report

let steps_arg =
  Arg.(
    value & flag
    & info [ "steps" ] ~doc:"Print each chase step as it is applied.")

let chase_cmd =
  Cmd.v
    (Cmd.info "chase"
       ~doc:"Check Church-Rosser and deduce the target tuple of an entity instance.")
    Term.(
      const chase $ verbose_arg $ entity_arg $ master_arg $ rules_arg
      $ steps_arg $ timeout_arg $ max_steps_arg $ strict_arg $ metrics_arg
      $ trace_spans_arg)

(* ---------------------------------------------------------------- *)
(* topk                                                             *)
(* ---------------------------------------------------------------- *)

let algorithm_conv =
  Arg.enum [ ("topkct", `Ct); ("topkcth", `Ct_h); ("rankjoin", `Rank_join) ]

let topk verbose entity master rules k algo timeout max_steps strict metrics
    trace =
  setup_logs verbose;
  run_with_obs ~metrics ~trace @@ fun () ->
  let cfg =
    Pipeline.config ?master
      ~limits:(limits_of ~timeout ~max_steps)
      ~entity ~rules
      (Pipeline.Topk { k; algo })
  in
  match Pipeline.run cfg with
  | Error (Robust.Error.Order_conflict { rule; detail } as e) ->
      Format.printf "not Church-Rosser (%s: %s); revise the rules first@." rule
        detail;
      Robust.Error.exit_code e
  | Error e -> report_error e
  | Ok report -> print_report ~strict report

let k_arg =
  Arg.(value & opt int 10 & info [ "k" ] ~docv:"K" ~doc:"Number of candidates.")

let algorithm_arg =
  Arg.(
    value
    & opt algorithm_conv `Ct
    & info [ "a"; "algorithm" ] ~docv:"ALG"
        ~doc:"One of topkct, topkcth, rankjoin.")

let topk_cmd =
  Cmd.v
    (Cmd.info "topk" ~doc:"Compute top-k candidate target tuples.")
    Term.(
      const topk $ verbose_arg $ entity_arg $ master_arg $ rules_arg $ k_arg
      $ algorithm_arg $ timeout_arg $ max_steps_arg $ strict_arg $ metrics_arg
      $ trace_spans_arg)

(* ---------------------------------------------------------------- *)
(* generate                                                         *)
(* ---------------------------------------------------------------- *)

let generate verbose dataset out entities seed =
  setup_logs verbose;
  let write name rel =
    let path = Filename.concat out (name ^ ".csv") in
    Relational.Csv.write_file path (Relational.Csv.relation_to_rows rel);
    Format.printf "wrote %s (%d rows)@." path (Relational.Relation.size rel)
  in
  if not (Sys.file_exists out) then Sys.mkdir out 0o755;
  (match dataset with
  | `Med | `Cfp ->
      let ds =
        match dataset with
        | `Med -> Datagen.Med_gen.dataset ~entities ~seed ()
        | _ -> Datagen.Cfp_gen.dataset ~seed ()
      in
      let flat =
        Relational.Relation.make ds.Datagen.Entity_gen.schema
          (List.concat_map
             (fun (e : Datagen.Entity_gen.entity) ->
               Relational.Relation.tuples e.instance)
             ds.entities)
      in
      write "entities" flat;
      write "master" ds.master;
      let rules_path = Filename.concat out "rules.txt" in
      let oc = open_out rules_path in
      output_string oc
        (Rules.Parser.to_string ~schema:ds.schema ~master:ds.master_schema
           (Rules.Ruleset.user_rules ds.ruleset));
      close_out oc;
      Format.printf "wrote %s (%d rules)@." rules_path
        (Rules.Ruleset.size ds.ruleset)
  | `Rest ->
      let ds =
        Datagen.Rest_gen.generate
          (Datagen.Rest_gen.default_config ~restaurants:entities ~seed ())
      in
      let flat =
        Relational.Relation.make ds.Datagen.Rest_gen.schema
          (List.concat_map
             (fun (r : Datagen.Rest_gen.restaurant) ->
               Relational.Relation.tuples r.instance)
             ds.restaurants)
      in
      write "restaurants" flat);
  0

let dataset_conv = Arg.enum [ ("med", `Med); ("cfp", `Cfp); ("rest", `Rest) ]

let generate_cmd =
  Cmd.v
    (Cmd.info "generate" ~doc:"Write a synthetic dataset (CSV + rules) to a directory.")
    Term.(
      const generate $ verbose_arg
      $ Arg.(
          required
          & pos 0 (some dataset_conv) None
          & info [] ~docv:"DATASET" ~doc:"One of med, cfp, rest.")
      $ Arg.(
          value & opt string "./data" & info [ "o"; "out" ] ~docv:"DIR" ~doc:"Output directory.")
      $ Arg.(value & opt int 200 & info [ "n"; "entities" ] ~doc:"Entity count.")
      $ Arg.(value & opt int 1093 & info [ "seed" ] ~doc:"PRNG seed."))

(* ---------------------------------------------------------------- *)
(* experiment                                                       *)
(* ---------------------------------------------------------------- *)

let experiment verbose ids full list_only csv_dir jobs metrics trace =
  setup_logs verbose;
  if list_only then begin
    List.iter
      (fun id ->
        Format.printf "%-8s %s@." id
          (Option.value ~default:"" (Experiments.Registry.describe id)))
      Experiments.Registry.ids;
    0
  end
  else
    run_with_obs ~metrics ~trace @@ fun () ->
    let scale = if full then `Full else `Quick in
    let ids = if ids = [] then Experiments.Registry.ids else ids in
    (match csv_dir with
    | Some dir when not (Sys.file_exists dir) -> Sys.mkdir dir 0o755
    | _ -> ());
    (* Run on the pool (each experiment is independent), but print —
       and write CSVs — serially in id order, so the output is the
       same for every --jobs. *)
    let pool = Parallel.Pool.create ~jobs () in
    let reports =
      Parallel.Pool.map pool
        (fun id -> Experiments.Registry.run ~scale id)
        (Array.of_list ids)
    in
    let code = ref 0 in
    List.iteri
      (fun i id ->
        match reports.(i) with
        | Some report ->
            Experiments.Report.print report;
            (match csv_dir with
            | Some dir ->
                Format.printf "  (csv: %s)@."
                  (Experiments.Report.write_csv ~dir report)
            | None -> ());
            Format.printf "@."
        | None ->
            Format.eprintf "unknown experiment id %s@." id;
            code := 1)
      ids;
    !code

let experiment_cmd =
  Cmd.v
    (Cmd.info "experiment"
       ~doc:"Reproduce the paper's figures and tables (all ids when none given).")
    Term.(
      const experiment $ verbose_arg
      $ Arg.(value & pos_all string [] & info [] ~docv:"ID")
      $ Arg.(value & flag & info [ "full" ] ~doc:"Paper-scale workloads (slow).")
      $ Arg.(value & flag & info [ "list" ] ~doc:"List experiment ids.")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "csv" ] ~docv:"DIR" ~doc:"Also write each report as DIR/<id>.csv.")
      $ jobs_arg $ metrics_arg $ trace_spans_arg)

(* ---------------------------------------------------------------- *)
(* rules                                                            *)
(* ---------------------------------------------------------------- *)

let rules_cmd_impl verbose entity master rules =
  setup_logs verbose;
  match Pipeline.load_spec ?master ~entity ~rules () with
  | Error e -> report_error e
  | Ok spec ->
      let ruleset = Core.Specification.ruleset spec in
      Format.printf "%d rules (%d form (1), %d form (2)), all valid:@."
        (Rules.Ruleset.size ruleset)
        (Rules.Ruleset.form1_count ruleset)
        (Rules.Ruleset.form2_count ruleset);
      print_string
        (Rules.Parser.to_string
           ~schema:(Core.Specification.schema spec)
           ?master:(Rules.Ruleset.master_schema ruleset)
           (Rules.Ruleset.user_rules ruleset));
      (* Σ's redundancy, for its author to revise (§4): as comments,
         so the echo still parses. *)
      List.iter
        (fun (r, by) ->
          Format.printf "# %s adds no ground step: subsumed by %s@." (Rules.Ar.name r)
            (Rules.Ar.name by))
        (Rules.Ruleset.subsumed ruleset);
      0

let rules_cmd =
  Cmd.v
    (Cmd.info "rules"
       ~doc:
         "Parse, validate and echo an accuracy-rule file, then list each rule that an \
          earlier one subsumes (it adds no ground step).")
    Term.(const rules_cmd_impl $ verbose_arg $ entity_arg $ master_arg $ rules_arg)

(* ---------------------------------------------------------------- *)
(* explain                                                          *)
(* ---------------------------------------------------------------- *)

let explain verbose entity master rules attr =
  setup_logs verbose;
  match Pipeline.load_spec ?master ~entity ~rules () with
  | Error e -> report_error e
  | Ok spec -> (
      let compiled = Core.Is_cr.compile spec in
      let schema = Core.Specification.schema spec in
      match attr with
      | Some name -> (
          match Relational.Schema.index_opt schema name with
          | None ->
              Format.eprintf "unknown attribute %S@." name;
              1
          | Some a ->
              Format.printf "%a@."
                (Core.Explain.pp schema)
                (Core.Explain.attribute compiled a);
              0)
      | None ->
          List.iter
            (Format.printf "%a@." (Core.Explain.pp schema))
            (Core.Explain.all compiled);
          Format.printf "rules used: %s@."
            (String.concat ", " (Core.Explain.rules_used compiled));
          0)

let explain_cmd =
  Cmd.v
    (Cmd.info "explain"
       ~doc:"Show the chase derivation behind each deduced target value.")
    Term.(
      const explain $ verbose_arg $ entity_arg $ master_arg $ rules_arg
      $ Arg.(
          value
          & opt (some string) None
          & info [ "attr" ] ~docv:"NAME" ~doc:"Explain one attribute only."))

(* ---------------------------------------------------------------- *)
(* clean                                                            *)
(* ---------------------------------------------------------------- *)

let clean_impl verbose entity master rules out key_attrs threshold timeout
    max_steps retries jobs strict metrics trace =
  setup_logs verbose;
  run_with_obs ~metrics ~trace @@ fun () ->
  let cfg =
    Pipeline.config ?master
      ~limits:(limits_of ~timeout ~max_steps)
      ~entity ~rules
      (Pipeline.Clean { key_attrs; threshold; retries; jobs })
  in
  match Pipeline.run cfg with
  | Error e -> report_error e
  | Ok report -> print_report ~strict ?out report

let clean_cmd =
  Cmd.v
    (Cmd.info "clean"
       ~doc:
         "Clean a whole dirty relation: ER-cluster it, deduce a target tuple per           entity, complete with top-1 candidates.")
    Term.(
      const clean_impl $ verbose_arg $ entity_arg $ master_arg $ rules_arg
      $ Arg.(
          value
          & opt (some string) None
          & info [ "o"; "out" ] ~docv:"CSV" ~doc:"Write the cleaned relation here.")
      $ Arg.(
          value & opt_all string []
          & info [ "key" ] ~docv:"ATTR" ~doc:"ER blocking/matching attribute (repeatable).")
      $ Arg.(
          value & opt float 0.72
          & info [ "threshold" ] ~doc:"ER similarity threshold.")
      $ timeout_arg $ max_steps_arg
      $ Arg.(
          value & opt int 1
          & info [ "retries" ] ~docv:"N"
              ~doc:"Budget-relax retries per exhausted entity before quarantine.")
      $ jobs_arg $ strict_arg $ metrics_arg $ trace_spans_arg)

(* ---------------------------------------------------------------- *)

let main_cmd =
  Cmd.group
    (Cmd.info "relacc" ~version:"1.0.0"
       ~doc:"Determining the relative accuracy of attributes (SIGMOD 2013).")
    [
      demo_cmd; chase_cmd; topk_cmd; generate_cmd; experiment_cmd; rules_cmd;
      explain_cmd; clean_cmd;
    ]

let () = exit (Cmd.eval' main_cmd)
