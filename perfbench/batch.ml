(* batch-med2700: a one-shot clean of a paper-scale Med corpus,
   cold, through Pipeline.load_spec and Pipeline.execute. *)

module Pipeline = Framework.Pipeline
module Cleaner = Framework.Cleaner
module Relation = Relational.Relation
module Tuple = Relational.Tuple
module Value = Relational.Value

let entities = 2700 (* Med_gen's default corpus size *)

let task =
  Pipeline.Clean
    {
      key_attrs = Corpus.key_attrs;
      threshold = Corpus.threshold;
      retries = 1;
      jobs = 1;
    }

let clean spec =
  match Pipeline.execute spec task with
  | Ok { Pipeline.outcome = Pipeline.Cleaned r; _ } -> r
  | Ok _ -> Check.fail "clean: the report is not a clean"
  | Error e -> Check.fail "clean: %s" (Robust.Error.to_string e)

let check_report (r : Cleaner.report) =
  if not (Check.consistent r) then Check.fail "clean: inconsistent report";
  r

(* ------------------------------------------------------------------ *)
(* The timed run                                                       *)
(* ------------------------------------------------------------------ *)

(* The report digest of a seed's corpus must match the one recorded by
   the checkout's first run on it, timed or traced. *)
let record_digest (ctx : Ctx.t) seed r =
  Check.record_digest ~dir:ctx.record_dir
    ~key:(Printf.sprintf "batch-med2700-%d" seed)
    (Check.digest r)

let run (ctx : Ctx.t) =
  (* A fixed number of whole cold cleans, one per 15 s of the run, so
     every run of a seed does the same work however fast it goes. Each
     cleans a corpus of its own: clean times differ between corpora
     by more than between repeats, so a median over corpora is steadier
     than one over repeated cleans of a single corpus. *)
  let n = max 1 (int_of_float (Float.round (ctx.seconds /. 15.0))) in
  let corpora =
    List.map
      (fun seed -> (seed, Corpus.generate ~dir:ctx.dir ~entities seed))
      (Corpus.seeds ~n ctx.seed)
  in
  let loads = ref [] in
  let cold_load corpus =
    Gc.full_major ();
    let spec, ms = Measure.time (fun () -> Corpus.cold_load corpus) in
    loads := ms :: !loads;
    spec
  in
  for _ = 1 to 4 do
    ignore (cold_load (snd (List.hd corpora)) : Core.Specification.t)
  done;
  let runs =
    List.map
      (fun (seed, corpus) ->
        let spec = cold_load corpus in
        Gc.full_major ();
        let r, ms = Measure.time (fun () -> clean spec) in
        (seed, check_report r, ms))
      corpora
  in
  let peak_rss_mb = Measure.peak_rss_mb "self" in
  List.iter (fun (seed, r, _) -> record_digest ctx seed r) runs;
  let clean_ms = List.map (fun (_, _, ms) -> ms) runs in
  let count f = List.fold_left (fun acc (_, r, _) -> acc + f r) 0 runs in
  Printf.eprintf "batch-med2700 seed %d: cleans %s ms\n%!" ctx.seed
    (String.concat " "
       (List.map
          (fun (seed, (r : Cleaner.report), ms) ->
            Printf.sprintf "%.0f (corpus %d, %d entities)" ms seed r.entities)
          runs));
  {
    Ctx.attempted = count (fun r -> r.entities);
    failed = count (fun r -> r.quarantined);
    metrics =
      [
        ("setup_s", Measure.median !loads /. 1000.0);
        (* No incremental path: an update costs a full cold clean. *)
        ("update_p50_ms", Measure.median clean_ms);
        ("peak_rss_mb", peak_rss_mb);
      ];
  }

(* ------------------------------------------------------------------ *)
(* The traced run: Cleaner.process_entity rebuilt from public calls   *)
(* ------------------------------------------------------------------ *)

(* Milliseconds per layer, summed over the entities of one clean. *)
type layers = {
  mutable spec_ms : float;
  mutable compile_ms : float;
  mutable chase_ms : float;
  mutable topk_ms : float;
  mutable topk_calls : int;
  mutable topk_found : int;
  mutable exhausted_ms : float;
  mutable entity_ms : float list;
}

let timed acc f =
  let r, ms = Measure.time f in
  acc ms;
  r

let count_changes instance target =
  let base = Truth.Voting.resolve instance in
  let changed = ref 0 in
  Array.iteri
    (fun a v ->
      if (not (Value.is_null v)) && not (Value.equal v base.(a)) then
        incr changed)
    target;
  !changed

(* One entity, exactly as Cleaner.process_entity cleans it under an
   unlimited budget (no retry can fire) and the default 2000-pop
   top-1 cap, with each layer's call timed. *)
let process_entity l ?master ruleset instance =
  let result outcome tuple changes nulls =
    {
      Cleaner.r_tuple = Tuple.make tuple;
      r_outcome = outcome;
      r_retries = 0;
      r_changes = changes;
      r_chase_nulls = nulls;
    }
  in
  let quarantine err =
    Cleaner.quarantined_of_tuples (Relation.schema instance)
      (Relation.tuples instance) err
  in
  match
    timed
      (fun ms -> l.spec_ms <- l.spec_ms +. ms)
      (fun () -> Core.Specification.make ~entity:instance ?master ruleset)
  with
  | Error e -> quarantine (Robust.Error.spec_invalid e)
  | Ok spec -> (
      match
        let compiled =
          timed
            (fun ms -> l.compile_ms <- l.compile_ms +. ms)
            (fun () -> Framework.Compile_cache.compile spec)
        in
        let verdict =
          timed
            (fun ms -> l.chase_ms <- l.chase_ms +. ms)
            (fun () -> Core.Is_cr.run_compiled compiled)
        in
        (compiled, verdict)
      with
      | exception e -> quarantine (Robust.Error.of_exn e)
      | _, Core.Is_cr.Not_church_rosser { rule; _ } ->
          result (Cleaner.Not_church_rosser rule)
            (Truth.Voting.resolve instance) 0 []
      | compiled, Core.Is_cr.Church_rosser inst ->
          let te = Core.Instance.te inst in
          if Core.Instance.te_complete inst then
            result Cleaner.Complete te (count_changes instance te) []
          else begin
            let nulls = Core.Instance.null_attrs inst in
            let solved, ms =
              Measure.time (fun () ->
                  let pref = Topk.Preference.of_occurrences instance in
                  Topk.solve ~algo:`Ct ~max_pops:2000 ~k:1 ~pref compiled te)
            in
            l.topk_ms <- l.topk_ms +. ms;
            l.topk_calls <- l.topk_calls + 1;
            let targets =
              match solved with
              | Ok o ->
                  if o.Topk.exhausted <> None then
                    l.exhausted_ms <- l.exhausted_ms +. ms;
                  o.Topk.targets
              | Error _ -> []
            in
            match targets with
            | best :: _ ->
                l.topk_found <- l.topk_found + 1;
                result Cleaner.Completed_by_topk best
                  (count_changes instance best) nulls
            | [] ->
                result Cleaner.Still_incomplete te (count_changes instance te)
                  nulls
          end)

let traced_clean spec =
  let dirty = Core.Specification.entity spec in
  let master = Core.Specification.master spec in
  let ruleset = Core.Specification.ruleset spec in
  let schema = Relation.schema dirty in
  let er = Corpus.er_config schema in
  let l =
    {
      spec_ms = 0.0;
      compile_ms = 0.0;
      chase_ms = 0.0;
      topk_ms = 0.0;
      topk_calls = 0;
      topk_found = 0;
      exhausted_ms = 0.0;
      entity_ms = [];
    }
  in
  let start = Measure.now_ms () in
  let clusters, cluster_ms =
    Measure.time (fun () -> Er.Resolver.cluster er dirty)
  in
  let results =
    Array.map
      (fun members ->
        let r, ms =
          Measure.time (fun () ->
              let instance =
                Relation.make schema (List.map (Relation.tuple dirty) members)
              in
              process_entity l ?master ruleset instance)
        in
        l.entity_ms <- ms :: l.entity_ms;
        r)
      (Array.of_list clusters)
  in
  let report, assemble_ms =
    Measure.time (fun () -> Cleaner.assemble schema results)
  in
  let wall_ms = Measure.now_ms () -. start in
  let layer_ms =
    cluster_ms +. l.spec_ms +. l.compile_ms +. l.chase_ms +. l.topk_ms
    +. assemble_ms
  in
  ( report,
    wall_ms,
    [
      ("core.spec_ms", l.spec_ms);
      ("framework.compile_ms", l.compile_ms);
      ("core.chase_ms", l.chase_ms);
      ("topk.solve_ms", l.topk_ms);
      ("topk.calls", float_of_int l.topk_calls);
      ( "topk.found_frac",
        if l.topk_calls = 0 then 0.0
        else float_of_int l.topk_found /. float_of_int l.topk_calls );
      ("topk.exhausted_ms", l.exhausted_ms);
      ("framework.assemble_ms", assemble_ms);
      ("framework.entity_p50_ms", Measure.median l.entity_ms);
      ("framework.entity_p99_ms", Measure.quantile 0.99 l.entity_ms);
      ("framework.entity_max_ms", Measure.quantile 1.0 l.entity_ms);
      ("trace.clean_ms", wall_ms);
      ("trace.layer_coverage", layer_ms /. wall_ms);
    ] )

let trace (ctx : Ctx.t) =
  let corpus = Corpus.generate ~dir:ctx.dir ~entities ctx.seed in
  (* The end-to-end path, untraced: the reference report. *)
  let reference = check_report (clean (Corpus.cold_load corpus)) in
  record_digest ctx ctx.seed reference;
  (* The relational layer: reading the two CSVs. *)
  let _, load_ms =
    Measure.time (fun () ->
        List.iter
          (fun path ->
            match Relational.Csv.read_relation path with
            | Ok _ -> ()
            | Error e -> Check.fail "%s" (Robust.Error.to_string e))
          [ corpus.flat; corpus.master ])
  in
  let er = Corpus.er_probe (Core.Specification.entity (Corpus.load corpus)) in
  Obs.reset ();
  Obs.set_enabled true;
  let spec = Corpus.cold_load corpus in
  let misses0 = (Framework.Compile_cache.stats ()).misses in
  let counters0 = Measure.read_counters () in
  Gc.full_major ();
  let report, traced_ms, layers = traced_clean spec in
  let counters = Measure.counters_since counters0 in
  let misses = (Framework.Compile_cache.stats ()).misses - misses0 in
  Obs.set_enabled false;
  Check.same_report ~what:"traced clean vs Pipeline.execute" reference report;
  (* The same work untraced, for the tracing overhead: Cleaner.clean
     runs process_entity without the timers (Pipeline.execute also
     maintains a session, so its wall is not comparable). *)
  let spec = Corpus.cold_load corpus in
  Gc.full_major ();
  let untraced, untraced_ms =
    Measure.time (fun () ->
        Cleaner.clean
          ~er:(Corpus.er_config (Core.Specification.schema spec))
          ?master:(Core.Specification.master spec)
          (Core.Specification.ruleset spec)
          (Core.Specification.entity spec))
  in
  Check.same_report ~what:"Cleaner.clean vs Pipeline.execute" reference untraced;
  {
    Ctx.attempted = report.entities;
    failed = report.quarantined;
    metrics =
      [
        ("relational.load_ms", load_ms);
        ("framework.compile_misses", float_of_int misses);
        ("trace.overhead_ms", traced_ms -. untraced_ms);
      ]
      @ counters @ er @ layers;
  }
