(* Benchmark baselines: writes the BENCH_*.json files committed at the
   repo root, which bench/diff.exe gates a fresh run against.

   Usage: bench/main.exe [DIR]     (DIR defaults to ".")

   Each kernel suite times every kernel with Util.Timing.best_of (Obs
   off) and pairs that wall time with the Obs work counters and
   minor-heap words of one instrumented run:
   - BENCH_chase.json: IsCR's chase and compile (§4/§5), Fig. 4's
     counter index against the naive rescanning chase (the test
     suite's reference chase over the literal Γ), the Thm 3
     candidate check (the unit cost c of §6), and one Fig. 3 round as
     a kept fill on a resumable chase state against a re-chase;
   - BENCH_ground.json: instantiation in isolation;
   - BENCH_topk.json: the three top-k algorithms (§6), |Im| scaling, a
     capped search, and the frontier queues (§6.2's Brodal queue
     against simpler heaps) on the queue's own operation mix;
   - BENCH_truth.json: the truth-discovery baselines of Table 4;
   - BENCH_clean.json (batch cleaning at 1/2/4 worker domains),
     BENCH_er.json (entity resolution at 1k to 8k entities) and
     BENCH_load.json (CSV and rule loading at the paper's scale).
   BENCH_update.json drives session updates over a size series, and
   BENCH_serve.json the long-lived service under the soak driver's
   mixed traffic (SLO latency quantiles, throughput and shed/degraded
   counts at 1 and host_domains workers).

   Every file's header records the suite, best_of, the host's domain
   count and the commit the run was built from. The paper's §7 tables
   and figures are reproduced by `relacc experiment`, not here. *)

(* Fixtures are built once, outside the timed region. *)

let mj_spec = Datagen.Mj.specification
let mj_compiled = Core.Is_cr.compile mj_spec
let med = Datagen.Med_gen.dataset ~entities:120 ~seed:31 ()

let med_entity =
  (* A mid-sized Med entity: the per-entity workload of Fig. 6(a). *)
  List.find
    (fun (e : Datagen.Entity_gen.entity) ->
      Relational.Relation.size e.instance >= 4)
    med.entities

let med_spec = Datagen.Entity_gen.spec_for med med_entity
let med_compiled = Core.Is_cr.compile med_spec
let syn = Datagen.Syn_gen.dataset ~ie:300 ~im:100 ~sigma:60 ~seed:7 ()
let syn_compiled = Core.Is_cr.compile syn.spec

let syn_te =
  match Core.Is_cr.run_compiled syn_compiled with
  | Core.Is_cr.Church_rosser inst -> Core.Instance.te inst
  | Core.Is_cr.Not_church_rosser _ -> failwith "Syn must be Church-Rosser"

let med_te =
  match Core.Is_cr.run_compiled med_compiled with
  | Core.Is_cr.Church_rosser inst -> Core.Instance.te inst
  | Core.Is_cr.Not_church_rosser _ -> failwith "Med must be Church-Rosser"

let med_pref = Topk.Preference.of_occurrences med_entity.instance

(* Top-k through the facade; bench kernels discard the outcome. *)
let solve algo ~k ~pref compiled te =
  match Topk.solve ~algo ~k ~pref compiled te with
  | Ok outcome -> outcome.Topk.targets
  | Error _ -> []

let syn_candidate =
  (* A complete candidate for check(): top-1 of TopKCT. *)
  match solve `Ct ~k:1 ~pref:syn.pref syn_compiled syn_te with
  | t :: _ -> t
  | [] -> failwith "Syn must have a candidate target"

let rest =
  Datagen.Rest_gen.generate
    (Datagen.Rest_gen.default_config ~restaurants:120 ~seed:11 ())

let rest_claims = Datagen.Rest_gen.claims rest

(* A Med entity whose chase leaves a null, and the value a user would
   fill it with: the fixture of the kept-fill rows. *)
let incomplete_entity =
  List.find
    (fun (e : Datagen.Entity_gen.entity) ->
      match Core.Is_cr.run (Datagen.Entity_gen.spec_for med e) with
      | Core.Is_cr.Church_rosser inst -> not (Core.Instance.te_complete inst)
      | Core.Is_cr.Not_church_rosser _ -> false)
    med.entities

let incomplete_compiled =
  Core.Is_cr.compile (Datagen.Entity_gen.spec_for med incomplete_entity)

let fill_attr, fill_value =
  match Core.Is_cr.run_compiled incomplete_compiled with
  | Core.Is_cr.Church_rosser inst -> (
      match Core.Instance.null_attrs inst with
      | a :: _ -> (a, (Datagen.Entity_gen.annotate med incomplete_entity).(a))
      | [] -> failwith "needs a null attr")
  | Core.Is_cr.Not_church_rosser _ -> failwith "must be CR"

(* Each kernel is timed with Obs off (best of [json_repeats] runs),
   then run once more with Obs on to capture the work counters that
   explain the number — steps fired, candidates checked, queue
   high-water marks. *)

let json_repeats = 5

(* One Fig. 3 round: a kept fill on a resumable chase state, or the
   same fill as the template of a chase from scratch. *)
let kept_fill () =
  let state = Core.Is_cr.start incomplete_compiled in
  if Core.Is_cr.conflict state <> None then failwith "CR expected";
  ignore (Core.Is_cr.fill state [ (fill_attr, fill_value) ])

let rechase () =
  ignore (Core.Is_cr.run_compiled incomplete_compiled);
  let template =
    Array.make
      (Relational.Schema.arity
         (Core.Specification.schema (Core.Is_cr.compiled_spec incomplete_compiled)))
      Relational.Value.Null
  in
  template.(fill_attr) <- fill_value;
  ignore (Core.Is_cr.run_compiled ~template incomplete_compiled)

(* The naive-rescan rows against the iscr rows of the same spec are
   Fig. 4's index ablation. *)
let chase_kernels =
  [
    ("iscr-mj", fun () -> ignore (Core.Is_cr.run_compiled mj_compiled));
    ("iscr-med", fun () -> ignore (Core.Is_cr.run_compiled med_compiled));
    ("iscr-syn300", fun () -> ignore (Core.Is_cr.run_compiled syn_compiled));
    ("compile-med", fun () -> ignore (Core.Is_cr.compile med_spec));
    ("naive-rescan-mj", fun () -> ignore (Oracle.Chase.run mj_spec));
    ("naive-rescan-med", fun () -> ignore (Oracle.Chase.run med_spec));
    ("check-syn300", fun () -> ignore (Core.Is_cr.check syn_compiled syn_candidate));
    ("state-start-plus-kept-fill", kept_fill);
    ("rechase-from-scratch", rechase);
  ]

(* |Im| scaling: one Med entity solved against masters of 2k and 8k
   rows — the same corpus's master cut to size, so the entity, its
   rules and its top-k search stay the same while the master grows.
   The entity is one whose top-k domain takes master values (a null
   covered attribute). Everything but the solve — corpus, specs,
   compiled forms, te, and the master index's memoized columns (a
   warm-up solve) — is built outside the timed region. *)
let im_scaling =
  lazy
    (let ds = Datagen.Med_gen.dataset ~entities:9_000 ~seed:31 () in
     let setup rows e =
       let sized = Datagen.Entity_gen.with_master_size ds rows in
       let spec = Datagen.Entity_gen.spec_for sized e in
       let compiled = Core.Is_cr.compile spec in
       match Core.Is_cr.run_compiled compiled with
       | Core.Is_cr.Church_rosser inst ->
           let te = Core.Instance.te inst in
           let master_fed a =
             Relational.Value.is_null te.(a)
             && List.length (Topk.Active_domain.values spec a)
                > Relational.Relation.size e.Datagen.Entity_gen.instance + 100
           in
           if List.exists master_fed (List.init (Array.length te) Fun.id) then
             Some (compiled, te, Topk.Preference.of_occurrences e.instance)
           else None
       | Core.Is_cr.Not_church_rosser _ -> None
     in
     let e, small =
       List.find_map
         (fun (e : Datagen.Entity_gen.entity) ->
           Option.map (fun s -> (e, s)) (setup 2_000 e))
         ds.entities
       |> Option.get
     in
     let large = Option.get (setup 8_000 e) in
     List.iter
       (fun (compiled, te, pref) -> ignore (solve `Ct ~k:15 ~pref compiled te))
       [ small; large ];
     (small, large))

let im_kernel pick () =
  let compiled, te, pref = pick (Lazy.force im_scaling) in
  ignore (solve `Ct ~k:15 ~pref compiled te)

(* The shape behind perfbench's topk.exhausted_ms: a Med entity whose
   cleaning top-1 call (TopKCT under the Cleaner's 2,000-pop cap) runs
   out of pops without a target. Almost every pop is a rejection, so
   the row pins how many of them stored nogoods answer
   (chase_nogood_hits_total) and what learning them cost
   (chase_nogood_probes_total). The entity, the first such one of a
   400-entity Med corpus, is found outside the timed region. *)
let capped =
  lazy
    (let ds = Datagen.Med_gen.dataset ~entities:400 ~seed:31 () in
     List.find_map
       (fun (e : Datagen.Entity_gen.entity) ->
         let compiled = Core.Is_cr.compile (Datagen.Entity_gen.spec_for ds e) in
         match Core.Is_cr.run_compiled compiled with
         | Core.Is_cr.Church_rosser inst when not (Core.Instance.te_complete inst) -> (
             let te = Core.Instance.te inst
             and pref = Topk.Preference.of_occurrences e.instance in
             match Topk.solve ~algo:`Ct ~max_pops:Topk.exploration_cap ~k:1 ~pref compiled te with
             | Ok { Topk.targets = []; exhausted = Some _; _ } -> Some (compiled, te, pref)
             | _ -> None)
         | _ -> None)
       ds.entities
     |> Option.get)

let capped_kernel () =
  let compiled, te, pref = Lazy.force capped in
  ignore (Topk.solve ~algo:`Ct ~max_pops:Topk.exploration_cap ~k:1 ~pref compiled te)

(* TopKCT's frontier queue: the paper's Brodal queue against simpler
   heaps (TopKCT runs on the binary heap), on the queue's own
   operation mix — 1,000 inserts of scattered keys, then a drain. *)
let queue_keys = Array.init 1_000 (fun i -> i * 7919 mod 1_000)

let insert_pop ~empty ~insert ~pop () =
  let rec drain q = match pop q with Some (_, q') -> drain q' | None -> () in
  drain (Array.fold_left (fun q k -> insert k q) empty queue_keys)

let binary_insert_pop () =
  let q = Pqueue.Binary_heap.create ~cmp:Int.compare in
  Array.iter (Pqueue.Binary_heap.add q) queue_keys;
  while not (Pqueue.Binary_heap.is_empty q) do
    ignore (Pqueue.Binary_heap.pop q : int option)
  done

let topk_kernels =
  [
    ( "topkct-syn300-k5",
      fun () -> ignore (solve `Ct ~k:5 ~pref:syn.pref syn_compiled syn_te) );
    ( "topkcth-syn300-k5",
      fun () -> ignore (solve `Ct_h ~k:5 ~pref:syn.pref syn_compiled syn_te) );
    ( "rankjoin-syn300-k5",
      fun () -> ignore (solve `Rank_join ~k:5 ~pref:syn.pref syn_compiled syn_te)
    );
    ( "topkct-med-k15",
      fun () -> ignore (solve `Ct ~k:15 ~pref:med_pref med_compiled med_te) );
    ("topkct-med-im2k", im_kernel fst);
    ("topkct-med-im8k", im_kernel snd);
    ("topkct-med-capped", capped_kernel);
    ( "brodal-insert-pop",
      insert_pop
        ~empty:(Pqueue.Brodal_queue.empty ~cmp:Int.compare)
        ~insert:Pqueue.Brodal_queue.insert ~pop:Pqueue.Brodal_queue.pop );
    ( "pairing-insert-pop",
      insert_pop
        ~empty:(Pqueue.Pairing_heap.empty ~cmp:Int.compare)
        ~insert:Pqueue.Pairing_heap.insert ~pop:Pqueue.Pairing_heap.pop );
    ("binary-insert-pop", binary_insert_pop);
    ( "skew-binomial-insert-pop",
      let leq a b = a <= b in
      insert_pop ~empty:Pqueue.Skew_binomial.empty
        ~insert:(Pqueue.Skew_binomial.insert ~leq)
        ~pop:(Pqueue.Skew_binomial.pop ~leq) );
  ]

(* The truth-discovery baselines of Table 4: copyCEF on the Rest
   claims, voting and DeduceOrder on one Med entity. *)
let truth_kernels =
  [
    ("copycef-120rest", fun () -> ignore (Truth.Copy_cef.run ~num_sources:12 rest_claims));
    ("voting-med-entity", fun () -> ignore (Truth.Voting.resolve med_entity.instance));
    ( "deduceorder-med-entity",
      fun () -> ignore (Truth.Deduce_order.resolve ~ruleset:med.ruleset med_entity.instance) );
  ]

(* Batch cleaning at 1/2/4 worker domains — the same batch, the same
   (byte-identical) report, only the wall time moves. The fixture is
   built once, outside the timed region. Speedup tracks the host's
   real parallelism (the "host_domains" field of the JSON): with
   fewer cores than jobs, domains cost instead of pay — OCaml 5
   minor collections synchronise every domain, so oversubscription
   is actively slower than serial, not just flat. *)

let clean_batch =
  lazy
    (let ds = Datagen.Med_gen.dataset ~entities:60 ~seed:44 () in
     let flat =
       Relational.Relation.make ds.schema
         (List.concat_map
            (fun (e : Datagen.Entity_gen.entity) ->
              Relational.Relation.tuples e.instance)
            ds.entities)
     in
     let clusters, _ =
       List.fold_left
         (fun (acc, offset) (e : Datagen.Entity_gen.entity) ->
           let n = Relational.Relation.size e.instance in
           (List.init n (fun i -> offset + i) :: acc, offset + n))
         ([], 0) ds.entities
     in
     (ds, flat, List.rev clusters))

let clean_kernel jobs () =
  let ds, flat, clusters = Lazy.force clean_batch in
  ignore
    (Framework.Cleaner.clean ~clusters ~master:ds.master ~jobs ds.ruleset flat
      : Framework.Cleaner.report)

let clean_kernels =
  [
    ("clean-med60-jobs1", clean_kernel 1);
    ("clean-med60-jobs2", clean_kernel 2);
    ("clean-med60-jobs4", clean_kernel 4);
  ]

(* The resolver configuration of a Clean task on a Med corpus: its
   keys, each weighted 1, Soundex blocks, threshold 0.72. *)
let med_er (ds : Datagen.Entity_gen.dataset) =
  {
    (Er.Resolver.default_config ~key_attrs:ds.config.keys
       ~compare_attrs:(List.map (fun a -> (a, 1.0)) ds.config.keys))
    with
    use_soundex = true;
    threshold = 0.72;
  }

(* Entity resolution alone: Er.Resolver.cluster over the flattened
   Med corpus (seed 1) at 1k, 2k, 4k and 8k entities, a size series
   for clustering's growth. Blocked pairs grow faster than the corpus
   (Soundex codes are few), so the series shows how much of that
   pair growth the pruning absorbs; the counters pin its work: pairs
   blocked, scored and rejected by a bound, DPs run and cut off.
   Corpora are generated before any row is timed. *)
let er_kernels () =
  List.map
    (fun (name, entities) ->
      let ds = Datagen.Med_gen.dataset ~entities ~seed:1 () in
      let er = med_er ds and flat = Datagen.Update_gen.flatten ds in
      (name, fun () -> ignore (Er.Resolver.cluster er flat : int list list)))
    [
      ("er-med-1k", 1_000);
      ("er-med-2k", 2_000);
      ("er-med-4k", 4_000);
      ("er-med-8k", 8_000);
    ]

(* Loading alone: Pipeline.load_spec on the seed-1 Med corpus at
   Med_gen's default size (2,700 entities, about 8.4k entity tuples and
   2.4k master rows), the cold set-up of a paper-scale clean. The
   corpus is written once, before any timing, to a directory that
   later runs reuse; the counters pin the rows and cells read and how
   many cells the per-column spelling caches answered. *)
let load_kernels () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "relacc_bench_load" in
  let c = Service.Driver.ensure_corpus ~dir ~entities:2_700 ~seed:1 in
  [
    ( "load-med2700",
      fun () ->
        match
          Framework.Pipeline.load_spec ~master:c.master ~entity:c.flat
            ~rules:c.rules ()
        with
        | Ok _ -> ()
        | Error e -> failwith (Robust.Error.to_string e) );
  ]

(* Grounding in isolation (§5 instantiation, [Ground.instantiate]):
   wall time, steps emitted vs dedup-discarded and templates deferred
   (via the instantiation counters), and minor-heap words — the
   packed-key dedup's whole point is to keep the hot path off the
   allocator, so the allocation volume is part of the baseline. Each
   invocation grounds in a fresh scope (a fresh master index, whose
   generation is filled with the columns the rules read, and an
   entity generation over it) so the measurement includes the
   interning work instead of riding a warm shared table; [step]
   records are never decoded here. *)
let ground_kernel spec () =
  let master = Option.map Rules.Master_index.create (Core.Specification.master spec) in
  ignore
    (Rules.Ground.instantiate
       ~intern:
         (match master with
         | Some midx -> Rules.Master_index.extend midx (Core.Specification.ruleset spec)
         | None -> Relational.Intern.create ())
       ~ruleset:(Core.Specification.ruleset spec)
       ~entity:(Core.Specification.entity spec)
       ~master
       ~orders:(Core.Specification.numbering spec)
       ()
      : Rules.Ground.t)

let getenv_int name default =
  match Sys.getenv_opt name with
  | Some s -> ( match int_of_string_opt s with Some n -> n | None -> default)
  | None -> default

(* The template headline: a realistically small entity joined
   against a master orders of magnitude larger. Γ emits one template
   per joined form-(2) rule and leaves the rows to the residual index,
   so grounding stays independent of |Im| (the rows deferred show up
   as instantiation_steps_deferred_total in the counters).
   RELACC_GROUND_IM shrinks the master for smoke runs. *)
let syn_master10k =
  Datagen.Syn_gen.dataset ~ie:30
    ~im:(getenv_int "RELACC_GROUND_IM" 10_000)
    ~sigma:30 ~seed:7 ()

let ground_kernels =
  [
    ("ground-mj", ground_kernel mj_spec);
    ("ground-med", ground_kernel med_spec);
    ("ground-syn300", ground_kernel syn.spec);
    ("ground-master10k", ground_kernel syn_master10k.spec);
  ]

let measure_kernel f =
  Obs.set_enabled false;
  let _, ms = Util.Timing.best_of json_repeats f in
  Obs.set_enabled true;
  Obs.reset ();
  (* The instrumented run also meters allocation as minor-heap words
     ([Gc.quick_stat] sums every domain); Obs counters are plain
     atomics, so their own footprint is noise-level. On OCaml 5.1 the
     counters see minor-heap words only when a minor collection runs,
     so an unflushed read is quantized by the minor heap: flush before
     each read. Major words are not reported: they move with which
     other fixtures are live (iscr-mj read 26 kB or 533 kB allocated
     in all, as a smoke run or a full one, on the same 3,309 minor
     words), while minor words repeat. *)
  let minor_words () = (Gc.quick_stat ()).minor_words in
  Gc.minor ();
  let minor0 = minor_words () in
  f ();
  Gc.minor ();
  let minor1 = minor_words () in
  Obs.set_enabled false;
  let counters =
    List.filter_map
      (function
        | name, Obs.Counter v when v > 0 -> Some (name, v) | _ -> None)
      (Obs.snapshot ())
  in
  (ms, minor1 -. minor0, counters)

(* The commit the run was built from, "unknown" outside a git checkout. *)
let commit =
  lazy
    (match Unix.open_process_in "git describe --always --dirty 2>/dev/null" with
    | exception Unix.Unix_error _ -> "unknown"
    | ic -> (
        let out = String.trim (In_channel.input_all ic) in
        match Unix.close_process_in ic with
        | Unix.WEXITED 0 when out <> "" -> out
        | _ -> "unknown"))

(* Every BENCH file: one header, then one result row per line. *)
let write_bench ?(exponent = []) ~dir ~suite ~best_of rows =
  let path = Filename.concat dir (Printf.sprintf "BENCH_%s.json" suite) in
  Out_channel.with_open_bin path (fun oc ->
      Printf.fprintf oc "{\"suite\":\"%s\",\"best_of\":%d,\"host_domains\":%d,\"commit\":\"%s\"" suite
        best_of
        (Domain.recommended_domain_count ())
        (Lazy.force commit);
      if exponent <> [] then
        Printf.fprintf oc ",\"exponent\":{%s}"
          (String.concat "," (List.map (fun (k, v) -> Printf.sprintf "\"%s\":%.3f" k v) exponent));
      Printf.fprintf oc ",\"results\":[\n%s\n]}\n" (String.concat ",\n" rows));
  Format.printf "wrote %s@." path

let write_suite ?(informational = fun _ -> false) ~dir ~suite kernels =
  write_bench ~dir ~suite ~best_of:json_repeats
    (List.map
       (fun (name, f) ->
         let ms, minor, counters = measure_kernel f in
         Printf.sprintf
           "  {\"name\":\"%s\",\"ms\":%.6f,\"minor_words\":%.0f%s,\"counters\":{%s}}"
           name ms minor
           (if informational name then ",\"informational\":true" else "")
           (String.concat ","
              (List.map (fun (k, v) -> Printf.sprintf "\"%s\":%d" k v) counters)))
       kernels)

(* The service end to end: an in-process server under the soak
   driver's mixed chase/top-k/clean traffic (no chaos — baselines
   must be about the service, not the fault injector). Unlike the
   kernel suites this measures a concurrent system, so the JSON
   carries the SLO quantiles (median/p95/p99/max per-request
   latency), throughput, and the resilience counters (shed /
   degraded) rather than a single best-of wall time. A deliberately
   shallow queue at jobs=1 makes admission-control shedding part of
   the measured behaviour. *)
let serve_result ~name ~workers =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "relacc_bench_serve" in
  let corpus = Service.Driver.ensure_corpus ~dir ~entities:16 ~seed:31 in
  let server =
    Service.Server.create
      { Service.Server.default_config with workers; queue_depth = 8 }
  in
  Fun.protect ~finally:(fun () -> Service.Server.stop server) @@ fun () ->
  let cfg =
    {
      Service.Driver.default_config with
      requests = 240;
      senders = 8;
      seed = 31;
      tight_rate = 0.1;
      clean_rate = 0.05;
    }
  in
  let outcome =
    Service.Driver.run ~send:(Service.Driver.in_proc_send server) cfg corpus
  in
  let slo = outcome.slo in
  let med, p95, p99, mx =
    match Service.Slo.overall_latency slo with
    | Some q -> q
    | None -> (0.0, 0.0, 0.0, 0.0)
  in
  let ok, degraded = Service.Slo.ok_degraded slo in
  Printf.sprintf
    "  \
     {\"name\":\"%s\",\"requests\":%d,\"throughput_rps\":%.2f,\"latency_ms\":{\"median\":%.4f,\"p95\":%.4f,\"p99\":%.4f,\"max\":%.4f},\"ok\":%d,\"degraded\":%d,\"shed\":%d,\"violations\":%d}"
    name
    (Service.Slo.total slo)
    (float_of_int (Service.Slo.total slo) /. outcome.duration_s)
    med p95 p99 mx ok degraded
    (Service.Slo.error_total slo ~cls:"overloaded")
    (List.length outcome.violations + Service.Slo.malformed slo)

let run_serve_bench dir =
  let auto = Domain.recommended_domain_count () in
  write_bench ~dir ~suite:"serve" ~best_of:1
    [
      serve_result ~name:"serve-med16-jobs1" ~workers:1;
      serve_result ~name:(Printf.sprintf "serve-med16-jobs%d-auto" auto) ~workers:auto;
    ]

(* Incremental cleaning: open a session on a Med corpus, drive a seeded
   update stream through it, timing each update, and compare the
   per-update cost against one full re-clean of the final state (what a
   batch caller would pay per change). *)
type update_run = {
  u_entities : int;
  u_open_ms : float;
  u_times : float array;  (** per update, in stream order *)
  u_touched : int;
  u_recleaned : int;
  u_final_entities : int;
  u_full_ms : float;
}

let update_stream ~entities ~n mix =
  let ds = Datagen.Med_gen.dataset ~entities ~seed:97 () in
  let er = med_er ds in
  let flat = Datagen.Update_gen.flatten ds in
  let updates = Datagen.Update_gen.generate ~mix ~n ~seed:13 ds in
  Obs.set_enabled false;
  let t0 = Util.Timing.mono_ms () in
  let s = Framework.Session.create ~er ~master:ds.master ds.ruleset flat in
  let open_ms = Util.Timing.mono_ms () -. t0 in
  let touched = ref 0 and recleaned = ref 0 in
  let times =
    Array.of_list
      (List.map
         (fun u ->
           let t = Util.Timing.mono_ms () in
           (match Framework.Session.update s u with
           | Ok d ->
               touched := !touched + d.Framework.Session.d_touched;
               recleaned := !recleaned + d.Framework.Session.d_recleaned
           | Error e ->
               failwith
                 (Printf.sprintf "generated update rejected: %s"
                    (Robust.Error.to_string e)));
           Util.Timing.mono_ms () -. t)
         updates)
  in
  (* One from-scratch clean of the exact final state — the per-change
     price of the batch API the session replaces. *)
  let t2 = Util.Timing.mono_ms () in
  let batch =
    Framework.Cleaner.clean ~er
      ?master:(Framework.Session.master s)
      (Framework.Session.ruleset s)
      (Framework.Session.relation s)
  in
  {
    u_entities = entities;
    u_open_ms = open_ms;
    u_times = times;
    u_touched = !touched;
    u_recleaned = !recleaned;
    u_final_entities = batch.Framework.Cleaner.entities;
    u_full_ms = Util.Timing.mono_ms () -. t2;
  }

let update_row ~name r =
  let mean = Util.Stats.mean r.u_times in
  Printf.sprintf
    "  \
     {\"name\":\"%s\",\"entities\":%d,\"updates\":%d,\"open_ms\":%.3f,\"updates_ms\":%.3f,\"p50_update_ms\":%.6f,\"mean_update_ms\":%.6f,\"touched\":%d,\"recleaned\":%d,\"final_entities\":%d,\"full_reclean_ms\":%.3f,\"speedup_x\":%.1f}"
    name r.u_entities (Array.length r.u_times) r.u_open_ms
    (Array.fold_left ( +. ) 0.0 r.u_times)
    (Util.Stats.median r.u_times) mean r.u_touched r.u_recleaned r.u_final_entities
    r.u_full_ms (r.u_full_ms /. mean)

(* The least-squares slope of log cost against log entity count: 1 is
   linear growth, 0 a per-update cost that does not grow. *)
let fitted_exponent points =
  let n = float_of_int (List.length points) in
  let xs = List.map (fun (x, _) -> log x) points and ys = List.map (fun (_, y) -> log y) points in
  let mx = List.fold_left ( +. ) 0.0 xs /. n and my = List.fold_left ( +. ) 0.0 ys /. n in
  let sxy = List.fold_left2 (fun acc x y -> acc +. ((x -. mx) *. (y -. my))) 0.0 xs ys in
  let sxx = List.fold_left (fun acc x -> acc +. ((x -. mx) *. (x -. mx))) 0.0 xs in
  sxy /. sxx

(* The tuple-update rows are a size series: 1/8, 1/4, 1/2 and all of
   RELACC_UPDATE_ENTITIES (default 8000) entities, each fed 400 adds and
   retracts, with the fitted exponent against entity count of the
   session's open time and of per-update p50 and mean. The mixed feed
   — master fixes and rule churn included, which re-clean wider slices
   (everything, for rule changes that actually ground), so its
   per-update cost is O(entities) — runs 100 updates at 1,000 entities
   whatever RELACC_UPDATE_ENTITIES says. The smoke run sets it to 1000,
   so update-tuple-1000 and update-mixed do the committed rows' work. *)
let run_update_bench dir =
  let largest = getenv_int "RELACC_UPDATE_ENTITIES" 8_000 in
  let sizes = List.map (fun d -> max 1 (largest / d)) [ 8; 4; 2; 1 ] in
  let tuple_mix =
    { Datagen.Update_gen.add = 0.5; retract = 0.5; master_fix = 0.; rule_cycle = 0. }
  in
  let series = List.map (fun entities -> update_stream ~entities ~n:400 tuple_mix) sizes in
  let fit cost = fitted_exponent (List.map (fun r -> (float_of_int r.u_entities, cost r)) series) in
  let mixed = update_stream ~entities:1_000 ~n:100 Datagen.Update_gen.default_mix in
  write_bench ~dir ~suite:"update" ~best_of:1
    ~exponent:
      [
        ("open_ms", fit (fun r -> r.u_open_ms));
        ("p50_update_ms", fit (fun r -> Util.Stats.median r.u_times));
        ("mean_update_ms", fit (fun r -> Util.Stats.mean r.u_times));
      ]
    (List.map (fun r -> update_row ~name:(Printf.sprintf "update-tuple-%d" r.u_entities) r) series
    @ [ update_row ~name:"update-mixed" mixed ])

let () =
  let dir =
    match Sys.argv with
    | [| _ |] -> "."
    | [| _; dir |] -> dir
    | _ ->
        prerr_endline "usage: main.exe [DIR]";
        exit 2
  in
  write_suite ~dir ~suite:"chase" chase_kernels;
  write_suite ~dir ~suite:"ground" ground_kernels;
  write_suite ~dir ~suite:"topk" topk_kernels;
  write_suite ~dir ~suite:"truth" truth_kernels;
  (* Multi-domain clean rows on a single-core host measure OCaml 5
     oversubscription, not parallel speedup — keep them, but mark
     them informational so baseline diffing tools skip them. *)
  write_suite ~dir ~suite:"clean"
    ~informational:(fun name ->
      Domain.recommended_domain_count () = 1
      && not (String.ends_with ~suffix:"-jobs1" name))
    clean_kernels;
  write_suite ~dir ~suite:"er" (er_kernels ());
  write_suite ~dir ~suite:"load" (load_kernels ());
  run_update_bench dir;
  run_serve_bench dir
