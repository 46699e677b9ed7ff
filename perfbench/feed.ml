(* session-med1k: a session opened on a 1,000-entity Med corpus, then
   a seeded stream of tuple adds/retracts and master fixes; a timed run
   does this on three corpora, one after the other. *)

module Session = Framework.Session
module Pipeline = Framework.Pipeline
module Cleaner = Framework.Cleaner
module Tuple = Relational.Tuple
module Value = Relational.Value

let entities = 1000

(* Rule cycles are left out: one rule retire can re-clean the whole
   corpus, so a handful of them would set the run's length. *)
let mix =
  { Datagen.Update_gen.add = 0.55; retract = 0.435; master_fix = 0.015;
    rule_cycle = 0.0 }

(* The stream's length is fixed by --seconds, not by how fast the
   program gets through it, so every run of a seed does the same work. *)
let updates_per_second = 40

(* Tuple-update times and peak memory differ between corpora by more
   than between repeats; taking a run's figures over three corpora
   narrows that part of the run-to-run spread. *)
let corpora = 3

type kind = Tuple | Master_fix | Other

let kind = function
  | Session.Tuple_add _ | Session.Tuple_retract _ -> Tuple
  | Session.Master_fix _ -> Master_fix
  | Session.Rule_add _ | Session.Rule_retire _ -> Other

(* Cell values reach the session through their text form, as a feed
   (or the service's wire updates) would deliver them. *)
let retype v = Value.of_string_guess (Value.to_string v)

let as_text = function
  | Session.Tuple_add t ->
      Session.Tuple_add (Tuple.make (Array.map retype (Tuple.values t)))
  | Session.Master_fix f -> Session.Master_fix { f with value = retype f.value }
  | u -> u

(* One corpus and its share of the run's update stream. *)
let inputs (ctx : Ctx.t) seed =
  let corpus = Corpus.generate ~dir:ctx.dir ~entities seed in
  let ds = Datagen.Med_gen.dataset ~entities ~seed () in
  let n = updates_per_second * int_of_float ctx.seconds / corpora in
  let updates =
    List.map as_text (Datagen.Update_gen.generate ~mix ~n ~seed ds)
  in
  (corpus, updates)

let open_session corpus =
  let spec = Corpus.cold_load corpus in
  match
    Pipeline.Session.open_spec ~key_attrs:Corpus.key_attrs
      ~threshold:Corpus.threshold ~retries:1 ~jobs:1 spec
  with
  | Ok s -> s
  | Error e -> Check.fail "session open: %s" (Robust.Error.to_string e)

(* The compile cache is emptied before the heap is swept, so the open
   neither finds nor frees an earlier session's compiled specs. *)
let timed_open corpus =
  Framework.Compile_cache.clear ();
  Gc.full_major ();
  Measure.time (fun () -> open_session corpus)

type sample = {
  k : kind;
  ms : float;
  recleaned : int;
  rejected : bool;
  reclean_ms : float;  (** span_cleaner_entity_ms growth; traced only *)
}

(* Time spent re-cleaning entities so far, from the span around each
   entity's fault boundary; 0 while Obs is off. *)
let reclean_so_far () =
  if Obs.enabled () then Measure.histogram_sum "span_cleaner_entity_ms"
  else 0.0

(* Apply [updates] in order, timing each, until the stream ends or
   the clock passes [until]. *)
let feed ?(until = infinity) s updates =
  let apply u =
    let span0 = reclean_so_far () in
    let r, ms = Measure.time (fun () -> Session.update s u) in
    let reclean_ms = reclean_so_far () -. span0 in
    match r with
    | Ok d ->
        { k = kind u; ms; recleaned = d.Session.d_recleaned; rejected = false;
          reclean_ms }
    | Error _ -> { k = kind u; ms; recleaned = 0; rejected = true; reclean_ms }
  in
  let rec go acc = function
    | u :: rest when Measure.now_ms () < until -> go (apply u :: acc) rest
    | _ -> List.rev acc
  in
  go [] updates

(* The maintained report must equal a fresh batch clean of the
   session's current relation. *)
let check_final s =
  let rel = Session.relation s in
  let fresh =
    Cleaner.clean
      ~er:(Corpus.er_config (Relational.Relation.schema rel))
      ?master:(Session.master s) (Session.ruleset s) rel
  in
  Check.same_report ~what:"Session.report vs a fresh Cleaner.clean"
    fresh (Session.report s)

let of_kind k samples = List.filter (fun x -> x.k = k && not x.rejected) samples
let times xs = List.map (fun x -> x.ms) xs

(* The run's clock limit for feeding updates, leaving room for the
   final check inside the run's time limit. On the slowest seeds and
   hosts the stream stops early; its figures then cover a prefix. *)
let feed_limit_ms = 110_000.0

(* [f ()] in a forked child, its result marshalled back over a pipe.
   The child's heap starts from the parent's small one, so its VmHWM is
   what [f] needed, whatever ran before it in the parent. The child is
   always waited for; a check that failed in it fails here. *)
let in_child (f : unit -> 'a) : 'a =
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      let oc = Unix.out_channel_of_descr wr in
      let result : ('a, string) result =
        match f () with
        | v -> Ok v
        | exception Check.Failed msg -> Error msg
        | exception e -> Error ("child: " ^ Printexc.to_string e)
      in
      Marshal.to_channel oc result [];
      close_out oc;
      Unix._exit 0
  | pid -> (
      Unix.close wr;
      let ic = Unix.in_channel_of_descr rd in
      let result : (('a, string) result, string) result =
        Fun.protect
          ~finally:(fun () ->
            close_in_noerr ic;
            ignore (Unix.waitpid [] pid : int * Unix.process_status))
          (fun () ->
            match Marshal.from_channel ic with
            | r -> Ok r
            | exception End_of_file -> Error "child ended without a result")
      in
      match result with
      | Ok (Ok v) -> v
      | Ok (Error msg) -> Check.fail "%s" msg
      | Error msg -> failwith msg)

let run (ctx : Ctx.t) =
  let start = Measure.now_ms () in
  (* Each corpus's session lives in a child process of its own, so
     peak memory is one session's; the output check runs after the
     peak is read. *)
  let sessions =
    List.map
      (fun seed ->
        in_child (fun () ->
            let corpus, updates = inputs ctx seed in
            let s, open_ms = timed_open corpus in
            let samples = feed ~until:(start +. feed_limit_ms) s updates in
            let peak_rss_mb = Measure.peak_rss_mb "self" in
            check_final s;
            Printf.eprintf
              "session-med1k corpus %d: %d entities, open %.0f ms, %d \
               updates in %.0f ms, peak RSS %.0f MB\n%!"
              seed (Session.entities s) open_ms (List.length samples)
              (Measure.sum (times samples)) peak_rss_mb;
            (open_ms, samples, peak_rss_mb)))
      (Corpus.seeds ~n:corpora ctx.seed)
  in
  let open_ms = List.map (fun (ms, _, _) -> ms) sessions in
  let samples = List.concat_map (fun (_, xs, _) -> xs) sessions in
  (* A session's peak is set by its heaviest master fix, so it varies
     between corpora; the mean over three varies less than their
     median or maximum. *)
  let peak_rss_mb = Measure.mean (List.map (fun (_, _, mb) -> mb) sessions) in
  let tuple = times (of_kind Tuple samples) in
  {
    Ctx.attempted = List.length samples;
    failed = List.length (List.filter (fun x -> x.rejected) samples);
    metrics =
      [
        ("setup_s", Measure.median open_ms /. 1000.0);
        ("update_p50_ms", Measure.median tuple);
        ("peak_rss_mb", peak_rss_mb);
      ];
  }

let trace (ctx : Ctx.t) =
  let start = Measure.now_ms () in
  let corpus, updates = inputs ctx ctx.seed in
  (* The untraced reference: the same stream on its own session. *)
  let untraced =
    let s0, _ = timed_open corpus in
    feed s0 updates
  in
  let er = Corpus.er_probe (Core.Specification.entity (Corpus.load corpus)) in
  Obs.reset ();
  Obs.set_enabled true;
  let s, _ = timed_open corpus in
  let c = Measure.counter in
  let misses0 = (Framework.Compile_cache.stats ()).misses in
  let unaffected0 = c "session_unaffected_total" in
  let counters0 = Measure.read_counters () in
  let samples = feed ~until:(start +. feed_limit_ms) s updates in
  let misses = (Framework.Compile_cache.stats ()).misses - misses0 in
  let counters = Measure.counters_since counters0 in
  Obs.set_enabled false;
  check_final s;
  let per_update f xs =
    match xs with
    | [] -> 0.0
    | _ -> Measure.sum (List.map f xs) /. float_of_int (List.length xs)
  in
  let tuple = of_kind Tuple samples and mf = of_kind Master_fix samples in
  let recleaned xs = float_of_int (List.fold_left (fun n x -> n + x.recleaned) 0 xs) in
  {
    Ctx.attempted = List.length samples;
    failed = List.length (List.filter (fun x -> x.rejected) samples);
    metrics =
      er @ counters
      @ [
          ("session.tuple_recleaned_per_update", per_update (fun x -> float_of_int x.recleaned) tuple);
          ("session.tuple_reclean_ms", per_update (fun x -> x.reclean_ms) tuple);
          ("session.tuple_other_ms", per_update (fun x -> x.ms -. x.reclean_ms) tuple);
          ("session.master_fix_recleaned_per_update", per_update (fun x -> float_of_int x.recleaned) mf);
          ( "session.master_fix_reclean_ms_per_entity",
            if recleaned mf = 0.0 then 0.0
            else Measure.sum (List.map (fun x -> x.reclean_ms) mf) /. recleaned mf );
          ("session.master_fix_other_ms", per_update (fun x -> x.ms -. x.reclean_ms) mf);
          ("session.master_fix_p50_ms", Measure.median (times mf));
          ("session.update_p90_ms", Measure.quantile 0.9 (times tuple));
          ("session.update_p99_ms", Measure.quantile 0.99 (times tuple));
          ("session.unaffected", c "session_unaffected_total" -. unaffected0);
          ("framework.compile_misses", float_of_int misses);
          ( "trace.overhead_ms",
            (* over the updates both feeds applied *)
            Measure.sum (times samples)
            -. Measure.sum
                 (times
                    (List.filteri (fun i _ -> i < List.length samples) untraced))
          );
        ];
  }
