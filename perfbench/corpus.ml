(* Generated inputs and the Clean task's knobs.

   Every workload runs on a Med corpus (Datagen.Med_gen) that the
   service driver's writer puts on disk as CSV plus rule text; the
   program under test reads only those files, update values re-read
   from their text form, or request lines. *)

let key_attrs = [ "name"; "regNo" ]

(* A run's [n] corpus seeds. The first is the run's own seed, so a
   traced run, which uses only that corpus, measures the first corpus
   of the timed run. *)
let seeds ~n seed = List.init n (fun i -> seed + (i * 1_000_003))

(* The corpus of one seed, in its own directory under [dir]. *)
let generate ~dir ~entities seed =
  Service.Driver.ensure_corpus
    ~dir:(Filename.concat dir (string_of_int seed))
    ~entities ~seed
let threshold = 0.72

let load (c : Service.Driver.corpus) =
  match
    Framework.Pipeline.load_spec ~master:c.master ~entity:c.flat
      ~rules:c.rules ()
  with
  | Ok spec -> spec
  | Error e -> Check.fail "load_spec: %s" (Robust.Error.to_string e)

(* A cold start: no compiled artifact survives earlier work, and the
   freshly read master relation gets a Master_index of its own (the
   index is memoized on the relation's physical identity). *)
let cold_load c =
  Framework.Compile_cache.clear ();
  load c

(* The resolver configuration Pipeline derives for a Clean task. *)
let er_config schema =
  let keys = List.map (Relational.Schema.index schema) key_attrs in
  {
    (Er.Resolver.default_config ~key_attrs:keys
       ~compare_attrs:(List.map (fun a -> (a, 1.0)) keys))
    with
    use_soundex = true;
    threshold;
  }

(* ER's work on a relation, timed per call: the blocking pass alone,
   then the whole clustering (which blocks again internally). *)
let er_probe rel =
  let er = er_config (Relational.Relation.schema rel) in
  let blocks, blocks_ms = Measure.time (fun () -> Er.Resolver.blocks er rel) in
  let _, cluster_ms = Measure.time (fun () -> Er.Resolver.cluster er rel) in
  let pairs =
    List.fold_left
      (fun n b ->
        let k = List.length b in
        n + (k * (k - 1) / 2))
      0 blocks
  in
  let max_block = List.fold_left (fun m b -> max m (List.length b)) 0 blocks in
  [
    ("er.blocks_ms", blocks_ms);
    ("er.cluster_ms", cluster_ms);
    ("er.pairs", float_of_int pairs);
    ("er.max_block", float_of_int max_block);
  ]
