module Value = Relational.Value
module Entity_gen = Datagen.Entity_gen

type deduction_stats = {
  total : int;
  non_cr : int;
  complete_pct : float;
  nonnull_attr_pct : float;
  correct_attr_pct : float;
  exact_pct : float;
}

let pct num denom =
  if denom = 0 then 0.0 else 100.0 *. float_of_int num /. float_of_int denom

let deduce_stats (dataset : Entity_gen.dataset) =
  let total = List.length dataset.entities in
  let non_cr = ref 0
  and complete = ref 0
  and exact = ref 0
  and nonnull = ref 0.0
  and correct = ref 0.0 in
  List.iter
    (fun (e : Entity_gen.entity) ->
      match Core.Is_cr.run (Entity_gen.spec_for dataset e) with
      | Core.Is_cr.Not_church_rosser _ -> incr non_cr
      | Core.Is_cr.Church_rosser inst ->
          let te = Core.Instance.te inst in
          if Core.Instance.te_complete inst then incr complete;
          if Truth.Metrics.exact_match ~truth:e.truth te then incr exact;
          let n = Array.length te in
          let nn =
            Array.fold_left
              (fun acc v -> if Value.is_null v then acc else acc + 1)
              0 te
          in
          nonnull := !nonnull +. (float_of_int nn /. float_of_int n);
          correct := !correct +. Truth.Metrics.attribute_match_rate ~truth:e.truth te)
    dataset.entities;
  {
    total;
    non_cr = !non_cr;
    complete_pct = pct !complete total;
    nonnull_attr_pct = 100.0 *. !nonnull /. float_of_int (max 1 total);
    correct_attr_pct = 100.0 *. !correct /. float_of_int (max 1 total);
    exact_pct = pct !exact total;
  }

let truth_rank ?target algo ~k dataset (e : Entity_gen.entity) =
  let spec = Entity_gen.spec_for dataset e in
  let compiled = Core.Is_cr.compile spec in
  (* One drain of the base fixpoint: the state it leaves is the base
     every candidate check of the search resumes. *)
  let state = Core.Is_cr.start compiled in
  match Core.Is_cr.conflict state with
  | Some _ -> None
  | None ->
      (* §7 measures hits against the *manually identified* target:
         the best value available in the data, not the unobservable
         generator truth. *)
      let target =
        match target with Some t -> t | None -> Entity_gen.annotate dataset e
      in
      let te = Core.Is_cr.te state in
      let pref = Topk.Preference.of_occurrences e.instance in
      (* §6.2: with fewer than k candidates TopKCT exhausts an
         exponential space; the harness bounds exploration so
         pathological entities return partial lists (the truth, when
         reachable, almost always ranks near the top anyway). *)
      let targets =
        match
          Topk.solve ~algo ~state ~max_pops:Topk.exploration_cap ~k ~pref compiled te
        with
        | Ok outcome -> outcome.Topk.targets
        | Error _ -> []
      in
      let rec scan rank = function
        | [] -> None
        | t :: rest ->
            if Array.for_all2 Value.equal t target then Some rank
            else scan (rank + 1) rest
      in
      scan 1 targets

let hit_rate pairs =
  let hits =
    List.length
      (List.filter (function Some r, k -> r <= k | None, _ -> false) pairs)
  in
  pct hits (List.length pairs)

let time_ms f = snd (Util.Timing.time_ms f)
