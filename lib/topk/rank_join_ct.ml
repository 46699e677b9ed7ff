module Value = Relational.Value

(* Observability: ranked-list traffic of the §6.1 rank join. Check
   and prune counters are shared with TopKCT/TopKCTh. *)
let m_pulls = Obs.Counter.make ~help:"ranked-list pulls" "rank_join_pulls_total"
let m_combos = Obs.Counter.make ~help:"combinations generated and checked" "rank_join_combos_total"
let m_checks = Obs.Counter.make "topk_checks_total"
let m_pruned = Obs.Counter.make "topk_pruned_total"
let m_hwm = Obs.Gauge.make ~help:"output buffer depth high-water mark" "rank_join_buffer_hwm"

type stats = {
  pulls : int;
  combos : int;
  checks : int;
  emitted : int;
}

type status =
  | Complete
  | Search_exhausted of Robust.Error.trip

type result = {
  targets : Value.t array list;
  stats : stats;
  status : status;
}

type candidate = { values : Value.t array; w : float; ok : bool }

let cand_cmp a b =
  match Float.compare b.w a.w with
  | 0 -> Relational.Tuple.compare_values (Relational.Tuple.make a.values) (Relational.Tuple.make b.values)
  | c -> c

let run ?state ?include_default ?max_pulls ?max_combos ?budget ~k ~pref compiled te =
  if k < 1 then invalid_arg "Rank_join_ct.run: k < 1";
  (* Two distinct units, two distinct caps: [max_pulls] bounds ranked-
     list accesses and trips [Steps]; [max_combos] bounds generated
     join combinations and trips [Combos]. When only [max_pulls] is
     given, the combination bound defaults to the same value — the
     historical behaviour of the single cap. *)
  let max_combos = match max_combos with Some _ as c -> c | None -> max_pulls in
  let spec = Core.Is_cr.compiled_spec compiled in
  let pulls = ref 0 and combos = ref 0 and checks = ref 0 and emitted = ref 0 in
  let tripped = ref None in
  let trip t = if !tripped = None then tripped := Some t in
  (* One budget unit per generated combination (each costs a chase
     check, the dominant work); the wall-clock deadline rides along. *)
  let charge () =
    match budget with
    | Some b -> (
        match Robust.Budget.step b with Some t -> trip t | None -> ())
    | None -> ()
  in
  let finish targets =
    {
      targets = List.rev targets;
      stats = { pulls = !pulls; combos = !combos; checks = !checks; emitted = !emitted };
      status =
        (match !tripped with None -> Complete | Some t -> Search_exhausted t);
    }
  in
  (* Every join combination is checked (the algorithm's dominant
     cost), so all checks of one run are trials on one state and each
     pays only for its candidate's delta. *)
  let z = Core.Is_cr.null_base ?state compiled in
  let verify t =
    incr checks;
    Obs.Counter.incr m_checks;
    let ok = Core.Is_cr.trial (Lazy.force z) t in
    if not ok then Obs.Counter.incr m_pruned;
    ok
  in
  let zattrs =
    Array.of_list
      (List.filter
         (fun a -> Value.is_null te.(a))
         (List.init (Array.length te) (fun i -> i)))
  in
  let m = Array.length zattrs in
  if m = 0 then finish (if verify te then [ Array.copy te ] else [])
  else begin
    let lists =
      Array.map (fun a -> Active_domain.stream ?include_default spec pref a) zattrs
    in
    (* [has i d]: list [i] reaches depth [d], pulling one value ahead
       of the join when needed (depths advance one at a time). *)
    let has i d =
      d < Active_domain.pulled lists.(i)
      || (d = Active_domain.pulled lists.(i) && Active_domain.pull lists.(i))
    in
    let at i d = Active_domain.get lists.(i) d in
    Array.iteri
      (fun i _ ->
        if not (has i 0) then
          invalid_arg "Rank_join_ct.run: empty active domain for a null attribute")
      lists;
    let depth = Array.make m 0 in
    let buffer = Pqueue.Binary_heap.create ~cmp:cand_cmp in
    let fixed_score =
      (* Score of the fixed non-null part: a constant shared by every
         candidate and by the threshold. *)
      let t = Array.copy te in
      Array.iter (fun a -> t.(a) <- Value.Null) zattrs;
      Preference.score pref t
    in
    (* τ: best score any not-yet-generated combination can reach. *)
    let threshold () =
      let best = ref neg_infinity in
      for i = 0 to m - 1 do
        if has i depth.(i) then begin
          let ub = ref (fixed_score +. snd (at i depth.(i))) in
          for j = 0 to m - 1 do
            if j <> i then ub := !ub +. snd (at j 0)
          done;
          if !ub > !best then best := !ub
        end
      done;
      !best
    in
    (* Join a newly pulled value of list [i] (at depth [d]) against
       all seen prefixes of the other lists; check every combination
       as it is generated (§6.1). The budget also bounds combination
       generation: one pull joins against a cross product of all
       seen prefixes, which is itself exponential in m. *)
    let over_budget () =
      (match max_combos with
      | Some b when !combos >= b -> trip Robust.Error.Combos
      | _ -> ());
      (match budget with
      | Some b -> (
          match Robust.Budget.check b with Some t -> trip t | None -> ())
      | None -> ());
      !tripped <> None
    in
    let generate i d =
      let rec combos_at j acc score =
        if over_budget () then ()
        else if j = m then begin
          incr combos;
          Obs.Counter.incr m_combos;
          charge ();
          let values = Array.copy te in
          List.iter (fun (attr, v) -> values.(attr) <- v) acc;
          let ok = verify values in
          Pqueue.Binary_heap.add buffer { values; w = score; ok };
          Obs.Gauge.observe_max m_hwm
            (float_of_int (Pqueue.Binary_heap.length buffer))
        end
        else if j = i then
          let v, w = at i d in
          combos_at (j + 1) ((zattrs.(i), v) :: acc) (score +. w)
        else
          for dj = 0 to depth.(j) - 1 do
            let v, w = at j dj in
            combos_at (j + 1) ((zattrs.(j), v) :: acc) (score +. w)
          done
      in
      combos_at 0 [] fixed_score
    in
    let rec emit_ready targets found =
      if found >= k then (targets, found)
      else
        match Pqueue.Binary_heap.peek buffer with
        | Some c when c.w >= threshold () ->
            ignore (Pqueue.Binary_heap.pop buffer : candidate option);
            if c.ok then begin
              incr emitted;
              emit_ready (Array.copy c.values :: targets) (found + 1)
            end
            else emit_ready targets found
        | _ -> (targets, found)
    in
    let rec loop targets found rr =
      if found >= k then finish targets
      else begin
        (* Advance the next list (round-robin over non-exhausted). *)
        let rec pick tried i =
          if tried = m then None
          else if has i depth.(i) then Some i
          else pick (tried + 1) ((i + 1) mod m)
        in
        let next_list =
          (match max_pulls with
          | Some b when !pulls >= b -> trip Robust.Error.Steps
          | _ -> ());
          if over_budget () then None else pick 0 rr
        in
        match next_list with
        | None ->
            (* Lists exhausted or the budget tripped: drain the
               buffer into a best-k-so-far answer. *)
            let rec drain targets found =
              if found >= k then targets
              else
                match Pqueue.Binary_heap.pop buffer with
                | None -> targets
                | Some c ->
                    if c.ok then begin
                      incr emitted;
                      drain (Array.copy c.values :: targets) (found + 1)
                    end
                    else drain targets found
            in
            finish (drain targets found)
        | Some i ->
            incr pulls;
            Obs.Counter.incr m_pulls;
            let d = depth.(i) in
            depth.(i) <- d + 1;
            generate i d;
            let targets, found = emit_ready targets found in
            loop targets found ((i + 1) mod m)
      end
    in
    loop [] 0 0
  end
