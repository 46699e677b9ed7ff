module Value = Relational.Value

(* Observability: ranked-list traffic of the §6.1 rank join. Checks
   and pruned candidates count in TopKCT's counters (Topk_ct.verify). *)
let m_pulls = Obs.Counter.make ~help:"ranked-list pulls" "rank_join_pulls_total"
let m_combos = Obs.Counter.make ~help:"combinations generated and checked" "rank_join_combos_total"
let m_hwm = Obs.Gauge.make ~help:"output buffer depth high-water mark" "rank_join_buffer_hwm"

type candidate = { values : Value.t array; w : float; ok : bool }

let cand_cmp a b =
  match Float.compare b.w a.w with
  | 0 -> Relational.Tuple.compare_values (Relational.Tuple.make a.values) (Relational.Tuple.make b.values)
  | c -> c

let run ?state ?max_pops ?budget ~k ~pref compiled te =
  (* Every join combination is checked (the algorithm's dominant
     cost), so the engine's one chase state is decisive here. *)
  Topk_ct.engine ?state ~pref compiled te @@ fun b zattrs lists ->
  let m = Array.length zattrs in
  let pulls = ref 0 and combos = ref 0 in
  let tripped = ref None in
  let trip t = if !tripped = None then tripped := Some t in
  (* One budget unit per generated combination (each costs a chase
     check, the dominant work); the wall-clock deadline rides along. *)
  let charge () =
    match budget with
    | Some meter -> (
        match Robust.Budget.step meter with Some t -> trip t | None -> ())
    | None -> ()
  in
  let finish targets = (List.rev targets, !tripped, !pulls) in
  (* [has i d]: list [i] reaches depth [d], pulling one value ahead
     of the join when needed (depths advance one at a time). *)
  let has i d =
    d < Active_domain.pulled lists.(i)
    || (d = Active_domain.pulled lists.(i) && Active_domain.pull lists.(i))
  in
  let at i d = Active_domain.get lists.(i) d in
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
     as it is generated (§6.1). The cap also bounds combination
     generation: one pull joins against a cross product of all
     seen prefixes, which is itself exponential in m. *)
  let over_budget () =
    (match max_pops with
    | Some c when !combos >= c -> trip Robust.Error.Combos
    | _ -> ());
    (match budget with
    | Some meter -> (
        match Robust.Budget.check meter with Some t -> trip t | None -> ())
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
        let ok = Topk_ct.verify b values in
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
          if c.ok then emit_ready (Array.copy c.values :: targets) (found + 1)
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
      (* The cap and the budget cut the join only when a list is
         left to advance. *)
      let next_list =
        match pick 0 rr with
        | None -> None
        | Some _ as next ->
            (match max_pops with
            | Some c when !pulls >= c -> trip Robust.Error.Steps
            | _ -> ());
            if over_budget () then None else next
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
                  if c.ok then drain (Array.copy c.values :: targets) (found + 1)
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
