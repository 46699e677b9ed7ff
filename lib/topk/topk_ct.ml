module Value = Relational.Value

(* Observability: frontier traffic of the Fig. 5 lattice walk.
   [topk_checks_total] and [topk_pruned_total] are shared with the
   other two algorithms (same registry entries). *)
let m_pops = Obs.Counter.make ~help:"frontier queue pops" "topk_frontier_pops_total"
let m_heap_pops = Obs.Counter.make ~help:"per-attribute domain heap pops" "topk_heap_pops_total"
let m_checks = Obs.Counter.make ~help:"candidate chase checks" "topk_checks_total"
let m_pruned = Obs.Counter.make ~help:"candidates rejected by the chase check" "topk_pruned_total"
let m_hwm = Obs.Gauge.make ~help:"frontier queue depth high-water mark" "topk_frontier_hwm"

type stats = {
  heap_pops : int;
  queue_pops : int;
  checks : int;
  enumerated : int;
}

type result = {
  targets : Value.t array list;
  stats : stats;
  tripped : Robust.Error.trip option;
}

(* A frontier object: one position per null attribute into that
   attribute's ranked stream (the buffer B_i of Fig. 5: position j is
   the j-th best value), the score, and [lo], the first position it
   may advance. The full tuple is rebuilt from the streams when the
   object is popped. *)
type obj = { pos : int array; w : float; lo : int }

let obj_cmp a b =
  match Float.compare b.w a.w with
  | 0 ->
      (* Deterministic tie-break on the varying positions. *)
      let rec go i =
        if i = Array.length a.pos then 0
        else
          match Int.compare a.pos.(i) b.pos.(i) with 0 -> go (i + 1) | c -> c
      in
      go 0
  | c -> c

let run ?state ?(check = true) ?include_default ?max_pops ?budget ~k ~pref
    compiled te =
  if k < 1 then invalid_arg "Topk_ct.run: k < 1";
  let spec = Core.Is_cr.compiled_spec compiled in
  let heap_pops = ref 0
  and queue_pops = ref 0
  and checks = ref 0
  and enumerated = ref 0 in
  (* All checks of one run are trials on one state: the all-null
     fixpoint is drained once and each candidate only pays for its
     delta. Lazy so the check-free mode (TopKCTh's seed enumeration)
     never starts it. *)
  let z = Core.Is_cr.null_base ?state compiled in
  let verify t =
    if not check then true
    else begin
      incr checks;
      Obs.Counter.incr m_checks;
      let ok = Core.Is_cr.trial (Lazy.force z) t in
      if not ok then Obs.Counter.incr m_pruned;
      ok
    end
  in
  let finish ?tripped targets =
    {
      targets = List.rev targets;
      stats =
        {
          heap_pops = !heap_pops;
          queue_pops = !queue_pops;
          checks = !checks;
          enumerated = !enumerated;
        };
      tripped;
    }
  in
  let zattrs =
    Array.of_list
      (List.filter
         (fun a -> Value.is_null te.(a))
         (List.init (Array.length te) (fun i -> i)))
  in
  let m = Array.length zattrs in
  if m = 0 then
    (* te is already complete: it is its own only candidate. *)
    finish (if verify te then [ Array.copy te ] else [])
  else begin
    (* One ranked stream per null attribute; a stream pays only for
       the values pulled from it. *)
    let streams =
      Array.map (fun a -> Active_domain.stream ?include_default spec pref a) zattrs
    in
    (* [available i j]: stream [i] has a [j]-th value, pulling it when
       [j] is one past the buffer (positions advance one at a time). *)
    let available i j =
      j < Active_domain.pulled streams.(i)
      || j = Active_domain.pulled streams.(i)
         && Active_domain.pull streams.(i)
         && begin
              incr heap_pops;
              Obs.Counter.incr m_heap_pops;
              true
            end
    in
    Array.iteri
      (fun i _ ->
        if not (available i 0) then
          invalid_arg "Topk_ct.run: empty active domain for a null attribute")
      streams;
    let values_at pos =
      let values = Array.copy te in
      Array.iteri
        (fun i a -> values.(a) <- fst (Active_domain.get streams.(i) pos.(i)))
        zattrs;
      values
    in
    (* A fixed-order sum — [te]'s non-null cells, then each position's
       weight — is monotone in every position, so an object never
       outscores its parent. *)
    let fixed = Preference.score pref te in
    let score pos =
      let w = ref fixed in
      for i = 0 to m - 1 do
        w := !w +. snd (Active_domain.get streams.(i) pos.(i))
      done;
      !w
    in
    let origin = Array.make m 0 in
    incr enumerated;
    (* The frontier walks a spanning tree of the position lattice: an
       object advances only positions [i >= lo], where [lo] is its
       last non-zero position, so every vector has exactly one parent
       (decrement its last non-zero position) and is pushed once.
       The parent precedes its children under [obj_cmp] (higher or
       equal score, lexicographically smaller positions), so the pops
       come out in [obj_cmp] order exactly as a deduplicated walk of
       the whole lattice would. *)
    let queue = Pqueue.Binary_heap.create ~cmp:obj_cmp in
    Pqueue.Binary_heap.add queue { pos = origin; w = score origin; lo = 0 };
    let budget_left () =
      match max_pops with None -> true | Some b -> !queue_pops < b
    in
    let deadline () =
      match budget with None -> None | Some b -> Robust.Budget.check b
    in
    let rec loop targets found =
      if found >= k || not (budget_left ()) then finish targets
      else
        match deadline () with
        | Some trip -> finish ~tripped:trip targets
        | None -> (
            match Pqueue.Binary_heap.pop queue with
            | None -> finish targets
            | Some o ->
                incr queue_pops;
                Obs.Counter.incr m_pops;
                let values = values_at o.pos in
                let targets, found =
                  if verify values then (values :: targets, found + 1)
                  else (targets, found)
                in
                (* Expand: advance each position from [lo] on by one. *)
                for i = o.lo to m - 1 do
                  let next = o.pos.(i) + 1 in
                  if available i next then begin
                    let pos = Array.copy o.pos in
                    pos.(i) <- next;
                    incr enumerated;
                    Pqueue.Binary_heap.add queue { pos; w = score pos; lo = i };
                    if Obs.enabled () then
                      Obs.Gauge.observe_max m_hwm
                        (float_of_int (Pqueue.Binary_heap.length queue))
                  end
                done;
                loop targets found)
    in
    loop [] 0
  end
