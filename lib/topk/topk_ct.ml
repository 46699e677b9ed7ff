module Value = Relational.Value

(* Observability: frontier traffic of the Fig. 5 lattice walk.
   [topk_checks_total] counts the checks of all three algorithms, and
   [topk_pruned_total] the candidates the two exact ones drop. *)
let m_pops = Obs.Counter.make ~help:"frontier queue pops" "topk_frontier_pops_total"
let m_heap_pops = Obs.Counter.make ~help:"per-attribute domain heap pops" "topk_heap_pops_total"
let m_checks = Obs.Counter.make ~help:"candidate chase checks" "topk_checks_total"
let m_pruned = Obs.Counter.make ~help:"candidates rejected by the chase check" "topk_pruned_total"
let m_hwm = Obs.Gauge.make ~help:"frontier queue depth high-water mark" "topk_frontier_hwm"

type outcome = {
  targets : Value.t array list;
  exhausted : Robust.Error.trip option;
  checks : int;
  pulls : int;
}

type base = { z : Core.Is_cr.state Lazy.t; mutable checks : int }

(* All checks of one call are trials on one state: the all-null
   fixpoint is drained once and each candidate only pays for its
   delta. Lazy, so a call that checks nothing never starts it. *)
let check b t =
  b.checks <- b.checks + 1;
  Obs.Counter.incr m_checks;
  Core.Is_cr.trial (Lazy.force b.z) t

let verify b t =
  let ok = check b t in
  if not ok then Obs.Counter.incr m_pruned;
  ok

let engine ?state ~pref compiled te search =
  let b = { z = Core.Is_cr.null_base ?state compiled; checks = 0 } in
  let zattrs =
    Array.of_list
      (List.filter (fun a -> Value.is_null te.(a)) (List.init (Array.length te) Fun.id))
  in
  let targets, exhausted, pulls =
    if zattrs = [||] then
      (* te is already complete: it is its own only candidate. *)
      ((if verify b te then [ Array.copy te ] else []), None, 0)
    else begin
      let spec = Core.Is_cr.compiled_spec compiled in
      let streams = Array.map (fun a -> Active_domain.stream spec pref a) zattrs in
      Array.iter
        (fun s ->
          if not (Active_domain.pull s) then
            invalid_arg "top-k: empty active domain for a null attribute")
        streams;
      search b zattrs streams
    end
  in
  { targets; exhausted; checks = b.checks; pulls }

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

let walk ~check ?max_pops ?budget ~k ~pref te b zattrs streams =
  let m = Array.length zattrs in
  let queue_pops = ref 0 in
  (* [engine] pulled each stream's best value. *)
  Obs.Counter.add m_heap_pops m;
  (* [available i j]: stream [i] has a [j]-th value, pulling it when
     [j] is one past the buffer (positions advance one at a time). *)
  let available i j =
    j < Active_domain.pulled streams.(i)
    || j = Active_domain.pulled streams.(i)
       && Active_domain.pull streams.(i)
       && begin
            Obs.Counter.incr m_heap_pops;
            true
          end
  in
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
  let capped () =
    match max_pops with None -> false | Some c -> !queue_pops >= c
  in
  let deadline () =
    match budget with None -> None | Some b -> Robust.Budget.check b
  in
  let finish exhausted targets = (List.rev targets, exhausted, !queue_pops) in
  let rec loop targets found =
    if found >= k then finish None targets
    else if capped () then
      (* The cap cut the walk only if objects were left to pop. *)
      finish
        (if Pqueue.Binary_heap.is_empty queue then None else Some Robust.Error.Steps)
        targets
    else
      match deadline () with
      | Some trip -> finish (Some trip) targets
      | None -> (
          match Pqueue.Binary_heap.pop queue with
          | None -> finish None targets
          | Some o ->
              incr queue_pops;
              Obs.Counter.incr m_pops;
              let values = values_at o.pos in
              let targets, found =
                if (not check) || verify b values then (values :: targets, found + 1)
                else (targets, found)
              in
              (* Expand: advance each position from [lo] on by one. *)
              for i = o.lo to m - 1 do
                let next = o.pos.(i) + 1 in
                if available i next then begin
                  let pos = Array.copy o.pos in
                  pos.(i) <- next;
                  Pqueue.Binary_heap.add queue { pos; w = score pos; lo = i };
                  if Obs.enabled () then
                    Obs.Gauge.observe_max m_hwm
                      (float_of_int (Pqueue.Binary_heap.length queue))
                end
              done;
              loop targets found)
  in
  loop [] 0

let run ?state ?max_pops ?budget ~k ~pref compiled te =
  engine ?state ~pref compiled te (walk ~check:true ?max_pops ?budget ~k ~pref te)
