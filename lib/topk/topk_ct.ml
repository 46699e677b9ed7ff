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

(* Growable buffer B_i of already-popped domain values (Fig. 5 keeps
   one per attribute so that position j always means the j-th best
   value of that attribute). *)
module Vec = struct
  type 'a t = { mutable data : 'a array; mutable len : int }

  let create () = { data = [||]; len = 0 }
  let length v = v.len
  let get v i = v.data.(i)

  let push v x =
    if v.len = Array.length v.data then begin
      let fresh = Array.make (max 4 (2 * v.len)) x in
      Array.blit v.data 0 fresh 0 v.len;
      v.data <- fresh
    end;
    v.data.(v.len) <- x;
    v.len <- v.len + 1
end

(* A frontier object: the per-null-attribute buffer positions and the
   cached score. The full tuple is rebuilt from the buffers when the
   object is popped. *)
type obj = { pos : int array; w : float }

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

(* Frontier dedup on position vectors. Each buffer holds distinct
   values (active domains are deduplicated by [Preference.value_key]),
   so two frontier tuples are equal iff their positions are. *)
module Ptbl = Hashtbl.Make (struct
  type t = int array

  let equal (a : int array) b =
    let n = Array.length a in
    let rec go i = i = n || (a.(i) = b.(i) && go (i + 1)) in
    n = Array.length b && go 0

  let hash (a : int array) =
    Array.fold_left (fun h x -> (h * 31) + x) 17 a land max_int
end)

let run ?(check = true) ?snapshot ?include_default ?max_pops ?budget ~k ~pref
    compiled te =
  if k < 1 then invalid_arg "Topk_ct.run: k < 1";
  let spec = Core.Is_cr.compiled_spec compiled in
  let heap_pops = ref 0
  and queue_pops = ref 0
  and checks = ref 0
  and enumerated = ref 0 in
  (* All checks of one run share a snapshot: the base fixpoint is
     drained once and each candidate only pays for its delta. Lazy so
     the check-free mode (TopKCTh's seed enumeration) never builds
     it. *)
  let z =
    match snapshot with
    | Some z -> lazy z
    | None -> lazy (Core.Is_cr.snapshot compiled)
  in
  let verify t =
    if not check then true
    else begin
      incr checks;
      Obs.Counter.incr m_checks;
      let ok = Core.Is_cr.check_snapshot (Lazy.force z) t in
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
    (* One heap per null attribute: best weight first, value order as
       tie-break (pre-constructed in linear time by heapify). *)
    let heap_cmp (v1, w1) (v2, w2) =
      match Float.compare w2 w1 with 0 -> Value.compare v1 v2 | c -> c
    in
    let heaps =
      Array.map
        (fun a ->
          let domain = Active_domain.values ?include_default spec a in
          if domain = [] then
            invalid_arg "Topk_ct.run: empty active domain for a null attribute";
          let weighted =
            Array.of_list
              (List.map (fun v -> (v, Preference.weight pref a v)) domain)
          in
          Pqueue.Binary_heap.of_array ~cmp:heap_cmp weighted)
        zattrs
    in
    let buffers = Array.init m (fun _ -> Vec.create ()) in
    let pop_heap i =
      match Pqueue.Binary_heap.pop heaps.(i) with
      | Some vw ->
          incr heap_pops;
          Obs.Counter.incr m_heap_pops;
          Vec.push buffers.(i) vw;
          true
      | None -> false
    in
    for i = 0 to m - 1 do
      ignore (pop_heap i : bool)
    done;
    let values_at pos =
      let values = Array.copy te in
      Array.iteri (fun i a -> values.(a) <- fst (Vec.get buffers.(i) pos.(i))) zattrs;
      values
    in
    let origin = Array.make m 0 in
    let seed = { pos = origin; w = Preference.score pref (values_at origin) } in
    let seen = Ptbl.create 64 in
    Ptbl.add seen seed.pos ();
    incr enumerated;
    let queue = ref (Pqueue.Brodal_queue.insert seed (Pqueue.Brodal_queue.empty ~cmp:obj_cmp)) in
    let budget_left () =
      match max_pops with None -> true | Some b -> !queue_pops < b
    in
    let deadline () =
      match budget with None -> None | Some b -> Robust.Budget.check b
    in
    let probe = Array.make m 0 in
    let rec loop targets found =
      if found >= k || not (budget_left ()) then finish targets
      else
        match deadline () with
        | Some trip -> finish ~tripped:trip targets
        | None -> (
            match Pqueue.Brodal_queue.pop !queue with
            | None -> finish targets
            | Some (o, q') ->
                queue := q';
                incr queue_pops;
                Obs.Counter.incr m_pops;
                let values = values_at o.pos in
                let targets, found =
                  if verify values then (values :: targets, found + 1)
                  else (targets, found)
                in
                (* Expand: advance each attribute position by one. *)
                for i = 0 to m - 1 do
                  let next = o.pos.(i) + 1 in
                  let available =
                    next < Vec.length buffers.(i)
                    || (Vec.length buffers.(i) = next && pop_heap i)
                  in
                  if available then begin
                    Array.blit o.pos 0 probe 0 m;
                    probe.(i) <- next;
                    if not (Ptbl.mem seen probe) then begin
                      let pos = Array.copy probe in
                      Ptbl.add seen pos ();
                      incr enumerated;
                      let _, w_new = Vec.get buffers.(i) next in
                      let _, w_old = Vec.get buffers.(i) o.pos.(i) in
                      let o' = { pos; w = o.w -. w_old +. w_new } in
                      queue := Pqueue.Brodal_queue.insert o' !queue;
                      Obs.Gauge.observe_max m_hwm
                        (float_of_int (Pqueue.Brodal_queue.size !queue))
                    end
                  end
                done;
                loop targets found)
    in
    loop [] 0
  end
