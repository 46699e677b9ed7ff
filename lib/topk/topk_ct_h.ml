module Value = Relational.Value
module Relation = Relational.Relation

(* Observability: the greedy-repair loop's work. Checks are shared
   with the exact algorithms' counter. *)
let m_revisions = Obs.Counter.make ~help:"greedy single-attribute revisions" "topk_heuristic_revisions_total"
let m_repaired = Obs.Counter.make ~help:"seeds repaired into valid candidates" "topk_heuristic_repaired_total"
let m_checks = Obs.Counter.make "topk_checks_total"

type stats = {
  seeds : int;
  revisions : int;
  checks : int;
  repaired : int;
}

type result = {
  targets : Value.t array list;
  stats : stats;
  tripped : Robust.Error.trip option;
}

(* Greedy revision: move the candidate's null-attribute values
   towards the instance tuple they best co-occur with. One revision
   changes one attribute; the choice needs no chase — that is the
   whole point of the heuristic (§6.3 trades candidate quality for
   far fewer check invocations than TopKCT). *)
let best_cooccurring entity zattrs t =
  let score tuple =
    Array.fold_left ( + ) 0
      (Array.map
         (fun a ->
           let v = Relational.Tuple.get tuple a in
           if (not (Value.is_null v)) && Value.equal v t.(a) then 1 else 0)
         zattrs)
  in
  let best = ref None in
  List.iter
    (fun tuple ->
      let s = score tuple in
      match !best with
      | Some (_, bs) when bs >= s -> ()
      | _ -> best := Some (tuple, s))
    (Relation.tuples entity);
  Option.map fst !best

let run ?state ?include_default ?max_pops ?budget ~k ~pref compiled te =
  if k < 1 then invalid_arg "Topk_ct_h.run: k < 1";
  let spec = Core.Is_cr.compiled_spec compiled in
  let entity = Core.Specification.entity spec in
  let revisions = ref 0 and checks = ref 0 and repaired = ref 0 in
  (* Lazy: the seed enumeration below is check-free, so the state is
     only started when the first repair verification runs. *)
  let z = Core.Is_cr.null_base ?state compiled in
  let check t =
    incr checks;
    Obs.Counter.incr m_checks;
    Core.Is_cr.trial (Lazy.force z) t
  in
  let zattrs =
    Array.of_list
      (List.filter
         (fun a -> Value.is_null te.(a))
         (List.init (Array.length te) (fun i -> i)))
  in
  let m = Array.length zattrs in
  (* Repair loop: verify; on failure pull one attribute towards the
     best co-occurring instance tuple and retry, at most m times
     (each attribute is revised at most once). *)
  let repair seed =
    let t = Array.copy seed in
    let rec attempt i =
      if check t then Some t
      else if i >= m then None
      else begin
        incr revisions;
        Obs.Counter.incr m_revisions;
        match best_cooccurring entity zattrs t with
        | None -> None
        | Some anchor ->
            (* Adopt the anchor's value on the first null-attribute
               where the candidate disagrees. *)
            let changed = ref false in
            Array.iter
              (fun a ->
                let v = Relational.Tuple.get anchor a in
                if
                  (not !changed)
                  && (not (Value.is_null v))
                  && not (Value.equal t.(a) v)
                then begin
                  t.(a) <- v;
                  changed := true
                end)
              zattrs;
            if !changed then attempt (i + 1) else None
      end
    in
    let result = attempt 0 in
    (match result with
    | Some t' when not (Array.for_all2 Value.equal t' seed) ->
        incr repaired;
        Obs.Counter.incr m_repaired
    | _ -> ());
    result
  in
  let seeds =
    Topk_ct.run ~check:false ?include_default ?max_pops ?budget ~k ~pref compiled te
  in
  (* At most k targets: a linear scan is the duplicate set. *)
  let rec repair_all acc = function
    | [] -> (List.rev acc, seeds.Topk_ct.tripped)
    | seed :: rest -> (
        match Option.bind budget Robust.Budget.check with
        | Some trip -> (List.rev acc, Some trip)
        | None -> (
            match repair seed with
            | Some t when not (List.exists (Array.for_all2 Value.equal t) acc) ->
                repair_all (t :: acc) rest
            | _ -> repair_all acc rest))
  in
  let targets, tripped = repair_all [] seeds.Topk_ct.targets in
  {
    targets;
    stats =
      {
        seeds = List.length seeds.Topk_ct.targets;
        revisions = !revisions;
        checks = !checks;
        repaired = !repaired;
      };
    tripped;
  }
