module Value = Relational.Value
module Relation = Relational.Relation

(* Observability: the greedy-repair loop's work. Checks count in the
   exact algorithms' counter (Topk_ct.check); a failed one is revised,
   not pruned. *)
let m_revisions = Obs.Counter.make ~help:"greedy single-attribute revisions" "topk_heuristic_revisions_total"
let m_repaired = Obs.Counter.make ~help:"seeds repaired into valid candidates" "topk_heuristic_repaired_total"

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

let run ?state ?max_pops ?budget ~k ~pref compiled te =
  let entity = Core.Specification.entity (Core.Is_cr.compiled_spec compiled) in
  Topk_ct.engine ?state ~pref compiled te @@ fun b zattrs streams ->
  let m = Array.length zattrs in
  (* Repair loop: verify; on failure pull one attribute towards the
     best co-occurring instance tuple and retry, at most m times
     (each attribute is revised at most once). *)
  let repair seed =
    let t = Array.copy seed in
    let rec attempt i =
      if Topk_ct.check b t then Some t
      else if i >= m then None
      else begin
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
    | Some t' when not (Array.for_all2 Value.equal t' seed) -> Obs.Counter.incr m_repaired
    | _ -> ());
    result
  in
  (* The seeds: TopKCT's walk without the check step. *)
  let seeds, tripped, pulls =
    Topk_ct.walk ~check:false ?max_pops ?budget ~k ~pref te b zattrs streams
  in
  (* At most k targets: a linear scan is the duplicate set. *)
  let rec repair_all acc = function
    | [] -> (List.rev acc, tripped, pulls)
    | seed :: rest -> (
        match Option.bind budget Robust.Budget.check with
        | Some trip -> (List.rev acc, Some trip, pulls)
        | None -> (
            match repair seed with
            | Some t when not (List.exists (Array.for_all2 Value.equal t) acc) ->
                repair_all (t :: acc) rest
            | _ -> repair_all acc rest))
  in
  repair_all [] seeds
