module Value = Relational.Value

type round_view = {
  round : int;
  te : Value.t array;
  null_attrs : int list;
  candidates : Value.t array list;
}

type reaction =
  | Accept of Value.t array
  | Fill of (int * Value.t) list
  | Give_up

type outcome =
  | Resolved of { target : Value.t array; rounds : int }
  | Unresolved of { te : Value.t array; rounds : int }
  | Rejected of { rule : string; reason : string }

(* Candidate enumeration is capped: entities with fewer than k
   candidate targets would otherwise force an exponential exhaustion
   (§6.2); a partial list only makes the user reveal one more value. *)
let candidates_of ?state algo ~k ~pref compiled te =
  match Topk.solve ~algo ?state ~max_pops:Topk.exploration_cap ~k ~pref compiled te with
  | Ok outcome -> outcome.Topk.targets
  | Error _ -> []

let run ?(k = 15) ?(algorithm = `Ct) ?(max_rounds = 20) ~pref ~user spec =
  (* The loop rides one resumable chase state: each user fill is a
     kept fill into the existing index instead of a re-chase from
     scratch (equivalent by monotonicity; see Core.Is_cr.state). Until
     the first fill, a state started from the all-null template is also
     the base of top-k's candidate checks, which take it over. *)
  let compiled = Core.Is_cr.compile spec in
  let state = Core.Is_cr.start compiled in
  let null_base = Array.for_all Value.is_null (Core.Specification.template spec) in
  match Core.Is_cr.conflict state with
  | Some (rule, reason) -> Rejected { rule; reason }
  | None ->
      let rec round n =
        let te = Core.Is_cr.te state in
        let null_attrs =
          List.filter (fun a -> Value.is_null te.(a)) (List.init (Array.length te) Fun.id)
        in
        if null_attrs = [] then Resolved { target = te; rounds = n }
        else if n >= max_rounds then Unresolved { te; rounds = n }
        else begin
          let view =
            {
              round = n + 1;
              te;
              null_attrs;
              candidates =
                candidates_of
                  ?state:(if n = 0 && null_base then Some state else None)
                  algorithm ~k ~pref compiled te;
            }
          in
          match user view with
          | Accept target -> Resolved { target; rounds = n + 1 }
          | Give_up -> Unresolved { te; rounds = n }
          | Fill assignments -> (
              List.iter
                (fun (a, _) ->
                  if not (Value.is_null te.(a)) then
                    invalid_arg "Deduction.run: user filled a non-null attribute")
                assignments;
              match Core.Is_cr.fill state assignments with
              | Ok () -> round (n + 1)
              | Error (rule, reason) -> Rejected { rule; reason })
        end
      in
      round 0

let oracle_user ~truth ?rng () view =
  let target_listed =
    List.exists
      (fun cand -> Array.for_all2 Value.equal cand truth)
      view.candidates
  in
  if target_listed then Accept truth
  else
    match view.null_attrs with
    | [] -> Give_up
    | attrs ->
        let attr =
          match rng with
          | Some g -> List.nth attrs (Util.Prng.int g (List.length attrs))
          | None -> List.hd attrs
        in
        if Value.is_null truth.(attr) then Give_up
        else Fill [ (attr, truth.(attr)) ]
