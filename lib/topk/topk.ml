module Preference = Preference
module Active_domain = Active_domain
module Candidate_oracle = Candidate_oracle
module Private = struct
  module Rank_join_ct = Rank_join_ct
  module Topk_ct = Topk_ct
  module Topk_ct_h = Topk_ct_h
end

type algo = [ `Rank_join | `Ct | `Ct_h ]

let algo_name = function
  | `Rank_join -> "RankJoinCT"
  | `Ct -> "TopKCT"
  | `Ct_h -> "TopKCTh"

type outcome = {
  targets : Relational.Value.t array list;
  exhausted : Robust.Error.trip option;
  checks : int;
  pulls : int;
}

let solve ?(algo = `Ct) ?state ?include_default ?max_pops ?budget ~k ~pref compiled te =
  if k < 1 then
    Error
      (Robust.Error.spec_invalid
         (Printf.sprintf "top-k: k must be >= 1, got %d" k))
  else begin
    (* The default active domain always contains the synthetic ⊥_A,
       so emptiness is only reachable when the caller excludes it —
       surface that as a typed error instead of the engines'
       Invalid_argument. *)
    let empty_domain =
      if include_default <> Some false then None
      else
        let spec = Core.Is_cr.compiled_spec compiled in
        let schema = Core.Specification.schema spec in
        Array.to_list te
        |> List.mapi (fun a v -> (a, v))
        |> List.find_opt (fun (a, v) ->
               Relational.Value.is_null v
               && Active_domain.values ?include_default spec a = [])
        |> Option.map (fun (a, _) ->
               Robust.Error.spec_invalid
                 (Printf.sprintf
                    "top-k: empty active domain for null attribute %S"
                    (Relational.Schema.attribute schema a)))
    in
    match empty_domain with
    | Some e -> Error e
    | None ->
        (* One pop cap for the heap-driven algorithms: the explicit
           [max_pops] wins; otherwise an armed meter's step limit is
           translated. RankJoinCT charges the meter directly; TopKCT
           and TopKCTh check it once per frontier pop, so all three
           honour its deadline. *)
        let cap =
          match (max_pops, budget) with
          | Some _, _ -> max_pops
          | None, Some b -> (Robust.Budget.limits_of b).Robust.Budget.max_steps
          | None, None -> None
        in
        let capped_exhaustion tripped pulls found =
          match (tripped, cap) with
          | Some _, _ -> tripped
          | None, Some c when pulls >= c && found < k -> Some Robust.Error.Steps
          | None, _ -> None
        in
        Ok
          (match algo with
          | `Ct ->
              let r =
                Topk_ct.run ?state ?include_default ?max_pops:cap ?budget ~k
                  ~pref compiled te
              in
              {
                targets = r.Topk_ct.targets;
                exhausted =
                  capped_exhaustion r.Topk_ct.tripped
                    r.Topk_ct.stats.Topk_ct.queue_pops
                    (List.length r.Topk_ct.targets);
                checks = r.Topk_ct.stats.Topk_ct.checks;
                pulls = r.Topk_ct.stats.Topk_ct.queue_pops;
              }
          | `Ct_h ->
              let r =
                Topk_ct_h.run ?state ?include_default ?max_pops:cap ?budget
                  ~k ~pref compiled te
              in
              {
                targets = r.Topk_ct_h.targets;
                exhausted =
                  capped_exhaustion r.Topk_ct_h.tripped
                    r.Topk_ct_h.stats.Topk_ct_h.seeds
                    (List.length r.Topk_ct_h.targets);
                checks = r.Topk_ct_h.stats.Topk_ct_h.checks;
                pulls = r.Topk_ct_h.stats.Topk_ct_h.seeds;
              }
          | `Rank_join ->
              let r =
                Rank_join_ct.run ?state ?include_default ?max_pulls:cap ?budget
                  ~k ~pref compiled te
              in
              {
                targets = r.Rank_join_ct.targets;
                exhausted =
                  (match r.Rank_join_ct.status with
                  | Rank_join_ct.Complete -> None
                  | Rank_join_ct.Search_exhausted trip -> Some trip);
                checks = r.Rank_join_ct.stats.Rank_join_ct.checks;
                pulls = r.Rank_join_ct.stats.Rank_join_ct.pulls;
              })
  end
