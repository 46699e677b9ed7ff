module Preference = Preference
module Active_domain = Active_domain

type algo = [ `Rank_join | `Ct | `Ct_h ]

let algo_name = function
  | `Rank_join -> "RankJoinCT"
  | `Ct -> "TopKCT"
  | `Ct_h -> "TopKCTh"

type outcome = Topk_ct.outcome = {
  targets : Relational.Value.t array list;
  exhausted : Robust.Error.trip option;
  checks : int;
  pulls : int;
}

let exploration_cap = 2_000

let solve ?(algo = `Ct) ?state ?max_pops ?budget ~k ~pref compiled te =
  if k < 1 then
    Error
      (Robust.Error.spec_invalid
         (Printf.sprintf "top-k: k must be >= 1, got %d" k))
  else
    (* The explicit cap wins; otherwise an armed meter's step limit is
       the cap. *)
    let max_pops =
      match max_pops with
      | Some _ -> max_pops
      | None -> Option.bind budget (fun b -> (Robust.Budget.limits_of b).max_steps)
    in
    let run =
      match algo with
      | `Ct -> Topk_ct.run
      | `Ct_h -> Topk_ct_h.run
      | `Rank_join -> Rank_join_ct.run
    in
    Ok (run ?state ?max_pops ?budget ~k ~pref compiled te)
