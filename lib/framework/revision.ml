module Ruleset = Rules.Ruleset

type outcome = {
  drop : string list;
  spec : Core.Specification.t;
}

let without spec names =
  let rs =
    List.fold_left Ruleset.remove (Core.Specification.ruleset spec) names
  in
  Core.Specification.with_ruleset spec rs

let is_cr spec =
  match Core.Is_cr.run spec with
  | Core.Is_cr.Church_rosser _ -> true
  | Core.Is_cr.Not_church_rosser _ -> false

let is_culprit_set spec names = is_cr (without spec names)

(* Rules a conflict blamed on an axiom can hide behind: every user
   rule concluding about the conflicted attribute. The axioms only
   relay orders; the contradiction entered through some user rule
   writing that attribute. *)
let writers_of spec attr =
  List.filter_map
    (fun r ->
      if Rules.Ar.attr_written r = attr then Some (Rules.Ar.name r) else None)
    (Ruleset.user_rules (Core.Specification.ruleset spec))

let suggest ?(max_drops = 10) spec =
  (* Iterative-deepening culprit search: all drop sets of size d are
     tried before any of size d+1, so a smallest blame-reachable set
     is found first (Example 6 yields the singleton {phi12} rather
     than a larger set further down the blame trail). Candidates at
     a conflict are every user rule concluding about the conflicted
     attribute — the blamed rule itself, and the rules it clashed
     with. *)
  let rec drive dropped budget =
    let current = without spec dropped in
    match Core.Is_cr.run current with
    | Core.Is_cr.Church_rosser _ -> Some dropped
    | Core.Is_cr.Not_church_rosser { rule; _ } -> blame current dropped rule budget
  and blame current dropped rule budget =
    if budget = 0 then None
    else begin
      let candidates =
        match Ruleset.find (Core.Specification.ruleset current) rule with
        | Some r ->
            let same_attr =
              List.filter
                (fun n -> not (List.mem n dropped))
                (writers_of current (Rules.Ar.attr_written r))
            in
            if Rules.Axioms.is_axiom r then same_attr
            else rule :: List.filter (fun n -> n <> rule) same_attr
        | None -> []
      in
      let rec try_candidates = function
        | [] -> None
        | c :: rest -> (
            match drive (c :: dropped) (budget - 1) with
            | Some _ as found -> found
            | None -> try_candidates rest)
      in
      try_candidates candidates
    end
  in
  (* The unrevised spec is chased once: a Church-Rosser one needs no
     revision, and a conflicting one is blamed from that run at every
     depth. *)
  let root =
    match Core.Is_cr.run spec with
    | Core.Is_cr.Church_rosser _ -> None
    | Core.Is_cr.Not_church_rosser { rule; _ } -> Some rule
  in
  let rec deepen rule depth =
    if depth > max_drops then None
    else
      match blame spec [] rule depth with
      | Some dropped ->
          (* Minimize: re-add any rule whose removal was unnecessary. *)
          let minimal =
            List.filter
              (fun name ->
                not (is_culprit_set spec (List.filter (fun n -> n <> name) dropped)))
              dropped
          in
          let final = if is_culprit_set spec minimal then minimal else dropped in
          Some { drop = final; spec = without spec final }
      | None -> deepen rule (depth + 1)
  in
  Option.bind root (fun rule -> deepen rule 1)
