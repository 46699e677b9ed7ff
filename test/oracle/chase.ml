module Ground = Rules.Ground
module Value = Relational.Value
module Instance = Core.Instance

(* The reference engine shares the conflict counter with Is_cr (same
   registry entry) but counts its own rescanning steps separately.
   It chases the literal Γ ({!Literal_ground}): templates, the axioms
   the engine applies itself, and the plan and packed words behind
   the engine's grounding are performance shapes of [Is_cr], and the
   equivalence tests need one engine whose step set is the paper's
   literal reading, independent of all of them. *)
let m_rescan = Obs.Counter.make ~help:"steps applied by the naive rescanning chase" "chase_rescan_steps_total"
let m_conflicts = Obs.Counter.make "chase_conflicts_total"

type policy =
  | First_applicable
  | Random of Util.Prng.t

type result =
  | Terminal of Instance.t * int
  | Stuck of { rule : string; reason : string }
  | Exhausted of { partial : Instance.t; steps : int; trip : Robust.Error.trip }

(* LHS satisfaction against the current instance, from scratch. *)
let pred_holds inst = function
  | Ground.P_ord { attr; c1; c2 } ->
      Ordering.Attr_order.lt_classes (Instance.order inst attr) c1 c2
  | Ground.P_te { attr; op; value } ->
      let w = Instance.te_value inst attr in
      (not (Value.is_null w)) && Rules.Ar.eval_op op w value

let applicable inst (s : Ground.step) = List.for_all (pred_holds inst) s.preds

(* Would enforcing this step change the instance? Probe on a copy:
   entity instances are small, and this engine is the reference
   implementation, not the fast path. *)
let changes inst (s : Ground.step) =
  let probe = Instance.copy inst in
  match Instance.apply probe s.action with
  | Instance.Unchanged -> false
  | Instance.Changed _ | Instance.Invalid _ -> true

let run_trace ?(policy = First_applicable) ?budget ?prepare spec =
  let inst = Instance.init spec in
  let steps = Literal_ground.of_spec spec in
  let steps = match prepare with Some f -> f steps | None -> steps in
  let charge () = Option.bind budget Robust.Budget.step in
  let steps = Array.of_list steps in
  let rec loop applied_rev count =
    match charge () with
    | Some trip ->
        (Exhausted { partial = inst; steps = count; trip }, List.rev applied_rev)
    | None -> (
        let candidates =
          Array.to_list steps
          |> List.filter (fun s -> applicable inst s && changes inst s)
        in
        match candidates with
        | [] -> (Terminal (inst, count), List.rev applied_rev)
        | _ -> (
            let chosen =
              match policy with
              | First_applicable -> List.hd candidates
              | Random g ->
                  List.nth candidates (Util.Prng.int g (List.length candidates))
            in
            match Instance.apply inst chosen.action with
            | Instance.Changed _ ->
                Obs.Counter.incr m_rescan;
                loop (chosen :: applied_rev) (count + 1)
            | Instance.Unchanged ->
                (* contradicts the [changes] probe *)
                assert false
            | Instance.Invalid { reason; _ } ->
                Obs.Counter.incr m_conflicts;
                (Stuck { rule = chosen.rule_name; reason }, List.rev applied_rev)))
  in
  loop [] 0

let run ?policy ?budget ?prepare spec = fst (run_trace ?policy ?budget ?prepare spec)
let chase_sequence ?policy spec = snd (run_trace ?policy spec)

let versus_is_cr spec =
  match (Core.Is_cr.run_compiled (Core.Is_cr.compile spec), run spec) with
  | Core.Is_cr.Church_rosser inst, Terminal (cinst, _) ->
      let te = Instance.te inst in
      if Array.for_all2 Value.equal te (Instance.te cinst) then Ok (Some te)
      else Error "Is_cr and Chase reach different targets"
  | Core.Is_cr.Church_rosser _, Stuck { rule; reason } ->
      Error (Printf.sprintf "Church-Rosser, but Chase is stuck (%s: %s)" rule reason)
  | Core.Is_cr.Not_church_rosser _, (Terminal _ | Stuck _) -> Ok None
  | _, Exhausted _ -> Error "unbudgeted Chase exhausted"
