module Schema = Relational.Schema

type t = {
  schema : Schema.t;
  master : Schema.t option;
  users : Ar.t list;
  axioms : Ar.t list;
  plan : Plan.t; (* of [axioms @ users]; every constructor rebuilds it *)
}

(* The plan is built eagerly here, never on first use: a [Lazy.t]
   forced by two domains at once raises [CamlinternalLazy.Undefined]. *)
let with_users t users = { t with users; plan = Plan.make (t.axioms @ users) }

let validate_all ~schema ~master rules =
  let rec go = function
    | [] -> Ok ()
    | r :: rest -> (
        match Ar.validate ~schema ~master r with
        | Ok () -> go rest
        | Error e -> Error (Printf.sprintf "rule %s: %s" (Ar.name r) e))
  in
  go rules

let make ?(include_axioms = true) ~schema ?master rules =
  match validate_all ~schema ~master rules with
  | Error _ as e -> e
  | Ok () ->
      let axioms = if include_axioms then Axioms.all schema else [] in
      Ok { schema; master; users = rules; axioms; plan = Plan.make (axioms @ rules) }

let make_exn ?include_axioms ~schema ?master rules =
  match make ?include_axioms ~schema ?master rules with
  | Ok t -> t
  | Error e -> invalid_arg ("Ruleset.make_exn: " ^ e)

let schema t = t.schema
let master_schema t = t.master
let rules t = t.axioms @ t.users
let axioms t = t.axioms
let plan t = t.plan
let user_rules t = t.users

let subsumed t =
  let rules = Plan.rules t.plan and first_user = List.length t.axioms in
  Plan.subsumers t.plan
  |> Array.mapi (fun i by ->
         if i >= first_user && Array.length by > 0 then Some (rules.(i), rules.(by.(0)))
         else None)
  |> Array.to_list |> List.filter_map Fun.id

let size t = List.length t.users

let form1_count t = List.length (List.filter Ar.is_form1 t.users)
let form2_count t = List.length (List.filter Ar.is_form2 t.users)

let restrict t which =
  let keep =
    match which with
    | `Form1_only -> Ar.is_form1
    | `Form2_only -> Ar.is_form2
    | `Both -> fun _ -> true
  in
  with_users t (List.filter keep t.users)

let add t rule =
  match Ar.validate ~schema:t.schema ~master:t.master rule with
  | Ok () -> Ok (with_users t (t.users @ [ rule ]))
  | Error e -> Error (Printf.sprintf "rule %s: %s" (Ar.name rule) e)

let find t name =
  List.find_opt (fun r -> Ar.name r = name) (rules t)

let remove t name =
  with_users t (List.filter (fun r -> Ar.name r <> name) t.users)

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun r ->
      Ar.pp ~schema:t.schema ?master:t.master ppf r;
      Format.pp_print_cut ppf ())
    t.users;
  Format.fprintf ppf "(+ %d axioms)@]" (List.length t.axioms)
