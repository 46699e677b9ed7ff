module Intern = Relational.Intern
module Attr_order = Ordering.Attr_order

(* Both tables hold sids in reverse emission order; queries reverse.
   Keys are a rule-name string or a dense interned id — never a
   structural value (numeric twins already share an id). *)
type t = {
  d_steps : int;
  d_by_rule : (string, int list) Hashtbl.t;
  d_rule_order : string list;  (** first-appearance order *)
  d_by_vid : (int, int list) Hashtbl.t;
  d_deferred : (string, unit) Hashtbl.t;
      (** rule names held behind demand templates: their steps are not
          in Γ's prefix, so rule-level probes must treat them as
          possibly contributing *)
}

let push tbl key sid =
  match Hashtbl.find_opt tbl key with
  | Some (s :: _) when s = sid -> ()  (* same step, mentioned twice *)
  | Some l -> Hashtbl.replace tbl key (sid :: l)
  | None -> Hashtbl.replace tbl key [ sid ]

let of_ground ~intern ~orders g =
  let n = Ground.count g in
  let by_rule = Hashtbl.create 32 in
  let by_vid = Hashtbl.create 256 in
  let rule_order = ref [] in
  let class_vid attr c =
    Intern.intern intern (Attr_order.numbering_class_value orders.(attr) c)
  in
  for sid = 0 to n - 1 do
    let name = Ground.rule_name g sid in
    if not (Hashtbl.mem by_rule name) then rule_order := name :: !rule_order;
    push by_rule name sid;
    Ground.iter_predi g sid (fun _ p ->
        match p with
        | Ground.P_te { value; _ } -> push by_vid (Intern.intern intern value) sid
        | Ground.P_ord { attr; c1; c2 } ->
            push by_vid (class_vid attr c1) sid;
            push by_vid (class_vid attr c2) sid);
    match Ground.action g sid with
    | Ground.Assign { value; _ } -> push by_vid (Intern.intern intern value) sid
    | Ground.Add_order { attr; c1; c2 } ->
        push by_vid (class_vid attr c1) sid;
        push by_vid (class_vid attr c2) sid
    | Ground.Refresh _ -> ()
  done;
  let templates = Ground.templates g in
  let deferred = Hashtbl.create (max 1 (Array.length templates)) in
  Array.iter
    (fun tpl -> Hashtbl.replace deferred (Ground.template_name tpl) ())
    templates;
  {
    d_steps = n;
    d_by_rule = by_rule;
    d_rule_order = List.rev !rule_order;
    d_by_vid = by_vid;
    d_deferred = deferred;
  }

let steps t = t.d_steps
let rules t = t.d_rule_order

let mentions_rule t name =
  Hashtbl.mem t.d_by_rule name || Hashtbl.mem t.d_deferred name

let steps_of_rule t name =
  match Hashtbl.find_opt t.d_by_rule name with
  | Some l -> List.rev l
  | None -> []

let mentions_vid t vid = Hashtbl.mem t.d_by_vid vid

let steps_of_vid t vid =
  match Hashtbl.find_opt t.d_by_vid vid with
  | Some l -> List.rev l
  | None -> []

let vids t =
  List.sort compare (Hashtbl.fold (fun vid _ acc -> vid :: acc) t.d_by_vid [])
