module Value = Relational.Value
module Schema = Relational.Schema
module Relation = Relational.Relation

let default_value schema a =
  Value.String (Printf.sprintf "<other:%s>" (Schema.attribute schema a))

let is_default = function
  | Value.String s ->
      String.length s > 8 && String.sub s 0 7 = "<other:" && s.[String.length s - 1] = '>'
  | _ -> false

(* The master columns a form (2) rule can copy or bind into
   [te[attr]]: the ones it writes from, and those a [Te_master]
   conjunct joins against. *)
let master_cols spec attr =
  List.concat_map
    (function
      | Rules.Ar.Form2 r ->
          (if r.f2_te_attr = attr then [ r.f2_tm_attr ] else [])
          @ List.filter_map
              (function
                | Rules.Ar.Te_master (a, b) when a = attr -> Some b | _ -> None)
              r.f2_lhs
      | Rules.Ar.Form1 _ -> [])
    (Rules.Ruleset.user_rules (Core.Specification.ruleset spec))
  |> List.sort_uniq Int.compare

let values ?(include_default = true) spec attr =
  let entity = Core.Specification.entity spec in
  let schema = Relation.schema entity in
  let seen = Hashtbl.create 16 in
  let acc = ref [] in
  List.iter
    (fun v ->
      if not (Value.is_null v) then begin
        let key = Preference.value_key v in
        if not (Hashtbl.mem seen key) then begin
          Hashtbl.add seen key ();
          acc := v :: !acc
        end
      end)
    (Relation.distinct_column entity attr);
  (* Master contributions come from the index's memoized per-column
     domains, deduplicated on ids of the spec's table (the index's
     own): those are unique per [Value.equal] class, which is exactly
     [value_key] equality. *)
  (match (Core.Specification.master_index spec, master_cols spec attr) with
  | None, _ | Some _, [] -> ()
  | Some midx, cols ->
      let doms = List.map (fun col -> Rules.Master_index.distinct midx ~col) cols in
      let taken = Hashtbl.create 16 in
      let intern = Core.Specification.intern spec in
      List.iter
        (fun v ->
          match Relational.Intern.find_opt intern v with
          | Some vid -> Hashtbl.replace taken vid ()
          | None -> ())
        !acc;
      (* Each column is duplicate-free already: only a later column
         needs an earlier one's ids in [taken]. *)
      let rec merge = function
        | [] -> ()
        | (ids, vals) :: rest ->
            Array.iteri
              (fun i vid ->
                if not (Hashtbl.mem taken vid) then begin
                  if rest <> [] then Hashtbl.replace taken vid ();
                  acc := vals.(i) :: !acc
                end)
              ids;
            merge rest
      in
      merge doms);
  let base = List.rev !acc in
  if include_default then base @ [ default_value schema attr ] else base

let ranked ?include_default spec pref attr =
  let domain = values ?include_default spec attr in
  let weighted =
    Array.of_list (List.map (fun v -> (v, Preference.weight pref attr v)) domain)
  in
  Array.sort
    (fun (v1, w1) (v2, w2) ->
      match Float.compare w2 w1 with 0 -> Value.compare v1 v2 | c -> c)
    weighted;
  weighted
