module Value = Relational.Value
module Schema = Relational.Schema
module Relation = Relational.Relation
module Itbl = Hashtbl.Make (Int)

let default_value schema a =
  Value.String ("<other:" ^ Schema.attribute schema a ^ ">")

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

(* The distinct non-null values of [Ie]'s column, in first-appearance
   order, with a table from each [Value.equal] class to its first
   spelling. *)
let entity_values spec attr =
  let ie = Core.Specification.entity spec in
  let firsts = Value.Tbl.create 16 in
  let acc = ref [] in
  for ti = 0 to Relation.size ie - 1 do
    let v = Relation.get ie ti attr in
    if not (Value.is_null v || Value.Tbl.mem firsts v) then begin
      Value.Tbl.add firsts v v;
      acc := v :: !acc
    end
  done;
  (List.rev !acc, firsts)

(* The interned ids of the entity's values: a master value holding
   one of them is already in the domain. *)
let ids_of spec vs =
  let intern = Core.Specification.intern spec in
  let ids = Itbl.create 16 in
  List.iter
    (fun v ->
      match Relational.Intern.find_opt intern v with
      | Some vid -> Itbl.replace ids vid ()
      | None -> ())
    vs;
  ids

(* The specification's table is made first: making it fills the
   master columns its rules read, whose ids the domains carry. *)
let master_domains spec attr f =
  match (Core.Specification.master_index spec, master_cols spec attr) with
  | None, _ | Some _, [] -> []
  | Some midx, cols ->
      ignore (Core.Specification.intern spec : Relational.Intern.t);
      List.map (fun col -> f midx ~col) cols

(* The domain, given the entity's values ([entity_values]). *)
let domain ~include_default spec attr ents =
  let acc = ref (List.rev ents) in
  (* Master contributions come from the index's memoized per-column
     domains, deduplicated on ids of the spec's table (the index's
     own): those are unique per [Value.equal] class. *)
  (match master_domains spec attr Rules.Master_index.distinct with
  | [] -> ()
  | doms ->
      let taken = ids_of spec ents in
      (* Each column is duplicate-free already: only a later column
         needs an earlier one's ids in [taken]. *)
      let rec merge = function
        | [] -> ()
        | (ids, vals) :: rest ->
            Array.iteri
              (fun i vid ->
                if not (Itbl.mem taken vid) then begin
                  if rest <> [] then Itbl.replace taken vid ();
                  acc := vals.(i) :: !acc
                end)
              ids;
            merge rest
      in
      merge doms);
  let base = List.rev !acc in
  let bottom = default_value (Core.Specification.schema spec) attr in
  if include_default && not (List.exists (Value.equal bottom) base) then base @ [ bottom ]
  else base

let values ?(include_default = true) spec attr =
  domain ~include_default spec attr (fst (entity_values spec attr))

(* ------------------------------------------------------------------ *)
(* Ranked streams                                                     *)
(* ------------------------------------------------------------------ *)

(* The ranked order: weight descending, then [Value.compare]
   ascending. Domain values are pairwise not [Value.equal], and
   [Value.compare] is 0 exactly on [Value.equal] pairs, so it is
   strict on a domain. *)
let rank_cmp (v1, w1) (v2, w2) =
  match Float.compare w2 w1 with 0 -> Value.compare v1 v2 | c -> c

(* One source of default-weight values, ascending in [Value.compare]:
   [ids] is empty for a source no other one can repeat (the entity's
   leftovers, ⊥_A); a master column skips the ids in [taken]. *)
type cursor = { ids : int array; vals : Value.t array; mutable at : int }

type stream = {
  explicit : (Value.t * float) array;  (** ranked *)
  mutable ei : int;
  default : float;
  rest : cursor array;
  taken : unit Itbl.t;
      (** ids the master cursors skip: the entity's, the explicit
          source's, and those already pulled *)
  mutable buf : (Value.t * float) array;
  mutable len : int;
}

let rec settle taken c =
  if c.at < Array.length c.vals && Array.length c.ids > 0 && Itbl.mem taken c.ids.(c.at)
  then begin
    c.at <- c.at + 1;
    settle taken c
  end

(* The cursor holding the least pending default-weight value; equal
   values (one id in two master columns) go to the earlier column,
   whose spelling [values] keeps. *)
let least s =
  let best = ref (-1) in
  Array.iteri
    (fun i c ->
      settle s.taken c;
      if c.at < Array.length c.vals then
        match !best with
        | -1 -> best := i
        | b ->
            let cb = s.rest.(b) in
            if Value.compare c.vals.(c.at) cb.vals.(cb.at) < 0 then best := i)
    s.rest;
  !best

let next s =
  let i = least s in
  let from_rest =
    i >= 0
    && (s.ei = Array.length s.explicit
       ||
       let c = s.rest.(i) in
       rank_cmp (c.vals.(c.at), s.default) s.explicit.(s.ei) < 0)
  in
  if from_rest then begin
    let c = s.rest.(i) in
    (* another master column may hold the same id *)
    if Array.length c.ids > 0 then Itbl.replace s.taken c.ids.(c.at) ();
    c.at <- c.at + 1;
    Some (c.vals.(c.at - 1), s.default)
  end
  else if s.ei < Array.length s.explicit then begin
    s.ei <- s.ei + 1;
    Some s.explicit.(s.ei - 1)
  end
  else None

let pull s =
  match next s with
  | None -> false
  | Some x ->
      if s.len = Array.length s.buf then begin
        let fresh = Array.make (max 4 (2 * s.len)) x in
        Array.blit s.buf 0 fresh 0 s.len;
        s.buf <- fresh
      end;
      s.buf.(s.len) <- x;
      s.len <- s.len + 1;
      true

let pulled s = s.len

let get s j =
  if j >= s.len then invalid_arg "Active_domain.get: not pulled yet";
  s.buf.(j)

(* Binary search of a [Master_index.sorted] column. *)
let find_sorted vals v =
  let rec go lo hi =
    if lo >= hi then None
    else
      let mid = (lo + hi) / 2 in
      match Value.compare vals.(mid) v with
      | 0 -> Some mid
      | c when c < 0 -> go (mid + 1) hi
      | _ -> go lo mid
  in
  go 0 (Array.length vals)

let stream spec pref attr =
  (* A dense model may weigh any value anything, so its whole domain is
     the explicit source — weighed in [values] order, so a model that
     memoizes weights on first query sees an eager sort's queries —
     and the default-weight source comes out empty. *)
  let ents, firsts = entity_values spec attr in
  let support, default =
    match Preference.support pref attr with
    | Some sd -> sd
    | None -> (domain ~include_default:true spec attr ents, 0.0)
  in
  let taken = ids_of spec ents in
  let cols = master_domains spec attr Rules.Master_index.sorted in
  let bottom = default_value (Core.Specification.schema spec) attr in
  (* A value's domain spelling and id: the entity's, else the first
     master column's holding it. *)
  let in_master v =
    List.find_map
      (fun (ids, vals) -> Option.map (fun p -> (ids.(p), vals.(p))) (find_sorted vals v))
      cols
  in
  let bottom_real = Value.Tbl.mem firsts bottom || in_master bottom <> None in
  (* The support values in the domain, each once, in its spelling;
     master ones are masked from the default source by id. *)
  let chosen = Value.Tbl.create 16 in
  let explicit =
    List.filter_map
      (fun v ->
        if Value.is_null v || Value.Tbl.mem chosen v then None
        else
          let rep =
            match Value.Tbl.find_opt firsts v with
            | Some _ as e -> e
            | None -> (
                match in_master v with
                | Some (vid, spelling) ->
                    Itbl.replace taken vid ();
                    Some spelling
                | None ->
                    if (not bottom_real) && Value.equal v bottom then
                      Some bottom
                    else None)
          in
          Option.map
            (fun spelling ->
              Value.Tbl.add chosen v ();
              (spelling, Preference.weight pref attr spelling))
            rep)
      support
    |> Array.of_list
  in
  Array.stable_sort rank_cmp explicit;
  let unchosen v = not (Value.Tbl.mem chosen v) in
  let leftovers = Array.of_list (List.filter unchosen ents) in
  Array.stable_sort Value.compare leftovers;
  let source vals = { ids = [||]; vals; at = 0 } in
  let rest =
    (source leftovers :: List.map (fun (ids, vals) -> { ids; vals; at = 0 }) cols)
    @
    if (not bottom_real) && unchosen bottom then [ source [| bottom |] ]
    else []
  in
  {
    explicit;
    ei = 0;
    default;
    rest = Array.of_list rest;
    taken;
    buf = [||];
    len = 0;
  }

let ranked spec pref attr =
  let s = stream spec pref attr in
  while pull s do
    ()
  done;
  Array.sub s.buf 0 s.len
