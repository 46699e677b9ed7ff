module Value = Relational.Value

(* ------------------------------------------------------------------ *)
(* Packed words                                                       *)
(* ------------------------------------------------------------------ *)

(* Layout: tag(3) | attr(12) | x(23) | y(23); see plan.mli. *)
let bits_xy = 23
let bits_attr = 12
let max_xy = 1 lsl bits_xy
let max_attr = 1 lsl bits_attr
let tag_ord = 0
let tag_te = 1
let tag_add = 2
let tag_refresh = 3
let tag_assign = 4

let pack ~tag ~attr ~x ~y =
  if attr >= max_attr || x >= max_xy || y >= max_xy then
    invalid_arg "Ground.instantiate: attribute/class/value id exceeds packing range"
  else (((((tag lsl bits_attr) lor attr) lsl bits_xy) lor x) lsl bits_xy) lor y

(* An entity generation numbers on from its master generation's size,
   so a master that leaves no packable id for an entity value is
   refused by name when its generation is filled, not by the first
   grounding over it. *)
let check_master_ids ~master size =
  if size >= max_xy then
    invalid_arg
      (Printf.sprintf
         "Master_index: master relation %s holds %d distinct values; ground steps pack \
          value ids below %d, entity values included"
         master (size - 1) max_xy)

let unpack_tag p = p lsr (bits_attr + (2 * bits_xy))
let unpack_attr p = (p lsr (2 * bits_xy)) land (max_attr - 1)
let unpack_x p = (p lsr bits_xy) land (max_xy - 1)
let unpack_y p = p land (max_xy - 1)

let op_tag = function
  | Ar.Eq -> 0 | Ar.Neq -> 1 | Ar.Lt -> 2 | Ar.Gt -> 3 | Ar.Leq -> 4 | Ar.Geq -> 5

let op_of_tag = function
  | 0 -> Ar.Eq | 1 -> Ar.Neq | 2 -> Ar.Lt | 3 -> Ar.Gt | 4 -> Ar.Leq | 5 -> Ar.Geq
  | _ -> assert false

let unpack_op p = op_of_tag (unpack_x p)

(* Event keys: -1, which no word equals, outside the packed ranges (no
   ground step can then mention the event). *)
let ord_key ~attr ~c1 ~c2 =
  if attr < max_attr && c1 < max_xy && c2 < max_xy then pack ~tag:tag_ord ~attr ~x:c1 ~y:c2
  else -1

let te_eq_key ~attr ~vid =
  if attr < max_attr && vid < max_xy then pack ~tag:tag_te ~attr ~x:(op_tag Ar.Eq) ~y:vid
  else -1

(* ------------------------------------------------------------------ *)
(* Recipes                                                            *)
(* ------------------------------------------------------------------ *)

type shape =
  | Sh_const of { attr : int; op : Ar.op; const : int }
  | Sh_attrs of { a : int; op : Ar.op; b : int }

type mat = { ia : int; op : Ar.op; ja : int }
type cross = X_cls_eq of int | X_cls_neq of int | X_mat of int

type res =
  | R_const of { base : int; const : int }
  | R_te of { side : Ar.side; base : int; read : int }
  | R_ord of { strict : bool; left : Ar.side; right : Ar.side; base : int; attr : int }

type form1 = {
  name : string;
  side1 : int;
  side2 : int;
  cross : cross array;
  res : res array;
  rhs : Ar.ord_atom;
}

type item = I_static of { base : int; const : int } | I_join of { attr : int; col : int }

type form2 = {
  f2_name : string;
  tests : (int * Ar.op * Value.t) list;
  select : (int * Value.t) option;
  items : item array;
  te_attr : int;
  tm_attr : int;
  join : (int * int) option;
}

type recipe = Form1 of form1 | Dead | Invalid of string | Form2 of form2

type t = {
  rules : Ar.t array;
  recipes : recipe array;
  consts : Value.t array;
  shapes : shape array;
  mats : mat array;
  read_sets : int array array;
  sides : (int * int array) array;
  master_cols : int array;
  subsumers : int array array;
}

let rules t = t.rules
let recipes t = t.recipes
let consts t = t.consts
let master_cols t = t.master_cols
let shapes t = t.shapes
let mats t = t.mats
let read_sets t = t.read_sets
let sides t = t.sides
let subsumers t = t.subsumers

(* ------------------------------------------------------------------ *)
(* Building                                                           *)
(* ------------------------------------------------------------------ *)

(* Dense ids for structurally equal keys, in first-seen order. Keys
   hold ints, operators and int arrays only — constants are indices —
   so polymorphic equality and hashing are exact here. *)
module Ids = struct
  type 'a t = { tbl : ('a, int) Hashtbl.t; mutable rev : 'a list; mutable n : int }

  let create () = { tbl = Hashtbl.create 16; rev = []; n = 0 }

  let id t k =
    match Hashtbl.find_opt t.tbl k with
    | Some i -> i
    | None ->
        let i = t.n in
        Hashtbl.add t.tbl k i;
        t.rev <- k :: t.rev;
        t.n <- i + 1;
        i

  let to_array t = Array.of_list (List.rev t.rev)
end

exception Stop of recipe

(* [sub] ⊆ [sup], both sorted ascending. *)
let subset (sub : int array) (sup : int array) =
  let n = Array.length sup in
  let rec go i j =
    i = Array.length sub
    || (j < n && (if sub.(i) = sup.(j) then go (i + 1) (j + 1) else sub.(i) > sup.(j) && go i (j + 1)))
  in
  go 0 0

(* Rule [r] subsumes a later [r'] (DESIGN.md §27) when both conclude
   the same order atom from an equal residual recipe, [r]'s two-sided
   guards are among [r']'s, and on each side [r]'s shapes are among
   [r']'s. A side reads only what its shapes, guards, residuals and
   conclusion read, so [r]'s read sets then lie inside [r']'s. Take a
   pair [(i', j')] that [r'] admits, and the first tuples [i], [j]
   sharing [i']'s and [j']'s classes on [r]'s read sets: every guard
   of [r] reads only those attributes, so [(i, j)] passes them, and it
   fills [r]'s residuals and action from the same classes. [r],
   grounding first, has then already offered the candidate [r'] would
   offer. *)
let subsumes ~sides (r : form1) (r' : form1) =
  r.rhs.attr = r'.rhs.attr && r.rhs = r'.rhs && r.res = r'.res
  && Array.for_all (fun x -> Array.mem x r'.cross) r.cross
  && subset (snd sides.(r.side1)) (snd sides.(r'.side1))
  && subset (snd sides.(r.side2)) (snd sides.(r'.side2))

(* Per rule, the earlier rules that subsume it, ascending. *)
let find_subsumers ~sides recipes =
  Array.mapi
    (fun i recipe ->
      match recipe with
      | Form1 r' ->
          let acc = ref [] in
          for k = i - 1 downto 0 do
            match recipes.(k) with
            | Form1 r when subsumes ~sides r r' -> acc := k :: !acc
            | _ -> ()
          done;
          Array.of_list !acc
      | Dead | Invalid _ | Form2 _ -> [||])
    recipes

let make rules =
  let rules = Array.of_list rules in
  let consts = ref [] and nconsts = ref 0 in
  (* Constants dedup by [Value.compare], which every operator of
     [Ar.eval_op] respects, so a guard table built from the slot's
     spelling is the one each rule would build from its own. [Int]/
     [Float] twins still intern to one id. A linear scan: Σ carries a
     few dozen constants. *)
  let const v =
    let rec find i = function
      | [] ->
          consts := v :: !consts;
          incr nconsts;
          !nconsts - 1
      | c :: rest -> if Value.compare c v = 0 then i else find (i - 1) rest
    in
    find (!nconsts - 1) !consts
  in
  let shapes = Ids.create () and mats = Ids.create () in
  let read_sets = Ids.create () and sides = Ids.create () in
  let check_attr a =
    if a >= max_attr then
      raise (Stop (Invalid "Ground.instantiate: attribute/class/value id exceeds packing range"))
  in
  (* Static words carry an attribute and an operator only: value and
     class ids are or-ed in per entity. *)
  let base ~tag ~attr ~x =
    check_attr attr;
    pack ~tag ~attr ~x ~y:0
  in
  let form1 (r : Ar.form1) =
    let cross = ref [] and res = ref [] and g1 = ref [] and g2 = ref [] in
    let single side sh =
      let id = Ids.id shapes sh in
      match side with Ar.T1 -> g1 := id :: !g1 | Ar.T2 -> g2 := id :: !g2
    in
    let add_cross x = cross := x :: !cross and add_res x = res := x :: !res in
    let te ~attr ~op ~side ~read =
      add_res (R_te { side; base = base ~tag:tag_te ~attr ~x:(op_tag op); read })
    in
    List.iter
      (fun p ->
        match p with
        | Ar.Cmp (Ar.Const v1, op, Ar.Const v2) ->
            if not (Ar.eval_op op v1 v2) then raise (Stop Dead)
        | Ar.Cmp (Ar.Tuple_attr (s, a), op, Ar.Const c) ->
            check_attr a;
            single s (Sh_const { attr = a; op; const = const c })
        | Ar.Cmp (Ar.Const c, op, Ar.Tuple_attr (s, a)) ->
            (* [c op x ⇔ x (mirror op) c]. *)
            check_attr a;
            single s (Sh_const { attr = a; op = Ar.mirror_op op; const = const c })
        | Ar.Cmp (Ar.Tuple_attr (s1, a), op, Ar.Tuple_attr (s2, b)) ->
            check_attr a;
            check_attr b;
            if s1 = s2 then single s1 (Sh_attrs { a; op; b })
            else if a = b && op = Ar.Eq then add_cross (X_cls_eq a)
            else if a = b && op = Ar.Neq then add_cross (X_cls_neq a)
            else
              (* Oriented on the pair (i, j): tuple i is T1. *)
              let m =
                match s1 with
                | Ar.T1 -> { ia = a; op; ja = b }
                | Ar.T2 -> { ia = b; op = Ar.mirror_op op; ja = a }
              in
              add_cross (X_mat (Ids.id mats m))
        | Ar.Cmp (Ar.Target_attr attr, op, Ar.Const c) ->
            add_res (R_const { base = base ~tag:tag_te ~attr ~x:(op_tag op); const = const c })
        | Ar.Cmp (Ar.Const c, op, Ar.Target_attr attr) ->
            add_res
              (R_const { base = base ~tag:tag_te ~attr ~x:(op_tag (Ar.mirror_op op)); const = const c })
        | Ar.Cmp (Ar.Target_attr attr, op, Ar.Tuple_attr (s, a)) ->
            check_attr a;
            te ~attr ~op ~side:s ~read:a
        | Ar.Cmp (Ar.Tuple_attr (s, a), op, Ar.Target_attr attr) ->
            check_attr a;
            te ~attr ~op:(Ar.mirror_op op) ~side:s ~read:a
        | Ar.Cmp (Ar.Target_attr a, op, Ar.Target_attr b) ->
            if a = b then begin
              (* Reflexive target comparison folds by the operator. *)
              if not (Ar.eval_op op Value.Null Value.Null) then raise (Stop Dead)
            end
            else
              raise
                (Stop
                   (Invalid
                      "Ground.instantiate: predicate compares two distinct target attributes"))
        | Ar.Ord { strict; left; right; attr } ->
            add_res (R_ord { strict; left; right; base = base ~tag:tag_ord ~attr ~x:0; attr }))
      r.f1_lhs;
    check_attr r.f1_rhs.Ar.attr;
    (* A form (1) rule only reads a handful of attributes on each tuple
       variable; two tuples whose value classes agree on that side's
       read set (plus the concluded attribute) produce identical
       ground steps, so grounding iterates over one representative per
       class signature. *)
    let reads side =
      let acc = ref [ r.f1_rhs.Ar.attr ] in
      let add_if s a = if s = side then acc := a :: !acc in
      List.iter
        (function
          | Ar.Cmp (l, _, rt) ->
              let of_term = function
                | Ar.Tuple_attr (s, a) -> add_if s a
                | Ar.Target_attr _ | Ar.Const _ -> ()
              in
              of_term l;
              of_term rt
          | Ar.Ord { left; right; attr; _ } ->
              add_if left attr;
              add_if right attr)
        r.f1_lhs;
      Ids.id read_sets (Array.of_list (List.sort_uniq Int.compare !acc))
    in
    let side s gs = Ids.id sides (reads s, Array.of_list (List.sort_uniq Int.compare gs)) in
    Form1
      {
        name = r.f1_name;
        side1 = side Ar.T1 !g1;
        side2 = side Ar.T2 !g2;
        cross = Array.of_list (List.rev !cross);
        res = Array.of_list (List.rev !res);
        rhs = r.f1_rhs;
      }
  in
  let form2 (r : Ar.form2) =
    let items =
      List.filter_map
        (function
          | Ar.Master_const _ -> None
          | Ar.Te_const (a, op, c) ->
              Some (I_static { base = base ~tag:tag_te ~attr:a ~x:(op_tag op); const = const c })
          | Ar.Te_master (a, b) ->
              check_attr a;
              Some (I_join { attr = a; col = b }))
        r.f2_lhs
    in
    check_attr r.f2_te_attr;
    Form2
      {
        f2_name = r.f2_name;
        tests =
          List.filter_map
            (function Ar.Master_const (b, op, c) -> Some (b, op, c) | _ -> None)
            r.f2_lhs;
        select =
          List.find_map
            (function Ar.Master_const (b, Ar.Eq, c) -> Some (b, c) | _ -> None)
            r.f2_lhs;
        items = Array.of_list items;
        te_attr = r.f2_te_attr;
        tm_attr = r.f2_tm_attr;
        join = List.find_map (function Ar.Te_master (a, b) -> Some (a, b) | _ -> None) r.f2_lhs;
      }
  in
  let recipes =
    Array.map
      (fun rule ->
        try match rule with Ar.Form1 r -> form1 r | Ar.Form2 r -> form2 r
        with Stop recipe -> recipe)
      rules
  in
  let sides = Ids.to_array sides in
  {
    rules;
    recipes;
    consts = Array.of_list (List.rev !consts);
    shapes = Ids.to_array shapes;
    mats = Ids.to_array mats;
    read_sets = Ids.to_array read_sets;
    sides;
    subsumers = find_subsumers ~sides recipes;
    master_cols =
      Array.to_list rules
      |> List.concat_map (function
           | Ar.Form2 r ->
               r.f2_tm_attr
               :: List.filter_map (function Ar.Te_master (_, b) -> Some b | _ -> None) r.f2_lhs
           | Ar.Form1 _ -> [])
      |> List.sort_uniq Int.compare |> Array.of_list;
  }
