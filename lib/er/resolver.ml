module Value = Relational.Value
module Tuple = Relational.Tuple
module Relation = Relational.Relation

type config = {
  key_attrs : int list;
  use_soundex : bool;
  compare_attrs : (int * float) list;
  null_score : float;
  threshold : float;
}

let default_config ~key_attrs ~compare_attrs =
  { key_attrs; use_soundex = false; compare_attrs; null_score = 0.5; threshold = 0.75 }

let m_blocked =
  Obs.Counter.make
    ~help:"same-block pairs of distinct tuple forms ER enumerated, and repeated forms"
    "er_pairs_blocked_total"

let m_scored =
  Obs.Counter.make
    ~help:"form pairs ER decided (not already linked, not met in an earlier key's block)"
    "er_pairs_scored_total"

let m_bound_rejected =
  Obs.Counter.make ~help:"ER pairs rejected by a similarity upper bound"
    "er_pairs_bound_rejected_total"

let m_dp = Obs.Counter.make ~help:"capped Levenshtein DPs ER ran" "er_dp_total"

let m_dp_cutoff =
  Obs.Counter.make ~help:"capped Levenshtein DPs that exceeded their cap"
    "er_dp_cutoff_total"

(* ------------------------------------------------------------------ *)
(* Prepared tuples                                                    *)
(* ------------------------------------------------------------------ *)

(* Normalized strings hold only [a-z0-9 ]: one histogram slot each. *)
let symbols = 37

let symbol c =
  match c with
  | 'a' .. 'z' -> Char.code c - Char.code 'a'
  | '0' .. '9' -> 26 + Char.code c - Char.code '0'
  | _ -> 36

(* A histogram packs its slots six to an int, as 9-bit lanes: an 8-bit
   count saturating at 255 under a clear guard bit. A capped count
   never overstates a difference, so the bag distance below stays a
   lower bound. *)
let lanes = 6
let words = (symbols + lanes - 1) / lanes
let lane_low = 1 lor (1 lsl 9) lor (1 lsl 18) lor (1 lsl 27) lor (1 lsl 36) lor (1 lsl 45)
let lane_guard = lane_low lsl 8
let even_lanes = 0x1FF lor (0x1FF lsl 18) lor (0x1FF lsl 36)

type text = {
  norm : string;
  hist : int array;  (* [words] packed words *)
  mass : int;  (* the sum of the (capped) counts *)
}

let text norm =
  let hist = Array.make words 0 and mass = ref 0 in
  for x = 0 to String.length norm - 1 do
    let k = symbol norm.[x] in
    let w = k / lanes and shift = 9 * (k mod lanes) in
    if (hist.(w) lsr shift) land 0xFF < 255 then begin
      hist.(w) <- hist.(w) + (1 lsl shift);
      incr mass
    end
  done;
  { norm; hist; mass = !mass }

type field = Absent | Text of text | Other of Value.t

type prepared = {
  fields : field array;  (* per compare attribute, in [compare_attrs] order *)
  key_attrs : int array;  (* the distinct key attributes, shared *)
  keys : string array;  (* per key attribute; "" when it yields no key *)
}

let field_of = function
  | Value.Null -> Absent
  | Value.String s -> Text (text (Util.Strsim.normalize s))
  | v -> Other v

(* The block key of a normalized string; keys are never empty, so ""
   stands for no key. *)
let string_key config norm =
  if norm <> "" && config.use_soundex then
    match Util.Strsim.soundex norm with "" -> norm | code -> code
  else norm

let block_key config = function
  | Value.Null -> ""
  | Value.String s -> string_key config (Util.Strsim.normalize s)
  | v -> Value.to_string v

let prepare config =
  let compared = Array.of_list (List.map fst config.compare_attrs) in
  (* Each distinct key attribute, with the compare position whose
     normalized string its key can reuse. *)
  let key_attrs =
    Array.of_list
      (List.rev
         (List.fold_left
            (fun acc a -> if List.mem a acc then acc else a :: acc)
            [] config.key_attrs))
  in
  let reused = Array.map (fun a -> Array.find_index (( = ) a) compared) key_attrs in
  fun t ->
    let fields = Array.map (fun a -> field_of (Tuple.get t a)) compared in
    let key q a =
      match reused.(q) with
      | Some i -> (
          match fields.(i) with
          | Text x -> string_key config x.norm
          | Absent | Other _ -> block_key config (Tuple.get t a))
      | None -> block_key config (Tuple.get t a)
    in
    { fields; key_attrs; keys = Array.mapi key key_attrs }

let tuple_block_keys p =
  List.filter_map
    (fun q -> if p.keys.(q) = "" then None else Some (p.key_attrs.(q), p.keys.(q)))
    (List.init (Array.length p.keys) Fun.id)

(* Do [p1] and [p2] share a block key among key attributes [q] to
   [upto - 1]? *)
let rec shares_key_from q upto p1 p2 =
  q < upto
  && ((p1.keys.(q) <> "" && String.equal p1.keys.(q) p2.keys.(q))
     || shares_key_from (q + 1) upto p1 p2)

let shares_key upto p1 p2 = shares_key_from 0 upto p1 p2

let share_block p1 p2 = shares_key (Array.length p1.keys) p1 p2

(* ------------------------------------------------------------------ *)
(* Scoring                                                            *)
(* ------------------------------------------------------------------ *)

(* A config's scoring constants, the per-attribute scratch of one
   pair decision, and the work counters. One judge serves one
   [cluster] or [matches] call, so concurrent calls never share it. *)
type judge = {
  weights : float array;  (* in [compare_attrs] order *)
  total : float;
  null_score : float;
  threshold : float;
  prunable : bool;
  sims : float array;  (* per attribute: exact score, or an upper bound *)
  floors : int array;  (* per attribute: distance floor, -1 once exact *)
  mutable scored : int;
  mutable bound_rejected : int;
  mutable dp : int;
  mutable dp_cutoff : int;
}

let judge config =
  let total =
    List.fold_left (fun acc (_, w) -> acc +. w) 0.0 config.compare_attrs
  in
  let weights = Array.of_list (List.map snd config.compare_attrs) in
  let n = Array.length weights in
  {
    weights;
    total;
    null_score = config.null_score;
    threshold = config.threshold;
    (* Bounds are sound only when every weight is finite and
       non-negative and their sum is finite; otherwise every pair
       runs the full DP. *)
    prunable =
      Float.is_finite total
      && Array.for_all (fun w -> Float.is_finite w && w >= 0.0) weights;
    sims = Array.make n 0.0;
    floors = Array.make n (-1);
    scored = 0;
    bound_rejected = 0;
    dp = 0;
    dp_cutoff = 0;
  }

(* The one score expression: per-attribute scores [sims] summed with
   their weights left to right, then divided once by the total
   weight. Every float operation in it is monotone in each [sims.(i)]
   whose weight is finite and non-negative, so upper bounds in give
   an upper bound out. *)
let[@inline] weighted j sims =
  if j.total <= 0.0 then 0.0
  else begin
    let acc = ref 0.0 in
    for i = 0 to Array.length sims - 1 do
      acc := !acc +. (j.weights.(i) *. sims.(i))
    done;
    !acc /. j.total
  end

let passes j = weighted j j.sims >= j.threshold

(* The Levenshtein similarity of two different normalized strings at
   distance [d], [m] being the longer length. *)
let text_score m d = 1.0 -. (float_of_int d /. float_of_int m)
let longer a b = Int.max (String.length a.norm) (String.length b.norm)
let gap a b = abs (String.length a.norm - String.length b.norm)

let exact_score j f1 f2 =
  match (f1, f2) with
  | Absent, _ | _, Absent -> j.null_score
  | Text a, Text b ->
      if String.equal a.norm b.norm then 1.0
      else text_score (longer a b) (Util.Strsim.levenshtein a.norm b.norm)
  | Other x, Other y -> if Value.equal x y then 1.0 else 0.0
  | Text _, Other _ | Other _, Text _ -> 0.0

let similarity config t1 t2 =
  let j = judge config in
  let p1 = prepare config t1 and p2 = prepare config t2 in
  weighted j (Array.map2 (exact_score j) p1.fields p2.fields)

(* max(|la - lb|, bag distance): each edit changes the length by at
   most one and the character multiset by at most one symbol in and
   one out, so both bound the edit distance from below. The bag
   distance is the larger of what [a] has beyond [b] ([more]) and
   what it lacks ([more] minus the mass difference). *)
let distance_floor a b =
  (* Word by word, lane by lane: with the guard set, a lane of [x]
     holds 256 + a - b without borrowing from its neighbour, its guard
     survives iff a >= b, and [excess] keeps max(a - b, 0). Even and
     odd lanes then add up in 18-bit fields, which cannot overflow. *)
  let even = ref 0 and odd = ref 0 in
  for w = 0 to words - 1 do
    (* Both histograms are [words] long by construction. *)
    let x = (Array.unsafe_get a.hist w lor lane_guard) - Array.unsafe_get b.hist w in
    let ge = (x lsr 8) land lane_low in
    let excess = x land ((ge lsl 8) - ge) in
    even := !even + (excess land even_lanes);
    odd := !odd + ((excess lsr 9) land even_lanes)
  done;
  let t = !even + !odd in
  let more = (t land 0x3FFFF) + ((t lsr 18) land 0x3FFFF) + (t lsr 36) in
  Int.max (gap a b) (Int.max more (more - (a.mass - b.mass)))

let reject_bound j =
  j.bound_rejected <- j.bound_rejected + 1;
  false

(* The largest distance in [lo, hi] at which attribute [i] still
   passes, given that it passes at [lo]: passing is monotone in the
   distance, true up to the answer and false after it. *)
let largest_passing j i m lo hi =
  let passes_at d =
    j.sims.(i) <- text_score m d;
    passes j
  in
  if passes_at hi then hi
  else
    let rec search lo hi =
      if hi - lo <= 1 then lo
      else
        let mid = lo + ((hi - lo) / 2) in
        if passes_at mid then search mid hi else search lo mid
    in
    search lo hi

(* [similarity >= threshold] on prepared tuples, deciding most pairs
   from upper bounds. Attributes that need no DP (nulls, equal
   strings, non-strings) score exactly; two different strings start
   at the bound their length gap gives. [tighten] raises each to the
   bound of its distance floor, rejecting as soon as the bound fails.
   [resolve] then takes each string whose floor is below the longer
   length: it finds the largest distance [cap] at which the bound
   still passes and runs the DP capped there. A DP past its cap means
   the score at the true distance is at most the bound at [cap + 1],
   which fails; otherwise the distance is exact. Once all are exact,
   the bound is the score itself. Without sound bounds ([prunable]
   false) nothing is rejected early and every DP runs uncapped. *)
let rec decide j p1 p2 =
  j.scored <- j.scored + 1;
  for i = 0 to Array.length j.sims - 1 do
    match (p1.fields.(i), p2.fields.(i)) with
    | Text a, Text b when not (String.equal a.norm b.norm) ->
        j.sims.(i) <- text_score (longer a b) (gap a b);
        j.floors.(i) <- gap a b
    | f1, f2 ->
        j.sims.(i) <- exact_score j f1 f2;
        j.floors.(i) <- -1
  done;
  tighten j p1 p2 0

and tighten j p1 p2 i =
  if i = Array.length j.sims then resolve j p1 p2 0
  else
    match (p1.fields.(i), p2.fields.(i)) with
    | Text a, Text b when j.floors.(i) >= 0 ->
        let m = longer a b and floor = distance_floor a b in
        j.sims.(i) <- text_score m floor;
        j.floors.(i) <- (if floor < m then floor else -1);
        if j.prunable && not (passes j) then reject_bound j
        else tighten j p1 p2 (i + 1)
    | _ -> tighten j p1 p2 (i + 1)

and resolve j p1 p2 i =
  if i = Array.length j.sims then passes j
  else
    match (p1.fields.(i), p2.fields.(i)) with
    | Text a, Text b when j.floors.(i) >= 0 ->
        if j.prunable && not (passes j) then reject_bound j
        else begin
          let m = longer a b in
          let cap = if j.prunable then largest_passing j i m j.floors.(i) m else m in
          j.dp <- j.dp + 1;
          let d = Util.Strsim.levenshtein_bounded cap a.norm b.norm in
          if d > cap then begin
            j.dp_cutoff <- j.dp_cutoff + 1;
            false
          end
          else begin
            j.sims.(i) <- text_score m d;
            resolve j p1 p2 (i + 1)
          end
        end
    | _ -> resolve j p1 p2 (i + 1)

let matches config p1 p2 = decide (judge config) p1 p2

(* ------------------------------------------------------------------ *)
(* Blocking and clustering                                            *)
(* ------------------------------------------------------------------ *)

(* (ascending members, key position) of every block of two or more
   tuples, sorted by members. *)
let keyed_blocks preps =
  let positions = if Array.length preps = 0 then 0 else Array.length preps.(0).keys in
  let tables = Array.init positions (fun _ -> Hashtbl.create 64) in
  Array.iteri
    (fun i p ->
      Array.iteri
        (fun pos key ->
          if key <> "" then
            let members =
              Option.value ~default:[] (Hashtbl.find_opt tables.(pos) key)
            in
            Hashtbl.replace tables.(pos) key (i :: members))
        p.keys)
    preps;
  List.concat
    (List.mapi
       (fun pos table ->
         Hashtbl.fold
           (fun _ members acc ->
             match members with
             | [] | [ _ ] -> acc
             | l -> (List.rev l, pos) :: acc)
           table [])
       (Array.to_list tables))
  |> List.sort compare

let blocks config relation =
  (* Keys only: no compare attribute to prepare. *)
  let prepare = prepare { config with compare_attrs = [] } in
  List.map fst
    (keyed_blocks
       (Array.init (Relation.size relation) (fun i ->
            prepare (Relation.tuple relation i))))

(* Two forms are one when their keys and texts are equal strings and
   their other values are [Value.equal] (the test [exact_score] scores
   them by), so numeric twins such as [Int 3] and [Float 3.] share a
   form. The key attributes are one shared array. The hash reads a
   text field through its packed histogram, so only the keys' strings
   are hashed. *)
module Forms = Hashtbl.Make (struct
  type t = prepared

  let same_field f g =
    match (f, g) with
    | Absent, Absent -> true
    | Text x, Text y -> String.equal x.norm y.norm
    | Other x, Other y -> Value.equal x y
    | (Absent | Text _ | Other _), _ -> false

  let equal p q =
    Array.for_all2 String.equal p.keys q.keys && Array.for_all2 same_field p.fields q.fields

  let mix h x = (h * 31) + x

  let hash p =
    Array.fold_left
      (fun h f ->
        mix h
          (match f with
          | Absent -> 0
          | Text x -> Array.fold_left mix x.mass x.hist
          | Other v -> Value.hash v))
      (Hashtbl.hash p.keys) p.fields
    land max_int
end)

(* Rows with equal prepared forms decide every pair alike, so
   clustering decides pairs of distinct forms: each form with its rows
   (ascending), in first-row order. Row [r]'s form is [form r]; a
   repeated form is dropped as soon as it is read. *)
let distinct_forms n (form : int -> prepared) =
  let table = Forms.create n in
  let forms = ref [] in
  for r = 0 to n - 1 do
    let p = form r in
    match Forms.find_opt table p with
    | Some rows -> rows := r :: !rows
    | None ->
        let rows = ref [ r ] in
        Forms.add table p rows;
        forms := (p, rows) :: !forms
  done;
  Array.of_list (List.rev_map (fun (p, rows) -> (p, List.rev !rows)) !forms)

let cluster_forms config n form =
  let forms = distinct_forms n form in
  let uf = Util.Union_find.create n in
  let judge = judge config and blocked = ref 0 in
  let rows f = snd forms.(f) in
  let rep f = List.hd (rows f) in
  (* [whole.(f)]: every row of form [f] is already in one class. *)
  let whole = Array.map (fun (_, rows) -> List.compare_length_with rows 1 = 0) forms in
  let gather f =
    if not whole.(f) then begin
      List.iter (Util.Union_find.union uf (rep f)) (rows f);
      whole.(f) <- true
    end
  in
  (* Two rows of one form share every key, so with any key they meet
     in a block, and their pair is the form against itself. *)
  Array.iteri
    (fun f (p, _) ->
      if (not whole.(f)) && Array.exists (( <> ) "") p.keys then begin
        blocked := !blocked + 1;
        if decide judge p p then gather f
      end)
    forms;
  List.iter
    (fun (members, pos) ->
      let arr = Array.of_list members in
      let k = Array.length arr in
      blocked := !blocked + (k * (k - 1) / 2);
      for x = 0 to k - 1 do
        let f = arr.(x) in
        let pf = fst forms.(f) in
        for y = x + 1 to k - 1 do
          let g = arr.(y) in
          let pg = fst forms.(g) in
          (* A pair that shares an earlier key was met in that key's
             block. Representatives only ever join after their forms
             were gathered, so linked representatives mean every row
             of both forms is linked: the pair adds no edge to the
             partition. *)
          if
            (not (shares_key pos pf pg))
            && (not (Util.Union_find.same uf (rep f) (rep g)))
            && decide judge pf pg
          then begin
            (* Every row of [f] matches every row of [g]. *)
            gather f;
            gather g;
            Util.Union_find.union uf (rep f) (rep g)
          end
        done
      done)
    (keyed_blocks (Array.map fst forms));
  Obs.Counter.add m_blocked !blocked;
  Obs.Counter.add m_scored judge.scored;
  Obs.Counter.add m_bound_rejected judge.bound_rejected;
  Obs.Counter.add m_dp judge.dp;
  Obs.Counter.add m_dp_cutoff judge.dp_cutoff;
  let groups = Util.Union_find.groups uf in
  (* Member lists are ascending, so sorting the groups (lexicographic
     on int lists = by first member, as groups are disjoint) puts the
     clusters in first-tuple order — a pure function of the partition
     itself, independent of union-find internals such as which side a
     rank-based union picked as representative. Incremental
     maintenance depends on this: it recomputes the partition from
     the edge set, not from a replayed union order. *)
  Array.to_list groups |> List.filter (fun g -> g <> []) |> List.sort compare

let cluster_prepared config prepared =
  cluster_forms config (Array.length prepared) (Array.get prepared)

(* Rows are prepared as they are read, not all up front: the forms of
   repeated rows die young. *)
let cluster config relation =
  let prepare = prepare config in
  cluster_forms config (Relation.size relation) (fun r -> prepare (Relation.tuple relation r))

let entity_instances config relation =
  List.map
    (fun members ->
      Relation.make (Relation.schema relation)
        (List.map (Relation.tuple relation) members))
    (cluster config relation)

type quality = { pair_precision : float; pair_recall : float; pair_f1 : float }

let pairwise_quality ~truth clusters n =
  let cluster_of = Array.make n (-1) in
  List.iteri
    (fun c members -> List.iter (fun i -> cluster_of.(i) <- c) members)
    clusters;
  let tp = ref 0 and fp = ref 0 and fn = ref 0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let same_pred = cluster_of.(i) >= 0 && cluster_of.(i) = cluster_of.(j) in
      let same_true = truth i = truth j in
      if same_pred && same_true then incr tp
      else if same_pred then incr fp
      else if same_true then incr fn
    done
  done;
  let p =
    if !tp + !fp = 0 then 1.0 else float_of_int !tp /. float_of_int (!tp + !fp)
  in
  let r =
    if !tp + !fn = 0 then 1.0 else float_of_int !tp /. float_of_int (!tp + !fn)
  in
  let f1 = if p +. r = 0.0 then 0.0 else 2.0 *. p *. r /. (p +. r) in
  { pair_precision = p; pair_recall = r; pair_f1 = f1 }
