module Value = Relational.Value
module Intern = Relational.Intern
module Relation = Relational.Relation

module Itbl = Hashtbl.Make (Int)

(* One master relation's value index and its master generation of
   value ids. The generation is a chain of frozen segments: each fill
   interns the cells of the columns a ruleset reads as ids that no
   earlier segment holds, in a new segment over the newest, and
   freezes it. So a master value is interned ONCE per master relation
   process-wide, never once per entity, the generation holds only
   columns some ruleset reads, and every read of it takes no lock.
   Per column, built lazily on first use: the rows holding each value
   (ascending; what a demand-grounding probe reads, O(matching rows)
   instead of O(|Im|)), and the distinct non-null values that top-k
   active domains read. *)
type t = {
  rel : Relation.t;
  lock : Mutex.t;
  segments : Intern.t list Atomic.t; (* newest first; [] before the first fill *)
  vids : (int * int array) option Atomic.t array;
      (* per column: the depth of the segment that filled it (the root
         is 0) and each row's id *)
  cols : int list Value.Tbl.t option array;
  doms : (int array * Value.t array) option array;
      (* per column: distinct non-null values in first-appearance
         order, with their ids — the master half of a top-k active
         domain, built once instead of per null attribute *)
  sorted : (int array * Value.t array) option array;
      (* per column: the same values in [Value.compare] order — what
         a ranked top-k domain streams at the default weight *)
}

let create rel =
  let arity = Relational.Schema.arity (Relation.schema rel) in
  {
    rel;
    lock = Mutex.create ();
    segments = Atomic.make [];
    vids = Array.init arity (fun _ -> Atomic.make None);
    cols = Array.make arity None;
    doms = Array.make arity None;
    sorted = Array.make arity None;
  }

(* Process-wide memo, keyed by the master relation's physical
   identity and held weakly: an index lives exactly as long as its
   master does (every specification over it holds the index, and the
   index the relation), so a master retired by a fix, or dropped with
   its corpus, takes its master generation with it. *)
module Memo = Ephemeron.K1.Make (struct
  type t = Relation.t

  let equal = ( == )

  (* Consistent with physical equality, and no value traversal: the
     few live masters rarely share a size, and a shared bucket only
     costs a pointer compare. *)
  let hash = Relation.size
end)

let memo_lock = Mutex.create ()
let memo : t Memo.t = Memo.create 8

let of_master rel =
  Mutex.protect memo_lock (fun () ->
      match Memo.find_opt memo rel with
      | Some t -> t
      | None ->
          let t = create rel in
          Memo.replace memo rel t;
          t)

let filled t col = Atomic.get t.vids.(col) <> None

(* Under the index lock: a new segment with the columns of [cols] no
   segment holds yet (the root, even with none, on the first fill).
   The segment is published before its columns, so a column seen
   filled always belongs to a published segment. *)
let fill_locked t cols =
  let missing = List.filter (fun col -> not (filled t col)) (Array.to_list cols) in
  match Atomic.get t.segments with
  | top :: _ when missing = [] -> top
  | segs ->
      let gen = match segs with [] -> Intern.create () | top :: _ -> Intern.extend top in
      let filled =
        List.map
          (fun col ->
            ( col,
              Array.init (Relation.size t.rel) (fun m ->
                  Intern.intern gen (Relation.get t.rel m col)) ))
          missing
      in
      Plan.check_master_ids
        ~master:(Relational.Schema.name (Relation.schema t.rel))
        (Intern.size gen);
      Intern.freeze gen;
      Atomic.set t.segments (gen :: segs);
      let depth = List.length segs in
      List.iter (fun (col, ids) -> Atomic.set t.vids.(col) (Some (depth, ids))) filled;
      gen

(* Lock-free when every column is filled: the columns are read first,
   so the segments read after them include the ones that filled them. *)
let extend ?size t ruleset =
  let cols = Plan.master_cols (Ruleset.plan ruleset) in
  let ready = Array.for_all (filled t) cols in
  match if ready then Atomic.get t.segments else [] with
  | top :: _ -> Intern.extend ?size top
  | [] -> Intern.extend ?size (Mutex.protect t.lock (fun () -> fill_locked t cols))

let covers t intern ruleset =
  match Intern.parent intern with
  | None -> false
  | Some p ->
      let rec depth = function
        | [] -> None
        | s :: rest -> if s == p then Some (List.length rest) else depth rest
      in
      (match depth (Atomic.get t.segments) with
      | None -> false
      | Some d ->
          Array.for_all
            (fun col ->
              match Atomic.get t.vids.(col) with Some (k, _) -> k <= d | None -> false)
            (Plan.master_cols (Ruleset.plan ruleset)))

let vids t ~col =
  match Atomic.get t.vids.(col) with
  | Some (_, ids) -> ids
  | None -> invalid_arg "Master_index.vids: a column no master generation holds yet"

(* Keyed by value, not by id: a selection or template join column
   need not be one the generation holds, and a probe hashes its value
   once either way. Rows prepend from the last row down so each
   value's list comes out ascending. Null cells are indexed too: a
   selection [tm.b = null] holds on them ([Value.equal Null Null]). *)
let build t col =
  let n = Relation.size t.rel in
  let idx = Value.Tbl.create (max 16 n) in
  for m = n - 1 downto 0 do
    let v = Relation.get t.rel m col in
    Value.Tbl.replace idx v
      (m :: (match Value.Tbl.find_opt idx v with Some l -> l | None -> []))
  done;
  t.cols.(col) <- Some idx;
  idx

let rows t ~col v =
  Mutex.protect t.lock (fun () ->
      let idx = match t.cols.(col) with Some idx -> idx | None -> build t col in
      match Value.Tbl.find_opt idx v with Some l -> l | None -> [])

let build_distinct t col =
  let vids = vids t ~col in
  let seen = Itbl.create 64 in
  let ids = ref [] and values = ref [] in
  Array.iteri
    (fun m vid ->
      if vid <> Intern.null_id && not (Itbl.mem seen vid) then begin
        Itbl.replace seen vid ();
        ids := vid :: !ids;
        values := Relation.get t.rel m col :: !values
      end)
    vids;
  let d = (Array.of_list (List.rev !ids), Array.of_list (List.rev !values)) in
  t.doms.(col) <- Some d;
  d

let distinct_locked t col =
  match t.doms.(col) with Some d -> d | None -> build_distinct t col

let distinct t ~col = Mutex.protect t.lock (fun () -> distinct_locked t col)

(* Distinct values are pairwise not [Value.equal], and [Value.compare]
   is 0 exactly on [Value.equal] pairs, so the order is strict. *)
let sorted t ~col =
  Mutex.protect t.lock (fun () ->
      match t.sorted.(col) with
      | Some d -> d
      | None ->
          let ids, values = distinct_locked t col in
          let order = Array.init (Array.length ids) Fun.id in
          Array.stable_sort (fun i j -> Value.compare values.(i) values.(j)) order;
          let d = (Array.map (fun i -> ids.(i)) order, Array.map (fun i -> values.(i)) order) in
          t.sorted.(col) <- Some d;
          d)

let relation t = t.rel
