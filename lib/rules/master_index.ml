module Value = Relational.Value
module Intern = Relational.Intern
module Relation = Relational.Relation

module Itbl = Hashtbl.Make (Int)

(* One master relation's value index and its intern table: the one
   scope every specification over this master interns into, so a
   master value is interned ONCE per master relation process-wide,
   never once per entity. Per column, built lazily on first use: the
   cells' interned ids, the rows holding each id (ascending; what a
   demand-grounding probe reads, O(matching rows) instead of
   O(|Im|)), and the distinct non-null values that top-k active
   domains read. A form-(2) template only ever probes its join
   column, so an index over a wide master pays for exactly the
   columns the rules read. *)
type t = {
  rel : Relation.t;
  intern : Intern.t;
  lock : Mutex.t;
  vids : int array option array; (* per column: row -> interned id *)
  cols : int list Itbl.t option array;
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
    intern = Intern.create ();
    lock = Mutex.create ();
    vids = Array.make arity None;
    cols = Array.make arity None;
    doms = Array.make arity None;
    sorted = Array.make arity None;
  }

(* Process-wide memo, keyed by the master relation's physical
   identity and held weakly: an index lives exactly as long as its
   master does (every specification over it holds the index, and the
   index the relation), so a master retired by a fix, or dropped with
   its corpus, takes its table — and every entity value interned
   there — with it. *)
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

(* The builders below run under the index lock. *)
let vids_locked t col =
  match t.vids.(col) with
  | Some a -> a
  | None ->
      let a =
        Array.init (Relation.size t.rel) (fun m ->
            Intern.intern t.intern (Relation.get t.rel m col))
      in
      t.vids.(col) <- Some a;
      a

(* Rows prepend from the last row down so each id's list comes out
   ascending. Null cells are indexed too, under [Intern.null_id]: a
   selection [tm.b = null] holds on them ([Value.equal Null Null]). *)
let build t col =
  let vids = vids_locked t col in
  let idx = Itbl.create (max 16 (Array.length vids)) in
  for m = Array.length vids - 1 downto 0 do
    let vid = vids.(m) in
    Itbl.replace idx vid
      (m :: (match Itbl.find_opt idx vid with Some l -> l | None -> []))
  done;
  t.cols.(col) <- Some idx;
  idx

let vids t ~col = Mutex.protect t.lock (fun () -> vids_locked t col)

let rows t ~col v =
  Mutex.protect t.lock (fun () ->
      let idx = match t.cols.(col) with Some idx -> idx | None -> build t col in
      match Intern.find_opt t.intern v with
      | None -> []
      | Some vid -> ( match Itbl.find_opt idx vid with Some l -> l | None -> []))

let build_distinct t col =
  let vids = vids_locked t col in
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

let intern t = t.intern
let relation t = t.rel
