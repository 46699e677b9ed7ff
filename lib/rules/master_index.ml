module Value = Relational.Value
module Intern = Relational.Intern
module Relation = Relational.Relation

module Itbl = Hashtbl.Make (Int)

(* One master relation's value index: per column, interned value id
   -> rows holding it (ascending). The index owns its intern table —
   master values are interned ONCE per master relation process-wide,
   not once per entity specification, which is what makes a
   demand-grounding probe O(matching rows) instead of O(|Im|) per
   entity. Columns build lazily on first probe; a form-(2) template
   only ever probes its join column, so an index over a wide master
   pays for exactly the columns the rules join on. The per-column
   distinct-value lists that top-k active domains read are kept here
   too, built on first use. *)
type t = {
  rel : Relation.t;
  intern : Intern.t;
  lock : Mutex.t;
  cols : int list Itbl.t option array;
  doms : (int array * Value.t array) option array;
      (* per column: distinct non-null values in first-appearance
         order, with their ids — the master half of a top-k active
         domain, built once instead of per null attribute *)
}

let make rel =
  let arity = Relational.Schema.arity (Relation.schema rel) in
  {
    rel;
    intern = Intern.create ();
    lock = Mutex.create ();
    cols = Array.make arity None;
    doms = Array.make arity None;
  }

(* Process-wide memo, keyed by physical identity: master relations
   are long-lived (a session holds one across thousands of entity
   cleans; a master fix swaps in a new one, retiring the old entry
   through the bound). MRU-ordered, small and bounded — the working
   set is one or two masters. *)
let cache_cap = 4
let cache_lock = Mutex.create ()
let cache : t list ref = ref []

let rec take n = function
  | [] -> []
  | _ when n <= 0 -> []
  | x :: rest -> x :: take (n - 1) rest

let of_master rel =
  Mutex.protect cache_lock (fun () ->
      match List.find_opt (fun t -> t.rel == rel) !cache with
      | Some t ->
          cache := t :: List.filter (fun u -> u != t) !cache;
          t
      | None ->
          let t = make rel in
          cache := t :: take (cache_cap - 1) !cache;
          t)

(* Build under the index lock; rows prepend from the last row down so
   each id's list comes out ascending. Null cells are skipped — a
   null join value can never satisfy a [te] equality, so no probe
   should ever reach those rows. *)
let build t col =
  let im = t.rel in
  let n = Relation.size im in
  let idx = Itbl.create (max 16 n) in
  for m = n - 1 downto 0 do
    let v = Relation.get im m col in
    if not (Value.is_null v) then begin
      let vid = Intern.intern t.intern v in
      Itbl.replace idx vid
        (m :: (match Itbl.find_opt idx vid with Some l -> l | None -> []))
    end
  done;
  t.cols.(col) <- Some idx;
  idx

let rows t ~col v =
  if Value.is_null v then []
  else
    Mutex.protect t.lock (fun () ->
        let idx = match t.cols.(col) with Some idx -> idx | None -> build t col in
        match Intern.find_opt t.intern v with
        | None -> []
        | Some vid -> (
            match Itbl.find_opt idx vid with Some l -> l | None -> []))

let build_distinct t col =
  let im = t.rel in
  let seen = Itbl.create 64 in
  let ids = ref [] and values = ref [] in
  for m = 0 to Relation.size im - 1 do
    let v = Relation.get im m col in
    if not (Value.is_null v) then begin
      let vid = Intern.intern t.intern v in
      if not (Itbl.mem seen vid) then begin
        Itbl.replace seen vid ();
        ids := vid :: !ids;
        values := v :: !values
      end
    end
  done;
  let d = (Array.of_list (List.rev !ids), Array.of_list (List.rev !values)) in
  t.doms.(col) <- Some d;
  d

let distinct t ~col =
  Mutex.protect t.lock (fun () ->
      match t.doms.(col) with Some d -> d | None -> build_distinct t col)

let find_id t v = Intern.find_opt t.intern v

let relation t = t.rel
