(* Observability: both are registered as counters so the bench
   harness's counter snapshot picks them up. Tables only ever grow,
   so after an [Obs.reset] the size counter reads exactly the number
   of distinct values the instrumented run inserted, over every
   generation. *)
let m_size =
  Obs.Counter.make ~help:"distinct values interned (table inserts)"
    "intern_table_size"

let m_hits =
  Obs.Counter.make ~help:"intern lookups answered by an existing id"
    "intern_hits_total"

module Vtbl = Value.Tbl

(* One generation: the ids [base ..] of the values it holds itself,
   over the frozen generation [parent] that, with its own parents,
   holds [0 .. base-1]. *)
type t = {
  parent : t option;
  base : int;
  lock : Mutex.t;
  ids : int Vtbl.t; (* canonical value -> id *)
  mutable values : Value.t array; (* id - base -> first-interned representative *)
  mutable count : int; (* next id *)
  mutable frozen : bool;
}

let null_id = 0

let create () =
  let t =
    {
      parent = None;
      base = 0;
      lock = Mutex.create ();
      ids = Vtbl.create 256;
      values = Array.make 64 Value.Null;
      count = 1;
      frozen = false;
    }
  in
  Vtbl.replace t.ids Value.Null null_id;
  t

let freeze t = Mutex.protect t.lock (fun () -> t.frozen <- true)

let extend parent =
  if not parent.frozen then invalid_arg "Intern.extend: the parent is not frozen";
  {
    parent = Some parent;
    base = parent.count;
    lock = Mutex.create ();
    ids = Vtbl.create 64;
    values = Array.make 64 Value.Null;
    count = parent.count;
    frozen = false;
  }

let parent t = t.parent

(* A frozen generation is never written again, so it and its parents
   are read without a lock; [-1] when none of them holds [v]. *)
let rec find_frozen g v =
  match Vtbl.find g.ids v with
  | id -> id
  | exception Not_found -> ( match g.parent with Some p -> find_frozen p v | None -> -1)

(* Manual lock discipline instead of [Mutex.protect]: interning sits
   on the grounding hot path (thousands of calls per instantiate),
   and the closure + [Fun.protect] + [Some] the convenience wrappers
   allocate per call are measurable there. [Vtbl.find] only raises
   [Not_found]; both arms unlock on every path.

   An entity generation looks in its own small table first, and keeps
   there, under the master's id, each master value it has met: the
   chase re-interns the same few values at every fill, and a second
   lookup then costs one probe of a table of a few dozen entries
   instead of a miss there and a probe of the master's. *)
let intern_local t v =
  Mutex.lock t.lock;
  match Vtbl.find t.ids v with
  | id ->
      Mutex.unlock t.lock;
      Obs.Counter.incr m_hits;
      id
  | exception Not_found -> (
      match match t.parent with Some p -> find_frozen p v | None -> -1 with
      | -1 ->
          let id = t.count in
          let k = id - t.base in
          (if k = Array.length t.values then
             match Array.make (2 * k) Value.Null with
             | grown ->
                 Array.blit t.values 0 grown 0 k;
                 t.values <- grown
             | exception e ->
                 Mutex.unlock t.lock;
                 raise e);
          t.values.(k) <- v;
          t.count <- id + 1;
          (* [v] was just looked up and is absent: [add] skips the
             second bucket scan [replace] would make. *)
          Vtbl.add t.ids v id;
          Mutex.unlock t.lock;
          Obs.Counter.incr m_size;
          id
      | id ->
          Vtbl.add t.ids v id;
          Mutex.unlock t.lock;
          Obs.Counter.incr m_hits;
          id)

let intern t v =
  if t.frozen then (
    match find_frozen t v with
    | -1 -> invalid_arg "Intern.intern: a value new to a frozen generation"
    | id ->
        Obs.Counter.incr m_hits;
        id)
  else intern_local t v

let find_opt t v =
  if t.frozen then match find_frozen t v with -1 -> None | id -> Some id
  else
    match Mutex.protect t.lock (fun () -> Vtbl.find_opt t.ids v) with
    | Some _ as found -> found
    | None -> (
        match t.parent with
        | Some p -> ( match find_frozen p v with -1 -> None | id -> Some id)
        | None -> None)

let rec value t id =
  if id < 0 || id >= t.count then invalid_arg "Intern.value: unknown id"
  else if id < t.base then
    match t.parent with Some p -> value p id | None -> invalid_arg "Intern.value: unknown id"
  else
    (* Lock-free read: entries below [count] are write-once and
       published before [count] advances, and a stale [values] array
       seen across a concurrent grow holds identical entries below
       the old count. Decoding sits on the grounding hot path, where a
       mutex round-trip per predicate is measurable. *)
    t.values.(id - t.base)

let size t = Mutex.protect t.lock (fun () -> t.count)
