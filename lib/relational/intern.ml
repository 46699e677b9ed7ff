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

(* One generation: the ids [base ..] of the values it holds itself,
   over the frozen generation [parent] that, with its own parents,
   holds [0 .. base-1].

   The lookup table is flat open addressing (linear probing,
   power-of-two capacity, at most half full) over one word per slot:
   an id in the low 32 bits and the {!Value.hash} of its value (30
   bits) above it, or [-1] when the slot is empty. A value is hashed
   once per call and that hash probes this generation and then each
   frozen parent; a stored hash that differs rules a slot out without
   touching the value, and growth re-files the slots by their stored
   hashes. An entity generation's table
   also holds, under the master's id, each master value it has met
   (see [intern_local]). *)
type t = {
  parent : t option;
  base : int;
  lock : Mutex.t;
  mutable tbl : int array; (* hash lsl 32 lor id, or -1 *)
  mutable mask : int; (* slot count - 1 *)
  mutable fill : int; (* occupied slots *)
  mutable values : Value.t array; (* id - base -> first-interned representative *)
  mutable count : int; (* next id *)
  mutable frozen : bool;
}

let null_id = 0
let id_bits = 32
let id_mask = (1 lsl id_bits) - 1

(* Room for [size] values at most half full, from 16 slots. *)
let table size =
  let cap = ref 16 in
  while !cap < 2 * size do
    cap := 2 * !cap
  done;
  Array.make !cap (-1)

let rec value_of g id =
  if id >= g.base then g.values.(id - g.base)
  else match g.parent with Some p -> value_of p id | None -> invalid_arg "Intern.value: unknown id"

(* The id of [v] (hash [h]) in [g]'s own table, or [-1 - i] when it
   is absent and slot [i] is where it would go. Capture-free, so a
   probe allocates nothing. *)
let rec probe g (tbl : int array) mask h v i =
  let w = Array.unsafe_get tbl i in
  if w < 0 then -1 - i
  else if w lsr id_bits = h && Value.equal (value_of g (w land id_mask)) v then w land id_mask
  else probe g tbl mask h v ((i + 1) land mask)

let find_local g h v = probe g g.tbl g.mask h v (h land g.mask)

(* A frozen generation is never written again, so it and its parents
   are read without a lock; [-1] when none of them holds [v]. *)
let rec find_frozen g h v =
  let id = find_local g h v in
  if id >= 0 then id else match g.parent with Some p -> find_frozen p h v | None -> -1

let grow g =
  let old = g.tbl in
  let mask = (2 * Array.length old) - 1 in
  let tbl = Array.make (mask + 1) (-1) in
  Array.iter
    (fun w ->
      if w >= 0 then begin
        let j = ref ((w lsr id_bits) land mask) in
        while tbl.(!j) >= 0 do
          j := (!j + 1) land mask
        done;
        tbl.(!j) <- w
      end)
    old;
  g.tbl <- tbl;
  g.mask <- mask

(* Files [id] at the empty slot [i] a probe for its value returned. *)
let file g i id h =
  g.tbl.(i) <- (h lsl id_bits) lor id;
  g.fill <- g.fill + 1;
  if 2 * g.fill > g.mask + 1 then grow g

let generation ~parent ~size =
  let tbl = table size in
  {
    parent;
    base = (match parent with Some p -> p.count | None -> 0);
    lock = Mutex.create ();
    tbl;
    mask = Array.length tbl - 1;
    fill = 0;
    values = Array.make (max 8 size) Value.Null;
    count = (match parent with Some p -> p.count | None -> 0);
    frozen = false;
  }

let create () =
  let t = generation ~parent:None ~size:128 in
  let h = Value.hash Value.Null in
  file t (-1 - find_local t h Value.Null) null_id h;
  t.count <- 1;
  t

let freeze t =
  Mutex.lock t.lock;
  t.frozen <- true;
  Mutex.unlock t.lock

let extend ?(size = 32) parent =
  if not parent.frozen then invalid_arg "Intern.extend: the parent is not frozen";
  generation ~parent:(Some parent) ~size

let parent t = t.parent

(* Manual lock discipline instead of [Mutex.protect]: interning sits
   on the grounding hot path (thousands of calls per instantiate),
   and the closure + [Fun.protect] the convenience wrapper allocates
   per call are measurable there. Every path unlocks, the allocating
   ones on an exception too.

   An entity generation looks in its own small table first, and keeps
   there, under the master's id, each master value it has met: the
   chase re-interns the same few values at every fill, and a second
   lookup then costs one probe of a table of a few dozen entries
   instead of a miss there and a probe of the master's. *)
let intern_local t v =
  let h = Value.hash v in
  Mutex.lock t.lock;
  let found = find_local t h v in
  if found >= 0 then begin
    Mutex.unlock t.lock;
    Obs.Counter.incr m_hits;
    found
  end
  else
    let slot = -1 - found in
    let inherited = match t.parent with Some p -> find_frozen p h v | None -> -1 in
    match
      if inherited >= 0 then begin
        file t slot inherited h;
        inherited
      end
      else begin
        let id = t.count in
        if id > id_mask then invalid_arg "Intern.intern: ids exhausted";
        let k = id - t.base in
        if k = Array.length t.values then begin
          let grown = Array.make (2 * k) Value.Null in
          Array.blit t.values 0 grown 0 k;
          t.values <- grown
        end;
        t.values.(k) <- v;
        t.count <- id + 1;
        file t slot id h;
        id
      end
    with
    | id ->
        Mutex.unlock t.lock;
        Obs.Counter.incr (if inherited >= 0 then m_hits else m_size);
        id
    | exception e ->
        Mutex.unlock t.lock;
        raise e

(* [Value.Null] is [null_id] in every generation: it takes no hash
   and no probe (an [Instance.init] interns every null template cell),
   but still counts as a lookup an existing id answered. *)
let intern t v =
  match v with
  | Value.Null ->
      Obs.Counter.incr m_hits;
      null_id
  | _ when t.frozen -> (
      match find_frozen t (Value.hash v) v with
      | -1 -> invalid_arg "Intern.intern: a value new to a frozen generation"
      | id ->
          Obs.Counter.incr m_hits;
          id)
  | _ -> intern_local t v

let find_opt t v =
  let h = Value.hash v in
  let id =
    if t.frozen then find_frozen t h v
    else begin
      Mutex.lock t.lock;
      let id = find_local t h v in
      Mutex.unlock t.lock;
      if id >= 0 then id else match t.parent with Some p -> find_frozen p h v | None -> -1
    end
  in
  if id >= 0 then Some id else None

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
