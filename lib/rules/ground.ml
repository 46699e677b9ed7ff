module Value = Relational.Value
module Intern = Relational.Intern
module Relation = Relational.Relation
module Attr_order = Ordering.Attr_order

(* Observability: |Γ| by rule form, how many candidate ground steps
   the canonical-key dedup discarded, and how many master rows the
   form-(2) grounding actually visited (the Master_const index makes
   this sublinear in |Im| for selective rules). *)
let m_form1 = Obs.Counter.make ~help:"ground steps emitted from form (1) rules" "instantiation_form1_steps_total"
let m_form2 = Obs.Counter.make ~help:"ground steps emitted from form (2) rules" "instantiation_form2_steps_total"
let m_dedup = Obs.Counter.make ~help:"duplicate ground steps discarded" "instantiation_dedup_skipped_total"
let m_mrows = Obs.Counter.make ~help:"master rows visited by form (2) grounding" "instantiation_master_rows_visited_total"

(* Templates: candidate steps a template stands in for
   (master rows NOT visited eagerly), and how many of those the
   residual index later materialized on an actual join-key hit. *)
let m_deferred = Obs.Counter.make ~help:"form (2) candidate steps deferred behind templates" "instantiation_steps_deferred_total"
let m_materialized = Obs.Counter.make ~help:"deferred steps materialized on residual index hits" "instantiation_steps_materialized_total"

type action =
  | Add_order of { attr : int; c1 : int; c2 : int }
  | Refresh of int
  | Assign of { attr : int; value : Value.t }

type gpred =
  | P_ord of { attr : int; c1 : int; c2 : int }
  | P_te of { attr : int; op : Ar.op; value : Value.t }

type step = {
  sid : int;
  rule_name : string;
  preds : gpred list;
  action : action;
}

(* ------------------------------------------------------------------ *)
(* Packed canonical identities                                        *)
(* ------------------------------------------------------------------ *)

(* Every residual predicate and every action packs into one
   non-negative 61-bit word over value-class ids and interned value
   ids — the canonical identity of a candidate step is then a short
   sorted [int array], compared and hashed word-wise. The hot
   instantiation loop walks no value structure and allocates nothing
   per candidate beyond that key. Interned ids stand in for values:
   {!Intern} identity is [Value.equal], exactly the equality the old
   structural keys used, so the dedup classes are unchanged. The
   layout and its pack/unpack functions live in {!Plan}. *)

(* Decoding only happens for steps that survive dedup — the cold
   path. A decoded [P_te] carries the interning table's canonical
   representative of its value class (first spelling interned), which
   is [Value.equal] to whatever the rule read. *)
let gpred_of_pack intern p =
  let attr = Plan.unpack_attr p in
  if Plan.unpack_tag p = Plan.tag_ord then
    P_ord { attr; c1 = Plan.unpack_x p; c2 = Plan.unpack_y p }
  else P_te { attr; op = Plan.unpack_op p; value = Intern.value intern (Plan.unpack_y p) }

(* FxHash-style word mixing: the multiply spreads entropy upward and
   the xor-shift folds it back into the low bits the hashtable
   indexes by. Packed words carry their discriminating fields in
   high bits (c1 sits at bit 23), so an additive fold like
   [h * p + x] would leave those bits out of the bucket index and
   collapse every (attr, c2) group into one bucket. *)
let combine h x =
  let h = (h lxor x) * 0x27d4eb2f165667c5 in
  h lxor (h lsr 29)

(* Candidate-step identity set: a key is the packed action followed
   by the sorted, deduplicated packed residual predicates. Open
   addressing (linear probing, power-of-two capacity) with the
   action and first predicate stored inline in one stride-2 int
   array — most keys carry at most one residual, so a probe touches
   a single cache line and chases no pointer; longer tails spill to
   a side array. A membership probe hashes the caller's scratch
   prefix in place: testing a duplicate — the common case, over half
   of all syn emissions — allocates nothing.

   The 0 word doubles as the empty marker in both lanes: action tags
   are ≥ 2, and a predicate word is never 0 either (a [P_ord] needs
   c1 ≠ c2 and [P_te] has tag 1).

   A table lives in domain-local scratch and never shrinks, so it is
   as large as the largest entity it has seen. [used] lists the
   occupied slots, so clearing it for the next entity, and growing
   it, cost one step per key held rather than one per slot. *)
module Key_set = struct
  type t = {
    mutable slots : int array; (* stride 2: action word, first pred *)
    mutable spill : int array array; (* per slot: preds 2.. , [||] if none *)
    mutable used : int array; (* occupied slot indices, [0 .. fill-1] *)
    mutable mask : int; (* slot count - 1 *)
    mutable fill : int;
  }

  let empty_spill : int array = [||]

  (* Rounds the requested capacity up to a power of two (the probe
     mask requires it). Partitioned per action attribute by the
     caller, each table stays small enough to live in cache across a
     rule's whole pair loop. *)
  let create want =
    let cap = ref 16 in
    while !cap < want do
      cap := 2 * !cap
    done;
    let cap = !cap in
    {
      slots = Array.make (2 * cap) 0;
      spill = Array.make cap empty_spill;
      used = Array.make cap 0;
      mask = cap - 1;
      fill = 0;
    }

  (* Bit 61 sits above every packed word (tag ends at bit 60). *)
  let spill_bit = 1 lsl 61

  (* The compiler only turns a recursive helper into a closure-free
     static function when it captures nothing, so the hot helpers
     below thread every variable through their parameters — without
     flambda, a capturing [let rec] (or a local [ref]) heap-allocates
     on every call, and these run once per candidate step. *)
  let rec hash_words (buf : int array) len h k =
    if k >= len then h land max_int
    else hash_words buf len (combine h (Array.unsafe_get buf k)) (k + 1)

  let hash ~action (buf : int array) len = hash_words buf len (combine 17 action) 0

  let grow t =
    let oslots = t.slots and ospill = t.spill and oused = t.used in
    let cap = 2 * (t.mask + 1) in
    t.slots <- Array.make (2 * cap) 0;
    t.spill <- Array.make cap empty_spill;
    t.used <- Array.make cap 0;
    t.mask <- cap - 1;
    for k = 0 to t.fill - 1 do
      let i = oused.(k) in
      let w0 = oslots.(2 * i) and w1 = oslots.((2 * i) + 1) in
      let sp = ospill.(i) in
      let h = ref (combine 17 (w0 land lnot spill_bit)) in
      if w1 <> 0 then h := combine !h w1;
      Array.iter (fun x -> h := combine !h x) sp;
      let j = ref (!h land max_int land t.mask) in
      while t.slots.(2 * !j) <> 0 do
        j := (!j + 1) land t.mask
      done;
      t.slots.(2 * !j) <- w0;
      t.slots.((2 * !j) + 1) <- w1;
      t.spill.(!j) <- sp;
      t.used.(k) <- !j
    done

  (* Returns [true] if the key was already present; otherwise inserts
     it (copying only the spilled tail) and returns [false]. The
     stored action word carries [spill_bit] when the key has a
     spilled tail, so probing a short key — the overwhelmingly common
     case — decides on the two inline words alone and never touches
     the spill array's cache lines. *)
  let rec spill_eq (sp : int array) (buf : int array) len k =
    k >= len || (Array.unsafe_get sp (k - 1) = Array.unsafe_get buf k && spill_eq sp buf len (k + 1))

  let rec probe t (slots : int array) mask w0want w1 (buf : int array) len i =
    let w0 = Array.unsafe_get slots (2 * i) in
    if w0 = 0 then begin
      Array.unsafe_set slots (2 * i) w0want;
      Array.unsafe_set slots ((2 * i) + 1) w1;
      if len > 1 then t.spill.(i) <- Array.sub buf 1 (len - 1);
      Array.unsafe_set t.used t.fill i;
      t.fill <- t.fill + 1;
      if 4 * t.fill > 3 * (mask + 1) then grow t;
      false
    end
    else if
      w0 = w0want
      && Array.unsafe_get slots ((2 * i) + 1) = w1
      && (len <= 1
         ||
         let sp = Array.unsafe_get t.spill i in
         Array.length sp = len - 1 && spill_eq sp buf len 1)
    then true
    else probe t slots mask w0want w1 buf len ((i + 1) land mask)

  let capacity t = t.mask + 1

  let clear t =
    let slots = t.slots and spill = t.spill and used = t.used in
    for k = 0 to t.fill - 1 do
      let i = Array.unsafe_get used k in
      Array.unsafe_set slots (2 * i) 0;
      Array.unsafe_set slots ((2 * i) + 1) 0;
      Array.unsafe_set spill i empty_spill
    done;
    t.fill <- 0

  let test_and_add t ~action (buf : int array) len =
    let w1 = if len > 0 then buf.(0) else 0 in
    let w0want = if len > 1 then action lor spill_bit else action in
    let h = hash ~action buf len in
    (* Indices are masked, so 2i and 2i+1 stay inside [slots] by
       construction. *)
    probe t t.slots t.mask w0want w1 buf len (h land t.mask)
end

(* Insertion sort + adjacent dedup of the scratch prefix; returns the
   deduplicated length. Residue lists are a handful of words, so this
   beats any general sort. Written as capture-free recursion — see
   the note in {!Key_set}. *)
let rec sd_insert (buf : int array) v j =
  if j >= 0 && Array.unsafe_get buf j > v then begin
    Array.unsafe_set buf (j + 1) (Array.unsafe_get buf j);
    sd_insert buf v (j - 1)
  end
  else Array.unsafe_set buf (j + 1) v

let rec sd_sort (buf : int array) len i =
  if i < len then begin
    sd_insert buf (Array.unsafe_get buf i) (i - 1);
    sd_sort buf len (i + 1)
  end

let rec sd_dedup (buf : int array) len i out =
  if i >= len then out
  else if out > 0 && Array.unsafe_get buf (out - 1) = Array.unsafe_get buf i then
    sd_dedup buf len (i + 1) out
  else begin
    Array.unsafe_set buf out (Array.unsafe_get buf i);
    sd_dedup buf len (i + 1) (out + 1)
  end

let sort_dedup (buf : int array) len =
  sd_sort buf len 1;
  sd_dedup buf len 0 0

(* Residual predicates in first-encounter order, duplicates dropped —
   the spelling the emitted step carries (the key is the sorted
   form). Reads the slice [off, off+len) of a predicate array. *)
let rec pred_seen (pa : int array) p off i =
  i >= off && (Array.unsafe_get pa i = p || pred_seen pa p off (i - 1))

(* Whether the slice [enc.(0 .. len-1)] holds [a] and otherwise only
   [b]. *)
let rec pair_words (enc : int array) a b len k seen_a =
  if k >= len then seen_a
  else
    let x = Array.unsafe_get enc k in
    (x = a || x = b) && pair_words enc a b len (k + 1) (seen_a || x = a)

(* ------------------------------------------------------------------ *)
(* The step store                                                     *)
(* ------------------------------------------------------------------ *)

(* One flat layout holds ground steps in all three of Γ's roles: the
   domain-local emission scratch, the frozen prefix (a trimmed copy of
   the scratch) and a fork's materialized growth (a second store whose
   sids continue the prefix's). Per step, [recs] holds five ints: the
   packed action word, the offset and length of the slice of packed
   residual words it owns in [preds], its rule's index in the plan,
   and for an [Assign] the master row it copies ([-1] otherwise). The
   rule name and the row's own spelling of the assigned value decode
   from those on demand ({!rule_name}, {!action}), so a store holds
   only ints: a push writes no pointer and a reused store pins
   nothing. *)
module Store = struct
  type t = {
    origin : int; (* sid of the store's first step *)
    mutable n : int;
    mutable recs : int array;
    mutable preds : int array;
    mutable plen : int;
  }

  let stride = 5

  let create ~origin ~steps ~preds =
    { origin; n = 0; recs = Array.make (stride * steps) 0; preds = Array.make preds 0; plen = 0 }

  let resize a cap fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 (Array.length a);
    b

  (* The one growth policy: double, from at least 16 steps and 64
     residual words. *)
  let push s ~act_word ~rule ~row (enc : int array) len =
    let i = s.n in
    let r = stride * i in
    if r = Array.length s.recs then s.recs <- resize s.recs (stride * max 16 (2 * i)) 0;
    if s.plen + len > Array.length s.preds then
      s.preds <- resize s.preds (max 64 (2 * (s.plen + len))) 0;
    s.recs.(r) <- act_word;
    s.recs.(r + 1) <- s.plen;
    s.recs.(r + 2) <- len;
    s.recs.(r + 3) <- rule;
    s.recs.(r + 4) <- row;
    Array.blit enc 0 s.preds s.plen len;
    s.plen <- s.plen + len;
    s.n <- i + 1

  (* A right-sized copy: what a grounding returns as its prefix. *)
  let trim s =
    { s with recs = Array.sub s.recs 0 (stride * s.n); preds = Array.sub s.preds 0 s.plen }

  let clear s =
    s.n <- 0;
    s.plen <- 0

  (* Accessors by absolute sid. *)
  let field s sid k = s.recs.((stride * (sid - s.origin)) + k)
  let word s sid = field s sid 0
  let off s sid = field s sid 1
  let len s sid = field s sid 2
  let rule s sid = field s sid 3
  let row s sid = field s sid 4
end

(* ------------------------------------------------------------------ *)
(* Form-(1) rule compilation                                          *)
(* ------------------------------------------------------------------ *)

(* Each AR's recipe is compiled once per ruleset ({!Plan}). Per
   entity, the pair loop reads that recipe directly against the
   entity's flat arrays: tuple classes and interned value ids per
   attribute, the constants' ids, and the two-sided compares tabulated
   over class pairs. Single-sided guards were already folded into
   tuple bitsets. Nothing is bound per rule, so a rule costs no
   allocation beyond the steps it emits, and the per-pair loop touches
   only machine ints. *)

(* A two-sided compare, tabulated once per entity on first use. *)
type mat_guard =
  | G_mat of { m : Bytes.t; rows : int array; cols : int array; kc : int }
      (* precomputed per class pair: entry at [rows.(i) * kc + cols.(j)] *)
  | G_cross of (int -> int -> bool)
      (* fallback when the class-pair matrix would be too large *)
  | G_unbuilt

(* The per-entity arrays the recipes read. *)
type ent = {
  cls : int array array; (* attribute -> tuple -> class *)
  tuple_vid : int array array; (* attribute -> tuple -> interned id of its value *)
  cvid : int array; (* constant -> interned id *)
  mat_guards : mat_guard array; (* by {!Plan.mats} id *)
}

(* Tuple sets of one entity as bitsets: tuple [ti] is bit
   [ti mod 62] of word [ti / 62], so every word is a non-negative int
   and an entity of any size takes the same code path. Shape tables,
   per-class masks, read-set representatives and the guard-filtered
   representative lists of sides all live in one domain-local int
   arena ({!Arena}), each at an offset: an entity's set-up allocates
   no array or option per table, only the arena's growth. *)
let bits = 62
let words n = max 1 ((n + bits - 1) / bits)

let set_bit (b : int array) off ti =
  let k = off + (ti / bits) in
  b.(k) <- b.(k) lor (1 lsl (ti mod bits))

let mem_bit (b : int array) off ti = b.(off + (ti / bits)) land (1 lsl (ti mod bits)) <> 0

module Arena = struct
  type t = { mutable a : int array; mutable top : int }

  let create () = { a = Array.make 4096 0; top = 0 }

  (* [k] zeroed words; returns their offset. Offsets stay valid across
     growth, arrays read from [a] do not. *)
  let alloc t k =
    let off = t.top in
    if off + k > Array.length t.a then begin
      let a = Array.make (max (2 * Array.length t.a) (off + k)) 0 in
      Array.blit t.a 0 a 0 off;
      t.a <- a
    end
    else
      for i = off to off + k - 1 do
        Array.unsafe_set t.a i 0
      done;
    t.top <- off + k;
    off

  (* Ends a grounding: a large entity's arena is not kept. *)
  let reset t =
    t.top <- 0;
    if Array.length t.a > 1 lsl 16 then t.a <- Array.make 4096 0
end

(* ------------------------------------------------------------------ *)
(* Candidate evaluation                                               *)
(* ------------------------------------------------------------------ *)

(* The per-pair evaluators: capture-free recursion over the recipe's
   guard and residual arrays (see the note in {!Key_set}). *)
let rec guards_pass (xs : Plan.cross array) nx (e : ent) i j k =
  k >= nx
  || (match Array.unsafe_get xs k with
     | Plan.X_cls_eq a ->
         let cls = Array.unsafe_get e.cls a in
         Array.unsafe_get cls i = Array.unsafe_get cls j
     | Plan.X_cls_neq a ->
         let cls = Array.unsafe_get e.cls a in
         Array.unsafe_get cls i <> Array.unsafe_get cls j
     | Plan.X_mat id -> (
         match Array.unsafe_get e.mat_guards id with
         | G_mat { m; rows; cols; kc } ->
             Bytes.unsafe_get m ((Array.unsafe_get rows i * kc) + Array.unsafe_get cols j)
             = '\001'
         | G_cross f -> f i j
         | G_unbuilt -> assert false))
     && guards_pass xs nx e i j (k + 1)

(* Packs the pair's residual predicates into [enc]; returns the
   filled length, or [-1] when a strict same-class [R_ord] makes the
   step unsatisfiable. *)
let rec fill_res (rs : Plan.res array) nr (e : ent) (enc : int array) i j k len =
  if k >= nr then len
  else
    match Array.unsafe_get rs k with
    | Plan.R_const { base; const } ->
        enc.(len) <- base lor Array.unsafe_get e.cvid const;
        fill_res rs nr e enc i j (k + 1) (len + 1)
    | Plan.R_te { side; base; read } ->
        let t = match side with Ar.T1 -> i | Ar.T2 -> j in
        enc.(len) <- base lor Array.unsafe_get (Array.unsafe_get e.tuple_vid read) t;
        fill_res rs nr e enc i j (k + 1) (len + 1)
    | Plan.R_ord { strict; left; right; base; attr } ->
        let cls = Array.unsafe_get e.cls attr in
        let tl = match left with Ar.T1 -> i | Ar.T2 -> j in
        let tr = match right with Ar.T1 -> i | Ar.T2 -> j in
        let c1 = Array.unsafe_get cls tl and c2 = Array.unsafe_get cls tr in
        if c1 = c2 then
          if strict then -1 else fill_res rs nr e enc i j (k + 1) len
        else begin
          enc.(len) <- base lor (c1 lsl Plan.bits_xy) lor c2;
          fill_res rs nr e enc i j (k + 1) (len + 1)
        end

(* The dedup probe of a candidate whose residuals sit in
   [enc.(0 .. len-1)]: [true] iff it is new, and then [seen] holds it.
   One residual needs no sort; longer residues sort into [srt], so the
   encounter order in [enc] survives as the step's spelling. *)
let is_new seen ~act_word (enc : int array) (srt : int array) len =
  if len <= 1 then not (Key_set.test_and_add seen ~action:act_word enc len)
  else begin
    Array.blit enc 0 srt 0 len;
    not (Key_set.test_and_add seen ~action:act_word srt (sort_dedup srt len))
  end

(* ------------------------------------------------------------------ *)
(* Form-(2) rows and templates                                        *)
(* ------------------------------------------------------------------ *)

(* A form-(2) residual item: static residues pack once per rule,
   master reads resolve per row as probes into the column's
   interned-id array (0 = null, which never interns to a live id). *)
type f2_item = T_static of int | T_master of { attr : int; vids : int array }

(* Packs master row [m]'s residuals into [enc]; returns the filled
   length, or [-1] when a joined cell is null ([te] is never assigned
   null, so the step is unsatisfiable). Capture-free, like
   [fill_res]. *)
let rec fill_f2 (items : f2_item array) n m (enc : int array) k len =
  if k >= n then len
  else
    match Array.unsafe_get items k with
    | T_static p ->
        enc.(len) <- p;
        fill_f2 items n m enc (k + 1) (len + 1)
    | T_master { attr; vids } ->
        let vid = Array.unsafe_get vids m in
        if vid = Intern.null_id then -1
        else begin
          enc.(len) <- Plan.pack ~tag:Plan.tag_te ~attr ~x:(Plan.op_tag Ar.Eq) ~y:vid;
          fill_f2 items n m enc (k + 1) (len + 1)
        end

(* A form-(2) rule bound to one grounding's master and constants: its
   items resolved against the master's per-column id arrays, so a row
   reads only ints. *)
type f2 = {
  f_rule : int; (* index in the plan *)
  f_name : string;
  f_master : Relation.t;
  f_tests : (int * Ar.op * Value.t) list; (* Master_const selections *)
  f_items : f2_item array; (* residual recipe, f2_lhs order *)
  f_te_attr : int;
  f_tm_vids : int array; (* the assigned column's ids *)
}

(* A template is one form-(2) rule held back from the prefix: it
   compresses the rule's |Im| candidate steps into the bound rule
   itself plus a designated join binding. The chase materializes
   concrete steps from it only when a [te] write produces a value that
   hits the rule's join column in the master value index
   ({!Master_index}) — which is the only way any of its deferred steps
   could ever fire, since a [Te_master] residual is an equality
   against a concrete master cell. Rules with no [Te_master] conjunct
   never defer: their steps have no join key to wait on. *)
type template = {
  t_id : int;
  t_f2 : f2;
  t_join_attr : int; (* first Te_master conjunct: the trigger *)
  t_join_col : int;
}

let template_id t = t.t_id
let template_name t = t.t_f2.f_name
let template_join_attr t = t.t_join_attr
let template_join_col t = t.t_join_col

(* What a pass of form-(2) rows did, for the caller to flush into the
   metrics. *)
type tally = { mutable emitted : int; mutable dups : int; mutable rows : int }

let rec tests_pass im m = function
  | [] -> true
  | (b, op, c) :: rest -> Ar.eval_op op (Relation.get im m b) c && tests_pass im m rest

(* The form-(2) row loop, shared by grounding and materialization:
   per master row, the selection tests, the residual fill, the
   null-assign check, the dedup probe against [seen] (forced at the
   first probe) and the push into [store]. *)
let rec f2_rows (r : f2) seen (store : Store.t) (enc : int array) (srt : int array) tally
    = function
  | [] -> ()
  | m :: rows ->
      tally.rows <- tally.rows + 1;
      (if tests_pass r.f_master m r.f_tests then
         let len = fill_f2 r.f_items (Array.length r.f_items) m enc 0 0 in
         if len >= 0 then
           let avid = r.f_tm_vids.(m) in
           if avid <> Intern.null_id then
             let act_word = Plan.pack ~tag:Plan.tag_assign ~attr:r.f_te_attr ~x:0 ~y:avid in
             if is_new (Lazy.force seen) ~act_word enc srt len then begin
               (* The step keeps its master row, so its action reads
                  the row's own spelling of the assigned value and
                  downstream reports stay byte-identical to the
                  master data. *)
               Store.push store ~act_word ~rule:r.f_rule ~row:m enc len;
               tally.emitted <- tally.emitted + 1
             end
             else tally.dups <- tally.dups + 1);
      f2_rows r seen store enc srt tally rows

(* ------------------------------------------------------------------ *)
(* Grounding                                                          *)
(* ------------------------------------------------------------------ *)

type scratch = {
  steps : Store.t; (* emission store; a grounding's prefix is its trim *)
  mutable enc : int array; (* a candidate's residual words, encounter order *)
  mutable srt : int array; (* their sorted copy, probed as the dedup key *)
  (* Per-attribute dedup tables, reused across calls: clearing a
     retained table resets only the slots it filled, where allocating
     fresh ones every call put megabytes per run through the major
     heap — and on a shared heap each major-GC slice that churn
     provokes re-marks whatever else the process keeps live.
     [s_epoch] makes the clearing lazy: a table is swept the first
     time a call touches it. *)
  mutable s_seen : Key_set.t option array; (* indexed by attribute *)
  mutable s_seen_ep : int array;
  mutable s_epoch : int;
  arena : Arena.t; (* the form-(1) set-up's bitsets and lists *)
}

(* Domain-local, so repeated groundings and materializations reuse it
   with zero steady-state allocation while parallel cleaners stay
   isolated per domain. *)
let scratch_key =
  Domain.DLS.new_key (fun () ->
      {
        steps = Store.create ~origin:0 ~steps:1024 ~preds:4096;
        enc = Array.make 32 0;
        srt = Array.make 32 0;
        s_seen = Array.make 8 None;
        s_seen_ep = Array.make 8 0;
        s_epoch = 0;
        arena = Arena.create ();
      })

(* Room for [len] residual words in the candidate buffers; grown per
   rule, never per candidate. *)
let reserve sc len =
  if Array.length sc.enc < len then begin
    sc.enc <- Array.make (2 * len) 0;
    sc.srt <- Array.make (2 * len) 0
  end

(* Γ: a frozen prefix of ground steps, plus the templates of the
   form-(2) rules held back from it. Nothing here changes after
   instantiation, so one Γ serves every run over a compiled
   specification, across domains.

   A run that can materialize takes a private copy ([fork]) whose
   [growth] store holds the steps materialized so far; their sids
   extend the prefix numbering densely, so every consumer of a sid —
   slot tables, undo logs, traces — is oblivious to a step's
   provenance. Materialized steps are all [Assign]s (form-(2)
   conclusions). In a Γ that is not forked, [growth] stays empty and
   is never written. *)
type t = {
  intern : Intern.t;
  class_vids : int array array; (* attribute -> class -> interned id of its value *)
  plan : Plan.t; (* a step's rule index reads its name and recipe here *)
  master : Relation.t option; (* an [Assign]'s row reads its value here *)
  prefix : Store.t;
  templates : template array;
  forked : bool;
  growth : Store.t;
  mutable seen : Key_set.t option; (* materialization dedup, seeded on first use *)
}

(* Whether [only] admits one of the rules [by] names. *)
let rec any_grounded only (rules : Ar.t array) (by : int array) k =
  k < Array.length by && (only rules.(by.(k)) || any_grounded only rules by (k + 1))

let instantiate ?(only = fun _ -> true) ~intern ~ruleset ~entity ~master ~orders () =
  (match master with
  | Some midx -> (
      if not (Master_index.covers midx intern ruleset) then
        invalid_arg "Ground.instantiate: intern does not extend the master index's table")
  | None -> ());
  (* [only] restricts which rules of Σ are instantiated — the delta
     path: when a rule is added to a live session, only its own
     ground steps are needed to decide whether the entity's Γ grows
     at all. The filter runs once per rule, outside the hot loops. *)
  let plan = Ruleset.plan ruleset in
  let rules = Plan.rules plan and recipes = Plan.recipes plan in
  (* A rule subsumed by one this call grounds adds no step. *)
  let subsumers = Plan.subsumers plan in
  let grounded =
    Array.mapi (fun i r -> only r && not (any_grounded only rules subsumers.(i) 0)) rules
  in
  (* Γ leaves the axioms, the leading [native] rules, to the chase,
     which applies them itself (DESIGN.md §29). *)
  let native = List.length (Ruleset.axioms ruleset) in
  let n = Relation.size entity in
  let arity = Array.length orders in
  (* Flat per-attribute id tables: tuple -> class, tuple -> interned
     value id of its class. Everything the form-(1) hot loop reads
     lives here; interning happens once per value class, never per
     tuple pair. The class map is the numbering's own (read only). *)
  let cls = Array.map Attr_order.numbering_tuple_classes orders in
  (* Entity-generation ids start past the master's, so every id taken
     here is checked against the packing range. *)
  let intern_id v =
    let id = Intern.intern intern v in
    if id >= Plan.max_xy then
      invalid_arg "Ground.instantiate: attribute/class/value id exceeds packing range";
    id
  in
  let class_vid =
    Array.init arity (fun a ->
        Array.init
          (Attr_order.numbering_classes orders.(a))
          (fun c -> intern_id (Attr_order.numbering_class_value orders.(a) c)))
  in
  let tuple_vid =
    Array.init arity (fun a -> Array.map (fun c -> class_vid.(a).(c)) cls.(a))
  in
  (* The plan's few constants, interned once per call. *)
  let consts = Plan.consts plan in
  let cvid = Array.map intern_id consts in
  (* Surviving steps go into the domain-local emission store, and the
     prefix is its trimmed copy: during the loop nothing boxed
     survives a minor collection, so the GC never promotes
     per-emission records. *)
  let sc = Domain.DLS.get scratch_key in
  let steps = sc.steps in
  (* Metric deltas accumulate locally and flush once on exit — the
     emission loop runs ~|Γ| + dedup times and an atomic RMW per
     candidate is measurable. *)
  let n_form1 = ref 0 and n_dedup = ref 0 and n_deferred = ref 0 in
  let f2_tally = { emitted = 0; dups = 0; rows = 0 } in
  let templates = ref [] and n_templates = ref 0 in
  (* Dedup tables partitioned by the action's attribute: every key
     embeds its attribute in the action word, so partitioning is
     semantically invisible, but a rule's probes all land in its own
     attribute's table — a working set of tens of kilobytes instead
     of one table spanning every rule's keys. *)
  sc.s_epoch <- sc.s_epoch + 1;
  let epoch = sc.s_epoch in
  if Array.length sc.s_seen < arity then begin
    sc.s_seen <- Store.resize sc.s_seen arity None;
    sc.s_seen_ep <- Store.resize sc.s_seen_ep arity 0
  end;
  (* Sized to the entity: candidate keys per attribute scale with
     distinct representative pairs, a slice of n². Small datasets get
     small tables (grow covers underestimates); syn300-scale gets 8k
     slots, enough to never rehash. *)
  let seen_want = min 8192 (max 64 ((n * n) / 8)) in
  let seen_for attr =
    match Array.unsafe_get sc.s_seen attr with
    | Some t when Array.unsafe_get sc.s_seen_ep attr = epoch -> t
    | Some t when Key_set.capacity t >= seen_want ->
        Key_set.clear t;
        sc.s_seen_ep.(attr) <- epoch;
        t
    | _ ->
        let t = Key_set.create seen_want in
        sc.s_seen.(attr) <- Some t;
        sc.s_seen_ep.(attr) <- epoch;
        t
  in
  (* ---------------- form (1) ---------------- *)
  (* The entity-dependent halves of the plan's shared ids, each built
     on first use: a tuple bitset per single-sided shape, a class-pair
     matrix per two-sided compare, a representative bitset per read
     set, and the guard-filtered representatives per tuple variable.
     The bitsets and lists sit in the arena; a cache holds each one's
     offset, [-1] until it is built. *)
  let value_at ti a = Relation.get entity ti a in
  let w = words n in
  let arena = sc.arena in
  let shapes = Plan.shapes plan in
  let read_sets = Plan.read_sets plan and sides = Plan.sides plan in
  let tables = Array.make (Array.length shapes) (-1) in
  let table s =
    if tables.(s) < 0 then begin
      let off = Arena.alloc arena w in
      let b = arena.a in
      (match shapes.(s) with
      | Plan.Sh_const { attr; op; const } ->
          let c = consts.(const) in
          for ti = 0 to n - 1 do
            if Ar.eval_op op (value_at ti attr) c then set_bit b off ti
          done
      | Plan.Sh_attrs { a; op; b = b' } ->
          for ti = 0 to n - 1 do
            if Ar.eval_op op (value_at ti a) (value_at ti b') then set_bit b off ti
          done);
      tables.(s) <- off
    end;
    tables.(s)
  in
  let mats = Plan.mats plan in
  let ent = { cls; tuple_vid; cvid; mat_guards = Array.make (Array.length mats) G_unbuilt } in
  (* A two-sided compare evaluates once per class pair, not per tuple
     pair; past 2^22 class pairs it falls back to a per-pair closure. *)
  let build_mat id =
    if ent.mat_guards.(id) == G_unbuilt then begin
      let { Plan.ia; op; ja } = mats.(id) in
      let ki = Attr_order.numbering_classes orders.(ia) in
      let kj = Attr_order.numbering_classes orders.(ja) in
      ent.mat_guards.(id) <-
        (if ki * kj <= 1 lsl 22 then begin
           let vi c = Attr_order.numbering_class_value orders.(ia) c in
           let vj c = Attr_order.numbering_class_value orders.(ja) c in
           let m = Bytes.make (max (ki * kj) 1) '\000' in
           for ci = 0 to ki - 1 do
             for cj = 0 to kj - 1 do
               if Ar.eval_op op (vi ci) (vj cj) then Bytes.set m ((ci * kj) + cj) '\001'
             done
           done;
           G_mat { m; rows = cls.(ia); cols = cls.(ja); kc = kj }
         end
         else G_cross (fun i j -> Ar.eval_op op (value_at i ia) (value_at j ja)))
    end
  in
  (* Per attribute, one bitset per value class ([w] words each, class
     [c] at word [c * w]): what representatives are read off. *)
  let class_masks = Array.make arity (-1) in
  let class_mask a =
    if class_masks.(a) < 0 then begin
      let off = Arena.alloc arena (max 1 (Attr_order.numbering_classes orders.(a)) * w) in
      let m = arena.a and ca = cls.(a) in
      for ti = 0 to n - 1 do
        set_bit m (off + (ca.(ti) * w)) ti
      done;
      class_masks.(a) <- off
    end;
    class_masks.(a)
  in
  (* Distinct class-signature representatives: the first tuple, in
     index order, of each combination of class ids over the read set.
     A tuple is a representative iff no tuple below it shares its
     class on every attribute of the read set: the AND of its classes'
     masks has no bit below its own. *)
  let reps_cache = Array.make (Array.length read_sets) (-1) in
  let reps_of rs =
    if reps_cache.(rs) < 0 then begin
      let attrs = read_sets.(rs) in
      let na = Array.length attrs in
      for x = 0 to na - 1 do
        ignore (class_mask attrs.(x) : int)
      done;
      let reps = Arena.alloc arena w in
      let m = arena.a in
      let shared ti k =
        let acc = ref (-1) in
        for x = 0 to na - 1 do
          let a = attrs.(x) in
          acc := !acc land m.(class_masks.(a) + (cls.(a).(ti) * w) + k)
        done;
        !acc
      in
      for ti = 0 to n - 1 do
        let wi = ti / bits in
        let first = ref (shared ti wi land ((1 lsl (ti mod bits)) - 1) = 0) in
        let k = ref 0 in
        while !first && !k < wi do
          if shared ti !k <> 0 then first := false;
          incr k
        done;
        if !first then set_bit m reps ti
      done;
      reps_cache.(rs) <- reps
    end;
    reps_cache.(rs)
  in
  let side_off = Array.make (Array.length sides) (-1)
  and side_len = Array.make (Array.length sides) 0 in
  (* Single-sided guards depend on only one representative, so they
     hoist out of the pair loop entirely: each side's representatives
     are intersected with its shape tables once, and only genuinely
     two-sided guards stay in the O(|reps1|·|reps2|) inner loop. The
     survivors are listed, ascending, at [side_off]. *)
  let side_reps sd =
    if side_off.(sd) < 0 then begin
      let rs, shape_ids = sides.(sd) in
      let reps = reps_of rs in
      for x = 0 to Array.length shape_ids - 1 do
        ignore (table shape_ids.(x) : int)
      done;
      let set = Arena.alloc arena w in
      let m = arena.a in
      for k = 0 to w - 1 do
        let word = ref m.(reps + k) in
        for x = 0 to Array.length shape_ids - 1 do
          word := !word land m.(tables.(shape_ids.(x)) + k)
        done;
        m.(set + k) <- !word
      done;
      let count = ref 0 in
      for ti = 0 to n - 1 do
        if mem_bit m set ti then incr count
      done;
      let off = Arena.alloc arena !count in
      let m = arena.a in
      let k = ref off in
      for ti = 0 to n - 1 do
        if mem_bit m set ti then begin
          m.(!k) <- ti;
          incr k
        end
      done;
      side_off.(sd) <- off;
      side_len.(sd) <- !count
    end
  in
  (* Whether a new candidate is a step that an axiom left to the chase
     offered first: the literal grounding's dedup drops it there, so
     it is dropped here too, and Γ is the literal Γ less its axiom
     steps. Attribute [a]'s axioms are rules 3a (φ7), 3a + 1 (φ8) and
     3a + 2 (φ9) ({!Axioms.all}); their steps are
     - φ7: [c_null ⪯ c] with no residual;
     - φ8: [c1 ⪯ c2] (a refresh when [c1 = c2]) under exactly
       [te\[a\] = v(c2)] and [te\[a\] ≠ null];
     - φ9: a refresh with no residual. *)
  let axiom_offered act_word (enc : int array) len =
    let a = Plan.unpack_attr act_word in
    (3 * a) + 2 < native
    &&
    let tag = Plan.unpack_tag act_word and vids = class_vid.(a) in
    if len = 0 then
      (tag = Plan.tag_add && grounded.(3 * a) && vids.(Plan.unpack_x act_word) = Intern.null_id)
      || (tag = Plan.tag_refresh && grounded.((3 * a) + 2))
    else
      grounded.((3 * a) + 1)
      &&
      let ne = Plan.pack ~tag:Plan.tag_te ~attr:a ~x:(Plan.op_tag Ar.Neq) ~y:Intern.null_id in
      let w = if enc.(0) = ne then enc.(len - 1) else enc.(0) in
      let vid = Plan.unpack_y w in
      w = Plan.pack ~tag:Plan.tag_te ~attr:a ~x:(Plan.op_tag Ar.Eq) ~y:vid
      && pair_words enc ne w len 0 false
      && if tag = Plan.tag_add then vid = vids.(Plan.unpack_y act_word) else Array.mem vid vids
  in
  let run_form1 rule (r : Plan.form1) =
    side_reps r.side1;
    side_reps r.side2;
    let n1 = side_len.(r.side1) and n2 = side_len.(r.side2) in
    if n1 > 0 && n2 > 0 then begin
      let o1 = side_off.(r.side1) and o2 = side_off.(r.side2) and reps = arena.a in
      let cross = r.cross and res = r.res in
      let nx = Array.length cross and nres = Array.length res in
      for k = 0 to nx - 1 do
        match cross.(k) with Plan.X_mat id -> build_mat id | _ -> ()
      done;
      reserve sc nres;
      let enc = sc.enc and srt = sc.srt in
      let rhs_attr = r.rhs.Ar.attr and rhs_left = r.rhs.Ar.left and rhs_right = r.rhs.Ar.right in
      let rhs_cls = cls.(rhs_attr) and seen = seen_for rhs_attr in
      for x = o1 to o1 + n1 - 1 do
        let i = Array.unsafe_get reps x in
        for y = o2 to o2 + n2 - 1 do
          let j = Array.unsafe_get reps y in
          if guards_pass cross nx ent i j 0 then begin
            let len = fill_res res nres ent enc i j 0 0 in
            if len >= 0 then begin
              let tl = match rhs_left with Ar.T1 -> i | Ar.T2 -> j in
              let tr = match rhs_right with Ar.T1 -> i | Ar.T2 -> j in
              let c1 = Array.unsafe_get rhs_cls tl and c2 = Array.unsafe_get rhs_cls tr in
              let act_word =
                if c1 = c2 then Plan.pack ~tag:Plan.tag_refresh ~attr:rhs_attr ~x:0 ~y:0
                else Plan.pack ~tag:Plan.tag_add ~attr:rhs_attr ~x:c1 ~y:c2
              in
              if is_new seen ~act_word enc srt len && not (axiom_offered act_word enc len)
              then begin
                Store.push steps ~act_word ~rule ~row:(-1) enc len;
                incr n_form1
              end
              else incr n_dedup
            end
          end
        done
      done
    end
  in
  (* ---------------- form (2) ---------------- *)
  (* Master ids come from the index's per-column arrays, built once
     per master. *)
  let bind rule (r : Plan.form2) midx =
    {
      f_rule = rule;
      f_name = r.f2_name;
      f_master = Master_index.relation midx;
      f_tests = r.tests;
      f_items =
        Array.map
          (function
            | Plan.I_static { base; const } -> T_static (base lor cvid.(const))
            | Plan.I_join { attr; col } ->
                T_master { attr; vids = Master_index.vids midx ~col })
          r.items;
      f_te_attr = r.te_attr;
      f_tm_vids = Master_index.vids midx ~col:r.tm_attr;
    }
  in
  (* A rule with a [Master_const (b, Eq, c)] selection visits only the
     rows the index holds for [c] instead of scanning all of |Im|. *)
  let ground_form2 rule (r : Plan.form2) midx =
    let f = bind rule r midx in
    reserve sc (Array.length f.f_items);
    let rows =
      match r.select with
      | None -> List.init (Relation.size f.f_master) Fun.id
      | Some (b, c) -> Master_index.rows midx ~col:b c
    in
    f2_rows f (Lazy.from_val (seen_for r.te_attr)) steps sc.enc sc.srt f2_tally rows
  in
  (* Templates: every form-(2) rule with a [Te_master] conjunct
     becomes one template instead of |Im| candidate steps. The first
     such conjunct is the trigger binding — any satisfying master row
     must match the entity's [te] on that attribute, so a value
     written there is the earliest (and only) signal under which the
     rule's steps can become relevant. Rules without one (pure
     selection-plus-assign) ground into the prefix: nothing joins the
     entity, so there is no key to wait on. *)
  let form2 rule (r : Plan.form2) midx =
    match r.join with
    | Some (ja, jc) ->
        templates :=
          { t_id = !n_templates; t_f2 = bind rule r midx; t_join_attr = ja; t_join_col = jc }
          :: !templates;
        incr n_templates;
        n_deferred := !n_deferred + Relation.size (Master_index.relation midx)
    | None -> ground_form2 rule r midx
  in
  let flush_metrics () =
    Obs.Counter.add m_form1 !n_form1;
    Obs.Counter.add m_form2 f2_tally.emitted;
    Obs.Counter.add m_dedup (!n_dedup + f2_tally.dups);
    Obs.Counter.add m_mrows f2_tally.rows;
    Obs.Counter.add m_deferred !n_deferred
  in
  let prefix =
    Fun.protect
      ~finally:(fun () ->
        flush_metrics ();
        Arena.reset sc.arena;
        Store.clear steps)
      (fun () ->
        Array.iteri
          (fun i recipe ->
            if grounded.(i) && i >= native then
              match recipe with
              | Plan.Dead -> ()
              | Plan.Invalid msg -> invalid_arg msg
              | Plan.Form1 r -> run_form1 i r
              | Plan.Form2 r -> Option.iter (form2 i r) master)
          recipes;
        Store.trim steps)
  in
  {
    intern;
    class_vids = class_vid;
    plan;
    master = Option.map Master_index.relation master;
    prefix;
    templates = Array.of_list (List.rev !templates);
    forked = false;
    growth = Store.create ~origin:prefix.n ~steps:0 ~preds:0;
    seen = None;
  }

(* ------------------------------------------------------------------ *)
(* Reading and growing Γ                                              *)
(* ------------------------------------------------------------------ *)

let count g = g.prefix.n + g.growth.n
let templates g = g.templates
let class_vids g = g.class_vids

(* The store holding step [sid]: the one place a sid's provenance is
   looked at. *)
let store g sid = if sid < g.prefix.n then g.prefix else g.growth

(* A Γ without templates can never grow, so its fork is itself: runs
   over such an entity pay nothing for the growth machinery. *)
let fork g =
  if Array.length g.templates = 0 then g
  else
    {
      g with
      forked = true;
      growth = Store.create ~origin:g.prefix.n ~steps:0 ~preds:0;
      seen = None;
    }

let rule_name g sid = Ar.name (Plan.rules g.plan).(Store.rule (store g sid) sid)
let pred_count g sid = Store.len (store g sid) sid

let pred_word g sid slot =
  let s = store g sid in
  s.preds.(Store.off s sid + slot)

(* An [Assign] copies its row's own spelling of the value, read from
   the master through its form-(2) rule's copied column. *)
let assigned g s sid =
  match ((Plan.recipes g.plan).(Store.rule s sid), g.master) with
  | Plan.Form2 r, Some m -> Relation.get m (Store.row s sid) r.tm_attr
  | _ -> assert false (* only form-(2) rules over a master assign *)

let action g sid =
  let s = store g sid in
  let w = Store.word s sid in
  let tag = Plan.unpack_tag w and attr = Plan.unpack_attr w in
  if tag = Plan.tag_assign then Assign { attr; value = assigned g s sid }
  else if tag = Plan.tag_refresh then Refresh attr
  else Add_order { attr; c1 = Plan.unpack_x w; c2 = Plan.unpack_y w }

(* Predicates decode in encounter order with first-encounter dedup:
   walking the slice backward, a word is kept only when no earlier
   slot holds it. *)
let step g sid =
  let s = store g sid in
  let pa = s.preds and off = Store.off s sid in
  let preds = ref [] in
  for k = Store.len s sid - 1 downto 0 do
    let p = pa.(off + k) in
    if not (pred_seen pa p off (off + k - 1)) then
      preds := gpred_of_pack g.intern p :: !preds
  done;
  { sid; rule_name = rule_name g sid; preds = !preds; action = action g sid }

(* The materialization dedup set, seeded with the prefix's [Assign]
   keys on first use: a materialized step can only collide with
   another assign (all of them are assigns, and keys embed the action
   word). The dedup classes are the literal grounding's, but not
   always its provenance: a prefix step of a rule that comes {e after}
   a templated one in Σ keeps its name even where the literal
   grounding credits the templated rule. A run that never
   materializes never scans the prefix. *)
let seen g =
  match g.seen with
  | Some s -> s
  | None ->
      let p = g.prefix and s = Key_set.create 64 and key = ref [||] in
      for sid = 0 to p.n - 1 do
        let w = Store.word p sid and len = Store.len p sid in
        if Plan.unpack_tag w = Plan.tag_assign then begin
          if Array.length !key < len then key := Array.make (2 * len) 0;
          Array.blit p.preds (Store.off p sid) !key 0 len;
          ignore (Key_set.test_and_add s ~action:w !key (sort_dedup !key len) : bool)
        end
      done;
      g.seen <- Some s;
      s

(* Materialize the steps of template [tid] over the given master
   rows through the grounding's own row loop. Each surviving step is
   appended to the fork's growth and reported through [on_new] with
   its fresh sid, in row order; duplicates — rows another template or
   the prefix already covered — are dropped by the shared key set. *)
let materialize g ~rows tid ~on_new =
  if not g.forked then invalid_arg "Ground.materialize: Γ is not forked";
  let f = g.templates.(tid).t_f2 in
  let sc = Domain.DLS.get scratch_key in
  reserve sc (Array.length f.f_items);
  let first = count g and tally = { emitted = 0; dups = 0; rows = 0 } in
  f2_rows f (lazy (seen g)) g.growth sc.enc sc.srt tally rows;
  for sid = first to count g - 1 do
    on_new sid
  done;
  Obs.Counter.add m_materialized tally.emitted;
  Obs.Counter.add m_form2 tally.emitted;
  Obs.Counter.add m_dedup tally.dups;
  Obs.Counter.add m_mrows tally.rows

let pp_gpred ppf = function
  | P_ord { attr; c1; c2 } -> Format.fprintf ppf "ord(%d: %d<%d)" attr c1 c2
  | P_te { attr; op; value } ->
      Format.fprintf ppf "te[%d] %a %a" attr Ar.pp_op op Value.pp value

let pp_step ppf s =
  if s.sid >= 0 then Format.fprintf ppf "@[<h>#%d[%s] " s.sid s.rule_name
  else Format.fprintf ppf "@[<h>#-[%s] " s.rule_name;
  (match s.preds with
  | [] -> Format.pp_print_string ppf "true"
  | preds ->
      List.iteri
        (fun i p ->
          if i > 0 then Format.fprintf ppf " & ";
          pp_gpred ppf p)
        preds);
  Format.fprintf ppf " => ";
  (match s.action with
  | Add_order { attr; c1; c2 } -> Format.fprintf ppf "order(%d: %d<%d)" attr c1 c2
  | Refresh attr -> Format.fprintf ppf "refresh(%d)" attr
  | Assign { attr; value } -> Format.fprintf ppf "te[%d] := %a" attr Value.pp value);
  Format.fprintf ppf "@]"
