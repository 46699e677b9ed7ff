module Ground = Rules.Ground
module Plan = Rules.Plan
module Master_index = Rules.Master_index
module Itbl = Hashtbl.Make (Int)

let null_id = Relational.Intern.null_id

(* Observability: the Fig. 4 loop's cost drivers. Each mutation is a
   single flag-check branch when collection is disabled (see Obs). *)
let m_fired = Obs.Counter.make ~help:"chase steps dequeued and applied" "chase_steps_fired_total"
let m_changed = Obs.Counter.make ~help:"chase steps that changed the instance" "chase_steps_changed_total"
let m_decr = Obs.Counter.make ~help:"n_phi predicate-counter decrements" "chase_pred_decrements_total"
let m_conflicts = Obs.Counter.make ~help:"order conflicts (not Church-Rosser)" "chase_conflicts_total"
let m_qhwm = Obs.Gauge.make ~help:"worklist Q length high-water mark" "chase_queue_hwm"
let m_snapshots = Obs.Counter.make ~help:"candidate-independent base fixpoints built" "chase_snapshot_builds_total"
let m_delta =
  Obs.Counter.make
    ~help:"candidate checks answered by a snapshot: a forced value, a stored nogood or a delta"
    "chase_delta_checks_total"
let m_learned = Obs.Counter.make ~help:"nogoods learned from rejected candidates" "chase_nogoods_learned_total"
let m_hits = Obs.Counter.make ~help:"candidate checks answered by a stored nogood" "chase_nogood_hits_total"
let m_probes = Obs.Counter.make ~help:"partial deltas run while learning nogoods" "chase_nogood_probes_total"
let m_index_hits = Obs.Counter.make ~help:"join-key probes of the master residual index that matched rows" "residual_index_hits_total"

type verdict =
  | Church_rosser of Instance.t
  | Not_church_rosser of { rule : string; reason : string }

(* The watch index: a packed key word -> the (step, slot) entries
   registered under it, newest first, so a key's slots come out in
   reverse registration order, the order the satisfy cascade has
   always used. Three kinds of key share one table:
   - the [P_ord] word of an order edge;
   - the [P_te] equality word of a fill ([te\[A\] = v], [v] non-null).
     Equalities, every form-(2) residue among them, are keyed by
     value, so a fill reaches exactly the slots it
     satisfies; a fill that misses one leaves it unsatisfied for good
     ([te] is write-once), so its step can never fire and needs no
     kill;
   - {!te_watch_key}[ attr] for the other [P_te] slots on [attr]
     ([≠] and the ordered operators), each tested against every fill
     of [attr] ({!te_holds}).
   An event rebuilds its key from machine ints ({!Plan.ord_key},
   {!Plan.te_eq_key}) and walks one chain.

   Keys sit in an open-addressing table ([-1] empty, no word is
   negative) beside the head of their chain, and an entry is its
   index into three parallel int arrays: the entry before it in its
   chain ([-1] for none), its sid and its slot. Separate arrays stay
   small enough for the minor heap on a typical entity. The compiled
   index is built once per entity and only read afterwards; a run's
   side index for materialized steps grows through the same [add]. *)
module Watch = struct
  type t = {
    mutable keys : int array; (* open addressing, -1 empty *)
    mutable heads : int array; (* per key slot: newest entry, -1 *)
    mutable nkeys : int;
    mutable next : int array; (* per entry: the entry before it, -1 *)
    mutable sids : int array;
    mutable slots : int array;
    mutable n : int;
  }

  (* Linear probing, power-of-two capacity, at most 3/4 full. *)
  let full keys cap = 4 * keys > 3 * cap

  let create ~keys ~entries =
    let cap = ref 4 in
    while full keys !cap do
      cap := 2 * !cap
    done;
    {
      keys = Array.make !cap (-1);
      heads = Array.make !cap (-1);
      nkeys = 0;
      next = Array.make entries 0;
      sids = Array.make entries 0;
      slots = Array.make entries 0;
      n = 0;
    }

  let hash k =
    let h = k * 0x27d4eb2f165667c5 in
    h lxor (h lsr 29)

  (* The slot holding [k], or the empty slot where it would go. *)
  let rec find (keys : int array) mask k i =
    let x = Array.unsafe_get keys i in
    if x = k || x = -1 then i else find keys mask k ((i + 1) land mask)

  let slot_of t k =
    let mask = Array.length t.keys - 1 in
    find t.keys mask k (hash k land mask)

  (* The newest entry under [k], or [-1]. *)
  let head t k = if t.nkeys = 0 then -1 else t.heads.(slot_of t k)

  let grow t =
    let keys = t.keys and heads = t.heads in
    t.keys <- Array.make (2 * Array.length keys) (-1);
    t.heads <- Array.make (2 * Array.length keys) (-1);
    Array.iteri
      (fun i k ->
        if k <> -1 then begin
          let j = slot_of t k in
          t.keys.(j) <- k;
          t.heads.(j) <- heads.(i)
        end)
      keys

  let add t k sid slot =
    if full (t.nkeys + 1) (Array.length t.keys) then grow t;
    let i = slot_of t k in
    if t.keys.(i) = -1 then begin
      t.keys.(i) <- k;
      t.nkeys <- t.nkeys + 1
    end;
    let e = t.n in
    if e = Array.length t.next then begin
      let cap = max 8 (2 * e) in
      let resize a =
        let b = Array.make cap 0 in
        Array.blit a 0 b 0 e;
        b
      in
      t.next <- resize t.next;
      t.sids <- resize t.sids;
      t.slots <- resize t.slots
    end;
    t.next.(e) <- t.heads.(i);
    t.sids.(e) <- sid;
    t.slots.(e) <- slot;
    t.heads.(i) <- e;
    t.n <- e + 1
end

(* The key of the non-equality [P_te] slots on [attr]: tag 7 lies
   above every tag {!Plan} packs, so no predicate word equals it. *)
let te_watch_key attr = Plan.pack ~tag:7 ~attr ~x:0 ~y:0

(* Whether a fill of [te\[attr\]] with value [v], interned as [vid],
   satisfies the [P_te] word [w] on [attr]. Equality and inequality
   compare ids (sound because the intern table dedups by
   [Value.equal], exactly [eval_op Eq]'s notion of equality, and the
   fill's id comes from the same table via the [Te_set] event); the
   ordered operators compare the fill with the decoded constant. *)
let te_holds intern w vid v =
  let eid = Plan.unpack_y w in
  match Plan.unpack_op w with
  | Rules.Ar.Eq -> vid = eid
  | Rules.Ar.Neq -> vid <> eid
  | op -> Rules.Ar.eval_op op v (Relational.Intern.value intern eid)

(* A step that tests [te[A] = v] with [v] non-null and also
   [te[A] ≠ null] (axiom φ8's shape, which user rules can share) has
   an implied slot: the equality implies the [≠ null] test on the
   same attribute, so that slot is {e folded}: satisfied from the
   start, with no watcher, no decrement and no undo entry. The fold
   lives only in run state — Γ, provenance and traces keep the slot.
   φ8 itself has no ground step in the engine's Γ: the run applies it
   on each fill (see [phi8]). *)
let attr_bits = Plan.pack ~tag:0 ~attr:(Plan.max_attr - 1) ~x:0 ~y:0
let y_bits = Plan.max_xy - 1

(* [te[_] ≠ null]: the word with its attribute field cleared. *)
let not_null_word = Plan.pack ~tag:Plan.tag_te ~attr:0 ~x:(Plan.op_tag Rules.Ar.Neq) ~y:null_id
let not_null w = w land lnot attr_bits = not_null_word

(* Whether step [sid] has a slot [te[attr] = v], [v] non-null: its
   word with the value field cleared is [eq], the value field is not
   [null_id]. *)
let rec eq_on g sid eq slot np =
  slot < np
  && (let w = Ground.pred_word g sid slot in
      (w land lnot y_bits = eq && w land y_bits <> null_id) || eq_on g sid eq (slot + 1) np)

(* Whether residual [w] of step [sid] ([np] slots) is folded. *)
let folded g sid np w =
  not_null w
  && eq_on g sid
       (Plan.pack ~tag:Plan.tag_te ~attr:(Plan.unpack_attr w) ~x:(Plan.op_tag Rules.Ar.Eq) ~y:0)
       0 np

(* The key an unfolded residual [w] is watched under, or [-1] for an
   equality against null, which never holds ([te] is only assigned
   non-null values) and so needs no entry. *)
let watch_key w =
  if Plan.unpack_tag w = Plan.tag_ord then w
  else if Plan.unpack_op w <> Rules.Ar.Eq then te_watch_key (Plan.unpack_attr w)
  else if Plan.unpack_y w <> null_id then w
  else -1

(* Step [sid]'s residuals as packed words: [fold sid slot] on each
   folded slot and [other sid slot w] on every other residual (a [P_te]
   word against null carries {!Relational.Intern.null_id}). Slots are
   met in slot order, except that the unfolded [≠ null] slots come
   last: the registration order of every watch chain. *)
let iter_residuals g sid ~fold ~other =
  let np = Ground.pred_count g sid in
  for slot = 0 to np - 1 do
    let w = Ground.pred_word g sid slot in
    if not (not_null w) then other sid slot w
  done;
  for slot = 0 to np - 1 do
    let w = Ground.pred_word g sid slot in
    if not_null w then if folded g sid np w then fold sid slot else other sid slot w
  done

(* The compiled form keeps everything immutable across runs, built
   straight from the flat form of Γ: the slot space and the Φ_δ watch
   index. [step] records are only decoded on demand, for provenance
   traces — the compile/clean path never builds them. A run only
   allocates the per-step remaining counters, the per-predicate
   satisfied flags, and the worklist. *)
type compiled = {
  cspec : Specification.t;
  gamma : Ground.t; (* the prefix and templates; never grown itself *)
  slot_base : int array; (* step -> offset into the flat slot space *)
  total_slots : int;
  sat0 : Bytes.t; (* initial slot state: the folded slots set *)
  remaining0 : int array; (* initial per-step counters, folds applied *)
  watch : Watch.t; (* key word -> slots; read only *)
  tpl_watch : int list array; (* by join te-attribute: template ids it can wake *)
  grows : bool; (* Γ has templates *)
  axioms : bool; (* the ruleset has φ7–φ9, which the run applies itself *)
}

let compile spec =
  (* The value-class numbering is a pure function of the entity
     relation, cached on the specification; class ids therefore
     agree with every future run's orders without building a
     throwaway instance here. *)
  let gamma =
    Ground.instantiate ~intern:(Specification.intern spec)
      ~ruleset:(Specification.ruleset spec)
      ~entity:(Specification.entity spec)
      ~master:(Specification.master_index spec)
      ~orders:(Specification.numbering spec)
      ()
  in
  let n = Ground.count gamma in
  let slot_base = Array.make n 0 and remaining0 = Array.make n 0 in
  let total = ref 0 and entries = ref 0 in
  for sid = 0 to n - 1 do
    let np = Ground.pred_count gamma sid in
    slot_base.(sid) <- !total;
    remaining0.(sid) <- np;
    total := !total + np;
    for slot = 0 to np - 1 do
      let w = Ground.pred_word gamma sid slot in
      if watch_key w >= 0 && not (folded gamma sid np w) then incr entries
    done
  done;
  let sat0 = Bytes.make !total '\000' in
  (* Sized to the entries it will hold; on Med, a key holds about
     three. *)
  let watch = Watch.create ~keys:(!entries / 2) ~entries:!entries in
  let fold sid slot =
    Bytes.unsafe_set sat0 (slot_base.(sid) + slot) '\001';
    remaining0.(sid) <- remaining0.(sid) - 1
  and other sid slot w =
    let key = watch_key w in
    if key >= 0 then Watch.add watch key sid slot
  in
  for sid = 0 to n - 1 do
    iter_residuals gamma sid ~fold ~other
  done;
  let arity = Relational.Schema.arity (Specification.schema spec) in
  let templates = Ground.templates gamma in
  let tpl_watch = Array.make arity [] in
  Array.iter
    (fun t ->
      let a = Ground.template_join_attr t in
      tpl_watch.(a) <- Ground.template_id t :: tpl_watch.(a))
    templates;
  {
    cspec = spec;
    gamma;
    slot_base;
    total_slots = !total;
    sat0;
    remaining0;
    watch;
    tpl_watch;
    grows = Array.length templates > 0;
    axioms = Rules.Ruleset.axioms (Specification.ruleset spec) <> [];
  }

let compiled_spec c = c.cspec
let compiled_template_count c = Array.length (Ground.templates c.gamma)

(* One reversal record of the undo log. Rollback is order-
   independent: each entry resets one monotone bit (or counter tick)
   to its pre-trial state, and no two entries target the same bit —
   [satisfy] and the dead/queued transitions each fire at most once
   per slot/step, and [Instance.undo_event] is sound for any order
   (see its contract). *)
type undo =
  | U_slot of { flat : int; sid : int }  (** un-satisfy one predicate slot *)
  | U_dead of int  (** revive a step killed by a te mismatch *)
  | U_queued of int  (** clear a queued flag set during the trial *)
  | U_event of Instance.event  (** reverse an instance mutation *)

(* Mutable per-run state. [logging] turns the undo log on for trial
   checks; plain runs and kept fills never pay more than the flag
   check.

   The state is {e growable}: the run's Γ is a private fork of the
   compiled one, and steps materialized from its templates extend the
   sid numbering densely, so the step arrays and the flat slot space
   grow in lockstep while the shared [compiled] stays immutable.
   Watchers of materialized steps live in the per-run side index
   [x_watch] (the compiled index is shared), and [probed] marks join
   keys already taken to the master index so every (value, template)
   pair materializes at most once per run — rollback keeps
   materialized steps, only their trial-dependent slot state is
   undone. *)
type run_state = {
  c : compiled;
  g : Ground.t; (* c.gamma, forked: grows by materialization *)
  mutable remaining : int array;
  mutable slot_base : int array; (* = c.slot_base until a step attaches *)
  mutable nslots : int;
  mutable sat : Bytes.t;
  mutable dead : Bytes.t;
  mutable queued : Bytes.t;
  queue : int Queue.t;
  probed : unit Itbl.t; (* vid * |templates| + template id *)
  x_watch : Watch.t;
  mutable base_inst : Instance.t option;
      (* a frozen copy of the kept state trials start from, for
         evaluating a materialized step's residuals into un-logged
         (base) vs logged (trial) state — see [attach_step]; [None]
         outside trials on a Γ with templates *)
  mutable fired : int; (* steps enforced, for an exhausted start *)
  mutable logging : bool;
  mutable log : undo list;
}

let record st u = if st.logging then st.log <- u :: st.log

(* ------------------------------------------------------------------ *)
(* The axioms, applied by the run                                     *)
(* ------------------------------------------------------------------ *)

(* Γ holds no step of the axioms φ7–φ9 (DESIGN.md §29): the run
   queues their steps itself, each where the worklist met its ground
   step, so the effective steps come in the reference order.

   - φ7 [t1\[A\] = null ∧ t2\[A\] ≠ null → t1 ⪯_A t2]: at the start,
     the null class of A below each other class, in class order;
   - φ9 [t1\[A\] = t2\[A\] → t1 ⪯_A t2]: at the start, after A's φ7
     steps, one λ refresh of A;
   - φ8 [t2\[A\] = te\[A\] ∧ te\[A\] ≠ null → t1 ⪯_A t2]: when a fill
     gives [te\[A\]] the value of class [c], every class of A below
     [c] ([c] itself is a refresh), in reverse class order, after the
     user steps that wait on the same fill.

   A worklist entry [e ≥ 0] is a sid of Γ. An axiom step is
   [lnot code]: its packed action word shifted left once, with the low
   bit set for φ8 (φ7 steps add orders and φ9 steps refresh, so the
   tag tells those two apart). A φ8 refresh keeps its class in the
   word's [y] field. *)
let axiom_entry ~phi8 word = lnot ((word lsl 1) lor Bool.to_int phi8)

let axiom_action e =
  let w = lnot e lsr 1 in
  let attr = Plan.unpack_attr w in
  if Plan.unpack_tag w = Plan.tag_refresh then Ground.Refresh attr
  else Ground.Add_order { attr; c1 = Plan.unpack_x w; c2 = Plan.unpack_y w }

(* The class of [attr] whose value is interned as [vid], or [-1]. *)
let class_of (vids : int array) vid =
  let rec go c = if c = Array.length vids then -1 else if vids.(c) = vid then c else go (c + 1) in
  go 0

let is_phi8 e = lnot e land 1 = 1

(* The rule of an entry. Axioms lead the plan's rules, φ7, φ8 and φ9
   for each attribute in turn ({!Rules.Axioms.all}). *)
let entry_rule c g e =
  if e >= 0 then Ground.rule_name g e
  else
    let w = lnot e lsr 1 in
    let k = if is_phi8 e then 1 else if Plan.unpack_tag w = Plan.tag_refresh then 2 else 0 in
    Rules.Ar.name
      (Plan.rules (Rules.Ruleset.plan (Specification.ruleset c.cspec))).((3 * Plan.unpack_attr w) + k)

(* The step record of an entry, for traces; an axiom step has sid -1
   and the residuals its ground step would carry. *)
let entry_step c g e =
  if e >= 0 then Ground.step g e
  else
    let w = lnot e lsr 1 and phi8 = is_phi8 e in
    let attr = Plan.unpack_attr w in
    let preds =
      if phi8 then
        let vid = (Ground.class_vids g).(attr).(Plan.unpack_y w) in
        let intern = Specification.intern c.cspec in
        [
          Ground.P_te { attr; op = Rules.Ar.Eq; value = Relational.Intern.value intern vid };
          Ground.P_te { attr; op = Rules.Ar.Neq; value = Relational.Value.Null };
        ]
      else []
    in
    { Ground.sid = -1; rule_name = entry_rule c g e; preds; action = axiom_action e }

let fresh_state c =
  let n = Ground.count c.gamma in
  let grows = c.grows in
  let st =
    {
      c;
      g = Ground.fork c.gamma;
      remaining = Array.copy c.remaining0;
      slot_base = c.slot_base;
      nslots = c.total_slots;
      sat = Bytes.copy c.sat0;
      dead = Bytes.make n '\000';
      queued = Bytes.make n '\000';
      queue = Queue.create ();
      probed = Itbl.create (if grows then 64 else 1);
      x_watch = Watch.create ~keys:0 ~entries:0;
      base_inst = None;
      fired = 0;
      logging = false;
      log = [];
    }
  in
  if c.axioms then
    Array.iteri
      (fun attr vids ->
        let null_class = class_of vids null_id in
        if null_class >= 0 then
          Array.iteri
            (fun cls _ ->
              if cls <> null_class then
                Queue.add
                  (axiom_entry ~phi8:false (Plan.pack ~tag:Plan.tag_add ~attr ~x:null_class ~y:cls))
                  st.queue)
            vids;
        if Array.length vids > 0 then
          Queue.add
            (axiom_entry ~phi8:false (Plan.pack ~tag:Plan.tag_refresh ~attr ~x:0 ~y:0))
            st.queue)
      (Ground.class_vids c.gamma);
  for sid = 0 to n - 1 do
    if st.remaining.(sid) = 0 then begin
      Bytes.set st.queued sid '\001';
      Queue.add sid st.queue
    end
  done;
  (* The initial worklist — typically every φ7 and φ9 step — is often
     the queue's true peak; [enqueue_if_ready] alone would miss it. *)
  Obs.Gauge.observe_max m_qhwm (float_of_int (Queue.length st.queue));
  st

let enqueue_if_ready st sid =
  if
    Bytes.get st.dead sid = '\000'
    && Bytes.get st.queued sid = '\000'
    && st.remaining.(sid) = 0
  then begin
    record st (U_queued sid);
    Bytes.set st.queued sid '\001';
    Queue.add sid st.queue;
    Obs.Gauge.observe_max m_qhwm (float_of_int (Queue.length st.queue))
  end

let satisfy st sid slot =
  let flat = st.slot_base.(sid) + slot in
  if Bytes.get st.dead sid = '\000' && Bytes.get st.sat flat = '\000' then begin
    record st (U_slot { flat; sid });
    Bytes.set st.sat flat '\001';
    st.remaining.(sid) <- st.remaining.(sid) - 1;
    Obs.Counter.incr m_decr;
    enqueue_if_ready st sid
  end

(* Grow the per-step arrays (in lockstep) and the flat slot space.
   Sids are never reused, so the zero-fill of fresh capacity is the
   correct initial state for every future step. Growth always
   reallocates, so the shared [c.slot_base] is never written. *)
let ensure_step_capacity st want =
  if want > Array.length st.remaining then begin
    let cap = max want (2 * max 16 (Array.length st.remaining)) in
    let n = Array.length st.remaining in
    let g = Array.make cap 0 in
    Array.blit st.remaining 0 g 0 n;
    st.remaining <- g;
    let g = Array.make cap 0 in
    Array.blit st.slot_base 0 g 0 n;
    st.slot_base <- g;
    let b = Bytes.make cap '\000' in
    Bytes.blit st.dead 0 b 0 n;
    st.dead <- b;
    let b = Bytes.make cap '\000' in
    Bytes.blit st.queued 0 b 0 n;
    st.queued <- b
  end

let ensure_slot_capacity st want =
  if want > Bytes.length st.sat then begin
    let cap = max want (2 * max 64 (Bytes.length st.sat)) in
    let b = Bytes.make cap '\000' in
    Bytes.blit st.sat 0 b 0 st.nslots;
    st.sat <- b
  end

(* Attach one just-materialized step to the run. Its slot block is
   appended and each residual is decided three-way:

   - holds/fails at the {e trial base} — settle it un-logged. The
     step conceptually existed (un-fired) at the kept state, so this
     must survive rollback;
   - still open at base — register a watcher in the run's side
     tables; and if the {e live} (mid-trial) instance has since
     decided it, settle it logged, so rollback returns the step to
     exactly its base state while the watcher re-fires it on any
     later trial or kept fill.

   Outside trials base and live coincide and the logging flag is off,
   so both paths degenerate to plain evaluation against the current
   instance. *)
let attach_step st inst sid =
  let np = Ground.pred_count st.g sid in
  ensure_step_capacity st (sid + 1);
  ensure_slot_capacity st (st.nslots + np);
  let flat0 = st.nslots in
  st.slot_base.(sid) <- flat0;
  st.nslots <- flat0 + np;
  st.remaining.(sid) <- np;
  let base = match st.base_inst with Some b -> b | None -> inst in
  let live_differs = base != inst in
  let intern = Specification.intern st.c.cspec in
  let sat_slot ~logged slot =
    if Bytes.get st.dead sid = '\000' && Bytes.get st.sat (flat0 + slot) = '\000'
    then begin
      if logged then record st (U_slot { flat = flat0 + slot; sid });
      Bytes.set st.sat (flat0 + slot) '\001';
      st.remaining.(sid) <- st.remaining.(sid) - 1;
      Obs.Counter.incr m_decr
    end
  and kill ~logged =
    if Bytes.get st.dead sid = '\000' then begin
      if logged then record st (U_dead sid);
      Bytes.set st.dead sid '\001'
    end
  in
  iter_residuals st.g sid
    ~fold:(fun _ slot ->
      Bytes.set st.sat (flat0 + slot) '\001';
      st.remaining.(sid) <- st.remaining.(sid) - 1)
    ~other:(fun _ slot w ->
      let attr = Plan.unpack_attr w in
      if Plan.unpack_tag w = Plan.tag_ord then begin
        let c1 = Plan.unpack_x w and c2 = Plan.unpack_y w in
        if Ordering.Attr_order.lt_classes (Instance.order base attr) c1 c2 then
          sat_slot ~logged:false slot
        else begin
          Watch.add st.x_watch w sid slot;
          if
            live_differs
            && Ordering.Attr_order.lt_classes (Instance.order inst attr) c1 c2
          then sat_slot ~logged:true slot
        end
      end
      else begin
        let bv = Instance.te_value base attr in
        if not (Relational.Value.is_null bv) then begin
          (* te is write-once: the base decides this slot for good. *)
          if te_holds intern w (Instance.te_id base attr) bv then sat_slot ~logged:false slot
          else kill ~logged:false
        end
        else begin
          (let key = watch_key w in
           if key >= 0 then Watch.add st.x_watch key sid slot);
          if live_differs then begin
            let lv = Instance.te_value inst attr in
            if not (Relational.Value.is_null lv) then
              if te_holds intern w (Instance.te_id inst attr) lv then sat_slot ~logged:true slot
              else kill ~logged:true
          end
        end
      end);
  enqueue_if_ready st sid

(* A [te] write on a template's join attribute: probe the master
   value index for rows matching the written value and materialize
   their steps. [probed] caps the work at one probe per (value,
   template) per run — a re-play of the same fill after a rollback
   finds the steps already attached and reaches them through the
   side watch tables instead. *)
let maybe_materialize st inst attr value vid =
  match (st.c.tpl_watch.(attr), Specification.master_index st.c.cspec) with
  | [], _ | _, None -> ()
  | tids, Some midx ->
      let templates = Ground.templates st.g in
      List.iter
        (fun tid ->
          let key = (vid * Array.length templates) + tid in
          if not (Itbl.mem st.probed key) then begin
            Itbl.replace st.probed key ();
            match
              Master_index.rows midx
                ~col:(Ground.template_join_col templates.(tid))
                value
            with
            | [] -> ()
            | rows ->
                Obs.Counter.incr m_index_hits;
                Ground.materialize st.g ~rows tid ~on_new:(fun sid ->
                    attach_step st inst sid)
          end)
        tids

(* Every entry of [w]'s chain from [e] on: [satisfy] an equality
   slot; test a [te_watch_key] slot against the fill [vid]/[value]
   and satisfy it, or kill its step ([te] is write-once, so a step
   whose test fails can never fire). *)
let rec satisfy_chain st (w : Watch.t) e =
  if e >= 0 then begin
    satisfy st (Array.unsafe_get w.sids e) (Array.unsafe_get w.slots e);
    satisfy_chain st w (Array.unsafe_get w.next e)
  end

let rec test_chain st intern vid value (w : Watch.t) e =
  if e >= 0 then begin
    let sid = Array.unsafe_get w.sids e and slot = Array.unsafe_get w.slots e in
    if Bytes.get st.dead sid = '\000' then
      if te_holds intern (Ground.pred_word st.g sid slot) vid value then satisfy st sid slot
      else begin
        record st (U_dead sid);
        Bytes.set st.dead sid '\001'
      end;
    test_chain st intern vid value w (Array.unsafe_get w.next e)
  end

(* φ8 on the fill [te\[attr\] := v], [v] interned as [vid]. *)
let phi8 st attr vid =
  let vids = (Ground.class_vids st.g).(attr) in
  let c = class_of vids vid in
  if c >= 0 then begin
    for c1 = Array.length vids - 1 downto 0 do
      let word =
        if c1 = c then Plan.pack ~tag:Plan.tag_refresh ~attr ~x:0 ~y:c
        else Plan.pack ~tag:Plan.tag_add ~attr ~x:c1 ~y:c
      in
      Queue.add (axiom_entry ~phi8:true word) st.queue
    done;
    Obs.Gauge.observe_max m_qhwm (float_of_int (Queue.length st.queue))
  end

let handle_event st inst event =
  let c = st.c in
  match event with
  | Instance.Edge { attr; c1; c2 } ->
      let key = Plan.ord_key ~attr ~c1 ~c2 in
      satisfy_chain st c.watch (Watch.head c.watch key);
      satisfy_chain st st.x_watch (Watch.head st.x_watch key)
  | Instance.Te_set { attr; value; vid } ->
      let key = Plan.te_eq_key ~attr ~vid in
      satisfy_chain st c.watch (Watch.head c.watch key);
      if c.axioms then phi8 st attr vid;
      satisfy_chain st st.x_watch (Watch.head st.x_watch key);
      let key = te_watch_key attr and intern = Specification.intern c.cspec in
      test_chain st intern vid value c.watch (Watch.head c.watch key);
      (* Watchers attached during this very event's materialization
         are not reached here — their slots were already settled
         against the live instance at attach time. *)
      test_chain st intern vid value st.x_watch (Watch.head st.x_watch key);
      if c.grows then maybe_materialize st inst attr value vid

(* Reverse everything logged since [logging] was switched on,
   restoring the exact pre-trial state. The queue is simply cleared:
   trials only start from a fully drained kept state, so the
   pre-trial queue is empty. *)
let rollback st inst =
  List.iter
    (function
      | U_slot { flat; sid } ->
          Bytes.set st.sat flat '\000';
          st.remaining.(sid) <- st.remaining.(sid) + 1
      | U_dead sid -> Bytes.set st.dead sid '\000'
      | U_queued sid -> Bytes.set st.queued sid '\000'
      | U_event e -> Instance.undo_event inst e)
    st.log;
  st.log <- [];
  st.logging <- false;
  Queue.clear st.queue

(* Raised by a budgeted [drain] whose meter trips. The chase state is
   monotone, so whatever the drain reached is a sound partial. *)
exception Out_of_budget of Robust.Error.trip

(* Drain the worklist to a terminal or invalid state; shared by
   one-shot runs, [start], kept fills and trials. With a budget
   ([start] only), each fired step is charged one unit — a step that
   never fires costs nothing (DESIGN.md §30) — and exhaustion raises
   [Out_of_budget]. *)
let drain ?trace ?budget st inst =
  let rec go () =
    match Queue.take_opt st.queue with
    | None -> Church_rosser inst
    | Some e when e >= 0 && Bytes.get st.dead e = '\001' -> go ()
    | Some e -> (
        (match Option.bind budget Robust.Budget.step with
        | Some trip -> raise (Out_of_budget trip)
        | None -> ());
        st.fired <- st.fired + 1;
        Obs.Counter.incr m_fired;
        match Instance.apply inst (if e >= 0 then Ground.action st.g e else axiom_action e) with
        | Instance.Unchanged -> go ()
        | Instance.Changed events ->
            Obs.Counter.incr m_changed;
            (match trace with Some f -> f (entry_step st.c st.g e) | None -> ());
            List.iter (fun e -> record st (U_event e)) events;
            List.iter (handle_event st inst) events;
            go ()
        | Instance.Invalid { reason; applied } ->
            Obs.Counter.incr m_conflicts;
            List.iter (fun e -> record st (U_event e)) applied;
            Not_church_rosser { rule = entry_rule st.c st.g e; reason })
  in
  go ()

let prepare ?template c =
  let spec =
    match template with
    | None -> c.cspec
    | Some tpl -> Specification.with_template c.cspec tpl
  in
  let inst = Instance.init spec in
  let st = fresh_state c in
  (* A non-null initial template (candidate checking) counts as
     pre-fired target events. *)
  Array.iteri
    (fun attr value ->
      if not (Relational.Value.is_null value) then
        handle_event st inst
          (Instance.Te_set { attr; value; vid = Instance.te_id inst attr }))
    (Instance.te inst);
  (inst, st)

let run_compiled ?trace ?template c =
  let inst, st = prepare ?template c in
  drain ?trace st inst

let run ?trace spec = run_compiled ?trace (compile spec)

let check c tuple =
  if Array.exists Relational.Value.is_null tuple then
    invalid_arg "Is_cr.check: candidate target has a null attribute";
  match run_compiled ~template:tuple c with
  | Church_rosser _ -> true
  | Not_church_rosser _ -> false

(* ------------------------------------------------------------------ *)
(* One resumable state: kept fills and trials                         *)
(* ------------------------------------------------------------------ *)

(* A state is one drained chase that later assignments resume. The
   chase is monotone — orders only grow, [te] is write-once and every
   predicate is monotone — so assigning [te] values and draining what
   they wake up reaches the fixpoint of a from-scratch run with the
   enlarged template. A {e kept} fill stays (the user fills of
   Fig. 3). A {e trial} fills every null attribute from a complete
   candidate under the undo log and rolls back, so one state answers
   any number of [check(t, S)] calls (§6).

   If the kept state itself conflicts, those conflicting steps fire
   under every larger template, so no candidate can pass: a trial
   answers [false] without touching any state. A start whose budget
   tripped stopped mid-drain, short of any fixpoint: it only reports
   its partial, and refuses to be resumed.

   A rejected trial also teaches the state a {e nogood}: a
   deletion-minimal subset of its fills that still conflicts. Kept
   fills only grow the state, so a nogood stays a conflict after them
   and every candidate whose fills include it is answered without a
   delta. A nogood is an array of (attribute, value) fills, ascending
   by attribute, filed under its first attribute and compared by
   [Value.equal] — the intern table's identity — so a trial neither
   interns nor hashes the candidate's values. *)
type exhausted = { partial : Instance.t; fired : int; trip : Robust.Error.trip }

type state = {
  st : run_state;
  inst : Instance.t;
  mutable conflict : (string * string) option;
  exhausted : exhausted option;
  mutable forced : Relational.Value.t array;
      (* te of the kept state: a candidate disagreeing with a non-null
         entry conflicts (or contradicts a kept fill) without a delta *)
  mutable open_attrs : int list; (* null in [forced], ascending: what a trial fills *)
  mutable based : bool; (* a trial has taken the kept state as its base *)
  mutable null_base : bool;
      (* started from the all-null template, no kept fill since: the
         base every top-k check resumes *)
  nogoods : (int * Relational.Value.t) array list array; (* by first attribute *)
}

let start ?trace ?budget ?template c =
  let inst, st = prepare ?template c in
  let null_base =
    Array.for_all Relational.Value.is_null
      (match template with Some tpl -> tpl | None -> Specification.template c.cspec)
  in
  let conflict, exhausted =
    match drain ?trace ?budget st inst with
    | Church_rosser _ -> (None, None)
    | Not_church_rosser { rule; reason } -> (Some (rule, reason), None)
    | exception Out_of_budget trip -> (None, Some { partial = inst; fired = st.fired; trip })
  in
  let forced = Instance.te inst in
  {
    st;
    inst;
    conflict;
    exhausted;
    forced;
    open_attrs = Instance.null_attrs inst;
    based = false;
    null_base;
    nogoods = Array.make (Array.length forced) [];
  }

let conflict s = s.conflict
let exhausted s = s.exhausted

let refuse_exhausted what s =
  match s.exhausted with
  | Some _ -> invalid_arg ("Is_cr." ^ what ^ ": the start exhausted its budget")
  | None -> ()

let null_base ?state c =
  match state with
  | None ->
      let arity = Relational.Schema.arity (Specification.schema c.cspec) in
      lazy (start ~template:(Array.make arity Relational.Value.Null) c)
  | Some s ->
      if s.st.c != c then invalid_arg "Is_cr.null_base: a state of another compiled specification";
      refuse_exhausted "null_base" s;
      if not s.null_base then
        invalid_arg "Is_cr.null_base: a state not started from the all-null template";
      Lazy.from_val s

let te s = Instance.te s.inst
let nogoods s = List.concat_map (List.map Array.to_list) (Array.to_list s.nogoods)

(* The one fill-apply loop: assign each item's value to its attribute
   and feed the events to the index. Stops at the first assignment
   that contradicts [te] and returns its reason; [None] when all
   applied. Under logging every applied event is recorded. *)
let assign st inst items ~attr ~value =
  let rec go = function
    | [] -> None
    | x :: rest -> (
        match Instance.apply inst (Ground.Assign { attr = attr x; value = value x }) with
        | Instance.Unchanged -> go rest
        | Instance.Changed events ->
            List.iter (fun e -> record st (U_event e)) events;
            List.iter (handle_event st inst) events;
            go rest
        | Instance.Invalid { reason; applied } ->
            List.iter (fun e -> record st (U_event e)) applied;
            Some reason)
  in
  go items

let fill s fills =
  if s.conflict <> None then invalid_arg "Is_cr.fill: the state conflicts";
  refuse_exhausted "fill" s;
  (* Validate the whole list first: a rejected list leaves no trace. *)
  List.iter
    (fun (attr, value) ->
      if attr < 0 || attr >= Array.length s.forced then
        invalid_arg "Is_cr.fill: attribute out of range";
      if Relational.Value.is_null value then invalid_arg "Is_cr.fill: cannot fill with null")
    fills;
  (* The kept state moves, so the frozen trial base goes: a step
     materialized later must settle against the new state. *)
  s.st.base_inst <- None;
  s.based <- false;
  s.null_base <- false;
  let verdict =
    match assign s.st s.inst fills ~attr:fst ~value:snd with
    | Some reason -> Not_church_rosser { rule = "user-fill"; reason }
    | None -> drain s.st s.inst
  in
  s.forced <- Instance.te s.inst;
  s.open_attrs <- Instance.null_attrs s.inst;
  match verdict with
  | Church_rosser _ -> Ok ()
  | Not_church_rosser { rule; reason } ->
      s.conflict <- Some (rule, reason);
      Error (rule, reason)

(* Whether a stored nogood lies inside the candidate. A nogood is
   filed under its first attribute, which the candidate fills, so
   looking under each fill finds it. *)
let covered s tuple =
  List.exists
    (fun a ->
      List.exists
        (Array.for_all (fun (b, v) -> Relational.Value.equal tuple.(b) v))
        s.nogoods.(a))
    s.open_attrs

(* Resume the kept state with the candidate's values on [attrs] (a
   subset of [s.open_attrs], ascending) as fills, drain, roll back:
   [true] iff no conflict. A partial delta leaves the other null
   attributes null. *)
let delta s tuple attrs =
  let st = s.st and inst = s.inst in
  st.logging <- true;
  st.log <- [];
  let out =
    Option.is_none (assign st inst attrs ~attr:Fun.id ~value:(Array.get tuple))
    && match drain st inst with Church_rosser _ -> true | Not_church_rosser _ -> false
  in
  rollback st inst;
  out

(* Learn a nogood from a candidate whose full delta (just run) conflicted
   and that no stored nogood covers. Deletion: drop each fill in turn
   and keep the drop when the remaining fills still conflict (a partial
   delta, one probe each); by monotonicity one pass leaves a
   deletion-minimal set. *)
let learn s tuple =
  let conflicts attrs =
    Obs.Counter.incr m_probes;
    not (delta s tuple attrs)
  in
  let rec shrink kept = function
    | [] -> List.rev kept
    | [ a ] when kept = [] -> [ a ] (* the empty fill is the kept state: no conflict *)
    | a :: rest ->
        if conflicts (List.rev_append kept rest) then shrink kept rest
        else shrink (a :: kept) rest
  in
  match shrink [] s.open_attrs with
  | [] -> assert false (* the kept state alone does not conflict *)
  | a :: _ as nogood ->
      Obs.Counter.incr m_learned;
      s.nogoods.(a) <- Array.of_list (List.map (fun b -> (b, tuple.(b))) nogood) :: s.nogoods.(a)

(* Forced-value fast path, stored nogoods, then the full delta (and
   learning when it conflicts). *)
let trial s tuple =
  if Array.exists Relational.Value.is_null tuple then
    invalid_arg "Is_cr.check: candidate target has a null attribute";
  refuse_exhausted "trial" s;
  if not s.based then begin
    s.based <- true;
    Obs.Counter.incr m_snapshots;
    (* Steps materialized during a trial settle their residuals as of
       the kept state (un-logged, surviving rollback), so freeze a copy
       to evaluate them against. Only a Γ with templates materializes. *)
    if s.conflict = None && s.st.c.grows then s.st.base_inst <- Some (Instance.copy s.inst)
  end;
  s.conflict = None
  && begin
       Obs.Counter.incr m_delta;
       if
         Array.exists2
           (fun forced cand ->
             (not (Relational.Value.is_null forced))
             && not (Relational.Value.equal forced cand))
           s.forced tuple
       then false
       else if covered s tuple then begin
         Obs.Counter.incr m_hits;
         false
       end
       else
         delta s tuple s.open_attrs
         || begin
              (match s.open_attrs with [] | [ _ ] -> () | _ -> learn s tuple);
              false
            end
     end
