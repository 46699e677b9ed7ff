module Ground = Rules.Ground
module Plan = Rules.Plan
module Master_index = Rules.Master_index
module Itbl = Hashtbl.Make (Int)

(* The watch tables key by Ground's packed predicate words — the
   [P_ord] word of an order edge, the [P_te] equality word of a fill —
   so an event rebuilds its key from machine ints ({!Plan.ord_key},
   {!Plan.te_eq_key}) and probes one int-keyed table. Entries are
   prepended: a key's list holds its slots in reverse registration
   order, the order the satisfy cascade has always used. *)
let watch tbl key entry =
  Itbl.replace tbl key
    (entry :: (match Itbl.find_opt tbl key with Some l -> l | None -> []))

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

(* A template-attribute watcher, compiled at [compile] time against
   the specification's intern table. Inequality constraints
   specialize to a single comparison of interned ids (sound because
   the intern table dedups by [Value.equal], exactly [eval_op Eq]'s
   notion of equality, and the fill's id comes from the same table
   via the [Te_set] event); the ordered operators keep a structural
   closure over the expected value. Equalities — the overwhelming
   majority, every form-(2) residue and every axiom φ8 step — are not
   watchers at all: they sit in a table keyed by (attribute, expected
   id), so a fill reaches exactly the slots it satisfies. A fill that
   misses an equality slot leaves it unsatisfied for good ([te] is
   write-once), so its step can never fire and needs no kill. *)
type te_watcher = {
  w_sid : int;
  w_slot : int;
  w_test : int -> Relational.Value.t -> bool;
      (* interned id of the fill, then the fill itself *)
}

let te_test intern op eid =
  match (op : Rules.Ar.op) with
  | Rules.Ar.Eq -> fun vid _ -> vid = eid
  | Rules.Ar.Neq -> fun vid _ -> vid <> eid
  | op ->
      let expected = Relational.Intern.value intern eid in
      fun _ w -> Rules.Ar.eval_op op w expected

(* Axiom φ8 grounds to [te[A] = t2[A] ∧ te[A] ≠ null]: n² steps per
   attribute on an entity of n tuples, each carrying an implied slot.
   A non-null equality on [te[A]] implies the [≠ null] test on the
   same attribute, so that slot is {e folded}: satisfied from the
   start, with no watcher, no decrement and no undo entry. The fold
   lives only in run state — Γ, provenance and traces keep the slot.
   [iter_folded g sid ~fold ~other] walks step [sid]'s residuals as
   packed words, calling [fold slot] on each folded slot and
   [other slot w] on every other residual (a [P_te] word against null
   carries {!Relational.Intern.null_id}). *)
let iter_folded g sid ~fold ~other =
  let eq_attrs = ref [] and not_null = ref [] in
  Ground.iter_pred_words g sid (fun slot w ->
      if Plan.unpack_tag w = Plan.tag_ord then other slot w
      else
        match Plan.unpack_op w with
        | Rules.Ar.Neq when Plan.unpack_y w = null_id ->
            not_null := (slot, w) :: !not_null
        | Rules.Ar.Eq when Plan.unpack_y w <> null_id ->
            eq_attrs := Plan.unpack_attr w :: !eq_attrs;
            other slot w
        | _ -> other slot w);
  List.iter
    (fun (slot, w) ->
      if List.mem (Plan.unpack_attr w) !eq_attrs then fold slot else other slot w)
    (List.rev !not_null)

(* The compiled form keeps everything immutable across runs, built
   straight from the flat form of Γ: the slot space and the Φ_δ watch
   tables. [step] records are only decoded on demand, for provenance
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
  ord_watch : (int * int) list Itbl.t; (* P_ord word -> slots *)
  te_eq : (int * int) list Itbl.t; (* P_te equality word -> slots *)
  te_watch : te_watcher list array; (* by attribute: Neq and ordered ops *)
  tpl_watch : int list array; (* by join te-attribute: template ids it can wake *)
  grows : bool; (* Γ has templates *)
}

let compile spec =
  (* The value-class numbering is a pure function of the entity
     relation, cached on the specification; class ids therefore
     agree with every future run's orders without building a
     throwaway instance here. *)
  let intern = Specification.intern spec in
  let gamma =
    Ground.instantiate ~intern
      ~ruleset:(Specification.ruleset spec)
      ~entity:(Specification.entity spec)
      ~master:(Specification.master_index spec)
      ~orders:(Specification.numbering spec)
      ()
  in
  let n = Ground.count gamma in
  let slot_base = Array.make n 0 in
  let total = ref 0 in
  for sid = 0 to n - 1 do
    slot_base.(sid) <- !total;
    total := !total + Ground.pred_count gamma sid
  done;
  let arity = Relational.Schema.arity (Specification.schema spec) in
  let ord_acc = Itbl.create 256
  and te_eq = Itbl.create 64
  and te_acc = Array.make arity [] in
  let sat0 = Bytes.make !total '\000' in
  let remaining0 = Array.init n (Ground.pred_count gamma) in
  for sid = 0 to n - 1 do
    iter_folded gamma sid
      ~fold:(fun slot ->
        Bytes.set sat0 (slot_base.(sid) + slot) '\001';
        remaining0.(sid) <- remaining0.(sid) - 1)
      ~other:(fun slot w ->
        if Plan.unpack_tag w = Plan.tag_ord then watch ord_acc w (sid, slot)
        else
          match Plan.unpack_op w with
          | Rules.Ar.Eq ->
              (* An equality against null never holds ([te] is only
                 assigned non-null values), so it gets no entry. *)
              if Plan.unpack_y w <> null_id then watch te_eq w (sid, slot)
          | op ->
              let attr = Plan.unpack_attr w in
              te_acc.(attr) <-
                { w_sid = sid; w_slot = slot; w_test = te_test intern op (Plan.unpack_y w) }
                :: te_acc.(attr))
  done;
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
    ord_watch = ord_acc;
    te_eq;
    te_watch = te_acc;
    tpl_watch;
    grows = Array.length templates > 0;
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
   Watchers of materialized steps live in the per-run
   [x_ord]/[x_eq]/[x_te] side tables (the compiled watch tables are
   shared), and [probed] marks join keys already taken to the master
   index so every (value, template) pair materializes at most once per
   run — rollback keeps materialized steps, only their
   trial-dependent slot state is undone. *)
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
  probed : unit Itbl.t; (* (vid lsl 12) lor template id *)
  x_ord : (int * int) list Itbl.t;
  x_eq : (int * int) list Itbl.t;
  x_te : te_watcher list array; (* by attribute *)
  mutable base_inst : Instance.t option;
      (* a frozen copy of the kept state trials start from, for
         evaluating a materialized step's residuals into un-logged
         (base) vs logged (trial) state — see [attach_step]; [None]
         outside trials on a Γ with templates *)
  mutable fired : int; (* steps enforced, for [Exhausted] *)
  mutable charged : int;
      (* steps of [g] already charged as instantiations; a budgeted
         drain charges the growth past it *)
  mutable logging : bool;
  mutable log : undo list;
}

let record st u = if st.logging then st.log <- u :: st.log

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
      x_ord = Itbl.create (if grows then 32 else 1);
      x_eq = Itbl.create (if grows then 32 else 1);
      x_te = Array.make (Array.length c.te_watch) [];
      base_inst = None;
      fired = 0;
      charged = n;
      logging = false;
      log = [];
    }
  in
  for sid = 0 to n - 1 do
    if st.remaining.(sid) = 0 then begin
      Bytes.set st.queued sid '\001';
      Queue.add sid st.queue
    end
  done;
  (* The initial worklist — typically every axiom step — is often the
     queue's true peak; [enqueue_if_ready] alone would miss it. *)
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
  iter_folded st.g sid
    ~fold:(fun slot ->
      Bytes.set st.sat (flat0 + slot) '\001';
      st.remaining.(sid) <- st.remaining.(sid) - 1)
    ~other:(fun slot w ->
      let attr = Plan.unpack_attr w in
      if Plan.unpack_tag w = Plan.tag_ord then begin
        let c1 = Plan.unpack_x w and c2 = Plan.unpack_y w in
        if Ordering.Attr_order.lt_classes (Instance.order base attr) c1 c2 then
          sat_slot ~logged:false slot
        else begin
          watch st.x_ord w (sid, slot);
          if
            live_differs
            && Ordering.Attr_order.lt_classes (Instance.order inst attr) c1 c2
          then sat_slot ~logged:true slot
        end
      end
      else begin
        let op = Plan.unpack_op w and eid = Plan.unpack_y w in
        let test = te_test intern op eid in
        let bv = Instance.te_value base attr in
        if not (Relational.Value.is_null bv) then begin
          (* te is write-once: the base decides this slot for good. *)
          if test (Instance.te_id base attr) bv then sat_slot ~logged:false slot
          else kill ~logged:false
        end
        else begin
          (match op with
          | Rules.Ar.Eq -> if eid <> null_id then watch st.x_eq w (sid, slot)
          | _ ->
              st.x_te.(attr) <-
                { w_sid = sid; w_slot = slot; w_test = test } :: st.x_te.(attr));
          if live_differs then begin
            let lv = Instance.te_value inst attr in
            if not (Relational.Value.is_null lv) then
              if test (Instance.te_id inst attr) lv then sat_slot ~logged:true slot
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
          let key = (vid lsl 12) lor tid in
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

let handle_event st inst event =
  match event with
  | Instance.Edge { attr; c1; c2 } ->
      let key = Plan.ord_key ~attr ~c1 ~c2 in
      (match Itbl.find_opt st.c.ord_watch key with
      | None -> ()
      | Some l -> List.iter (fun (sid, slot) -> satisfy st sid slot) l);
      (match Itbl.find_opt st.x_ord key with
      | None -> ()
      | Some l -> List.iter (fun (sid, slot) -> satisfy st sid slot) l)
  | Instance.Te_set { attr; value; vid } ->
      let hit (sid, slot) = satisfy st sid slot in
      let key = Plan.te_eq_key ~attr ~vid in
      (match Itbl.find_opt st.c.te_eq key with
      | None -> ()
      | Some l -> List.iter hit l);
      (match Itbl.find_opt st.x_eq key with
      | None -> ()
      | Some l -> List.iter hit l);
      let fire { w_sid = sid; w_slot = slot; w_test } =
        if Bytes.get st.dead sid = '\000' then
          if w_test vid value then satisfy st sid slot
          else begin
            record st (U_dead sid);
            Bytes.set st.dead sid '\001'
            (* te is write-once: this step can never fire *)
          end
      in
      List.iter fire st.c.te_watch.(attr);
      (* Watchers attached during this very event's materialization
         are not in the list fetched here — their slots were already
         settled against the live instance at attach time. *)
      List.iter fire st.x_te.(attr);
      if st.c.grows then maybe_materialize st inst attr value vid

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
   ([run_budgeted] only), each fired step is charged, and so is each
   step materialized past [st.charged] (as an instantiation);
   exhaustion raises [Out_of_budget]. *)
let drain ?trace ?budget st inst =
  let charge = function Some trip -> raise (Out_of_budget trip) | None -> () in
  let rec go () =
    (match budget with
    | Some b ->
        let grown = Ground.count st.g - st.charged in
        if grown > 0 then begin
          st.charged <- st.charged + grown;
          charge (Robust.Budget.charge_instantiations b grown)
        end
    | None -> ());
    match Queue.take_opt st.queue with
    | None -> Church_rosser inst
    | Some sid when Bytes.get st.dead sid = '\001' -> go ()
    | Some sid -> (
        (match budget with Some b -> charge (Robust.Budget.step b) | None -> ());
        st.fired <- st.fired + 1;
        Obs.Counter.incr m_fired;
        match Instance.apply inst (Ground.action st.g sid) with
        | Instance.Unchanged -> go ()
        | Instance.Changed events ->
            Obs.Counter.incr m_changed;
            (match trace with Some f -> f (Ground.step st.g sid) | None -> ());
            List.iter (fun e -> record st (U_event e)) events;
            List.iter (handle_event st inst) events;
            go ()
        | Instance.Invalid { reason; applied } ->
            Obs.Counter.incr m_conflicts;
            List.iter (fun e -> record st (U_event e)) applied;
            Not_church_rosser { rule = Ground.rule_name st.g sid; reason })
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

type budgeted =
  | Verdict of verdict
  | Exhausted of { partial : Instance.t; fired : int; trip : Robust.Error.trip }

let run_budgeted ?trace ?template ~budget c =
  let inst, st = prepare ?template c in
  match Robust.Budget.charge_instantiations budget st.charged with
  | Some trip -> Exhausted { partial = inst; fired = 0; trip }
  | None -> (
      match drain ?trace ~budget st inst with
      | verdict -> Verdict verdict
      | exception Out_of_budget trip -> Exhausted { partial = inst; fired = st.fired; trip })

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
   answers [false] without touching any state.

   A rejected trial also teaches the state a {e nogood}: a
   deletion-minimal subset of its fills that still conflicts. Kept
   fills only grow the state, so a nogood stays a conflict after them
   and every candidate whose fills include it is answered without a
   delta. A nogood is an array of (attribute, value) fills, ascending
   by attribute, filed under its first attribute and compared by
   [Value.equal] — the intern table's identity — so a trial neither
   interns nor hashes the candidate's values. *)
type state = {
  st : run_state;
  inst : Instance.t;
  mutable conflict : (string * string) option;
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

let start ?template c =
  let inst, st = prepare ?template c in
  let null_base =
    Array.for_all Relational.Value.is_null
      (match template with Some tpl -> tpl | None -> Specification.template c.cspec)
  in
  let conflict =
    match drain st inst with
    | Church_rosser _ -> None
    | Not_church_rosser { rule; reason } -> Some (rule, reason)
  in
  let forced = Instance.te inst in
  {
    st;
    inst;
    conflict;
    forced;
    open_attrs = Instance.null_attrs inst;
    based = false;
    null_base;
    nogoods = Array.make (Array.length forced) [];
  }

let conflict s = s.conflict

let null_base ?state c =
  match state with
  | None ->
      let arity = Relational.Schema.arity (Specification.schema c.cspec) in
      lazy (start ~template:(Array.make arity Relational.Value.Null) c)
  | Some s ->
      if s.st.c != c then invalid_arg "Is_cr.null_base: a state of another compiled specification";
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
