module Value = Relational.Value
module Tuple = Relational.Tuple
module Relation = Relational.Relation

let m_updates = Obs.Counter.make ~help:"session updates applied" "session_updates_total"
let m_recleaned = Obs.Counter.make ~help:"entities re-cleaned by session updates" "session_recleaned_total"
let m_unaffected = Obs.Counter.make ~help:"entities proved unaffected by session updates" "session_unaffected_total"

type update =
  | Tuple_add of Tuple.t
  | Tuple_retract of int
  | Master_fix of { row : int; attr : int; value : Value.t }
  | Rule_add of Rules.Ar.t
  | Rule_retire of string

type delta_report = {
  d_touched : int;
  d_recleaned : int;
  d_rows_changed : int;
  d_entities : int;
}

(* One live entity: its membership and the cached result of the exact
   batch per-entity path. *)
type centry = {
  mutable e_members : int list;  (* row ids, ascending *)
  mutable e_instance : Relation.t;
  mutable e_result : Cleaner.entity_result;
}

(* Live row ids as an order-statistic index: a Fenwick tree over one
   bit per id ever allocated. Ids are allocated in ascending order and
   never reused, so the row at position [p] of the current relation is
   the live id with [p] live ids below it, found in O(log ids). *)
module Live = struct
  (* 1-based; the capacity [Array.length tree - 1] is a power of two,
     and node [i] counts the live ids [id] with
     [i - lowbit i <= id < i], so the root [tree.(cap)] counts every
     live id. *)
  type t = { mutable tree : int array }

  let create n =
    let rec pow c = if c >= n then c else pow (2 * c) in
    { tree = Array.make (pow 16 + 1) 0 }

  let cap l = Array.length l.tree - 1
  let count l = l.tree.(cap l)

  let update l id d =
    let i = ref (id + 1) in
    while !i <= cap l do
      l.tree.(!i) <- l.tree.(!i) + d;
      i := !i + (!i land - !i)
    done

  (* [id] is above every id added so far. Doubling keeps each old node
     (its range does not depend on the capacity); of the new nodes only
     the new root, which spans the old one, is non-zero. *)
  let add l id =
    while id >= cap l do
      let c = cap l in
      let tree = Array.make ((2 * c) + 1) 0 in
      Array.blit l.tree 1 tree 1 c;
      tree.(2 * c) <- l.tree.(c);
      l.tree <- tree
    done;
    update l id 1

  let remove l id = update l id (-1)

  (* The live id at position [pos], [0 <= pos < count l]: descend to
     the largest prefix holding at most [pos] live ids. *)
  let select l pos =
    let idx = ref 0 and rem = ref (pos + 1) and step = ref (cap l) in
    while !step > 0 do
      let next = !idx + !step in
      if next <= cap l && l.tree.(next) < !rem then begin
        idx := next;
        rem := !rem - l.tree.(next)
      end;
      step := !step / 2
    done;
    !idx
end

(* One live row: its tuple and ER-prepared form, the first member id
   of its entity ([home]), and that entity if this row is its first
   member ([leads]). *)
type row = {
  tuple : Tuple.t;
  prep : Er.Resolver.prepared;
  mutable home : int;
  mutable leads : centry option;
}

type t = {
  schema : Relational.Schema.t;
  er : Er.Resolver.config;
  prepare : Tuple.t -> Er.Resolver.prepared;  (* [Er.Resolver.prepare er] *)
  budget : Robust.Budget.limits;
  retries : int option;
  mutable ruleset : Rules.Ruleset.t;
  mutable master : Rules.Master_index.t option;
  (* Rows by id, [None] once retracted; the array doubles as ids grow.
     Ids are allocated monotonically and never reused, so ascending id
     order IS current relation-position order — which keeps cluster
     member order and cluster order (by first member) in lockstep with
     what a batch run over [relation] would produce. [live] maps a
     position to its id. The entities are keyed by first member id:
     each is held by that row, so the rows in id order list them in
     batch cluster order, and [n_entities] counts them. *)
  mutable rows : row option array;
  live : Live.t;
  mutable next_id : int;
  mutable n_entities : int;
  (* (attr, block key) -> row ids, maintained under add/retract: the
     candidate neighbours of an added tuple without re-blocking. *)
  keys : (int * string, int list) Hashtbl.t;
  mutable cached : Cleaner.report option;
}

(* ------------------------------------------------------------------ *)
(* Small helpers                                                      *)
(* ------------------------------------------------------------------ *)

let master t = Option.map Rules.Master_index.relation t.master

let key_add t id prep =
  List.iter
    (fun key ->
      let ids = match Hashtbl.find_opt t.keys key with Some l -> l | None -> [] in
      Hashtbl.replace t.keys key (id :: ids))
    (Er.Resolver.tuple_block_keys prep)

let key_remove t id prep =
  List.iter
    (fun key ->
      match Hashtbl.find_opt t.keys key with
      | None -> ()
      | Some ids -> (
          match List.filter (fun i -> i <> id) ids with
          | [] -> Hashtbl.remove t.keys key
          | ids -> Hashtbl.replace t.keys key ids))
    (Er.Resolver.tuple_block_keys prep)

let add_row t id tuple prep =
  let n = Array.length t.rows in
  if id >= n then begin
    let rows = Array.make (max 16 (2 * n)) None in
    Array.blit t.rows 0 rows 0 n;
    t.rows <- rows
  end;
  t.rows.(id) <- Some { tuple; prep; home = -1; leads = None };
  key_add t id prep

let row t id = Option.get t.rows.(id)
let tuple_of t id = (row t id).tuple
let prep_of t id = (row t id).prep

let instance_of t members =
  Relation.make t.schema (List.map (tuple_of t) members)

(* Two live rows are ER-linked iff they share a blocking key and
   match — exactly the edge relation of [Er.Resolver.cluster], whose
   connected components the session maintains. *)
let linked t p1 p2 = Er.Resolver.share_block p1 p2 && Er.Resolver.matches t.er p1 p2

let key_of e = List.hd e.e_members

let insert t e =
  let key = key_of e in
  (row t key).leads <- Some e;
  t.n_entities <- t.n_entities + 1;
  List.iter (fun id -> (row t id).home <- key) e.e_members

(* The members' [home]s are left for the caller to rebind. *)
let drop t e =
  (row t (key_of e)).leads <- None;
  t.n_entities <- t.n_entities - 1

(* Every entity, in cluster order, from a walk over every id allocated. *)
let entries t =
  let acc = ref [] in
  for id = t.next_id - 1 downto 0 do
    match t.rows.(id) with Some { leads = Some e; _ } -> acc := e :: !acc | _ -> ()
  done;
  !acc

let entity_of t key = Option.get (row t key).leads

(* ------------------------------------------------------------------ *)
(* Per-entity recompute — the exact batch path                        *)
(* ------------------------------------------------------------------ *)

let process_entity t instance =
  Cleaner.process_entity ~budget:t.budget ?retries:t.retries ?master:(master t)
    t.ruleset instance

let entry_of_result members instance result =
  { e_members = members; e_instance = instance; e_result = result }

let fresh_entry t members =
  let instance = instance_of t members in
  Obs.Counter.incr m_recleaned;
  entry_of_result members instance (process_entity t instance)

let reclean e t =
  e.e_instance <- instance_of t e.e_members;
  Obs.Counter.incr m_recleaned;
  e.e_result <- process_entity t e.e_instance

(* ------------------------------------------------------------------ *)
(* Γ-change affectedness                                              *)
(* ------------------------------------------------------------------ *)

(* The entity's Γ over the CURRENT rule set and master — exactly the
   Γ the next recompute would see — with [only] restricting the rules;
   [None] when the entity no longer forms a valid specification.
   Templates keep this sublinear in |Im|. *)
let ground_of ?only t e =
  match Core.Specification.make ~entity:e.e_instance ?master:(master t) t.ruleset with
  | Error _ -> None
  | Ok spec ->
      Some
        (Rules.Ground.instantiate ?only
           ~intern:(Core.Specification.intern spec)
           ~ruleset:t.ruleset ~entity:e.e_instance
           ~master:(Core.Specification.master_index spec)
           ~orders:(Core.Specification.numbering spec)
           ())

(* Does the entity's Γ name the rule, as the provenance of a prefix
   step or as a template? A templated rule counts without its |Im|
   steps being materialized: whether any of them would survive dedup
   is unknown, so its name over-approximates "possibly contributes".
   An entity that no longer forms a valid specification counts too. *)
let gamma_names t e name =
  match ground_of t e with
  | None -> true
  | Some g ->
      let rec named sid =
        sid < Rules.Ground.count g
        && (String.equal (Rules.Ground.rule_name g sid) name || named (sid + 1))
      in
      named 0
      || Array.exists
           (fun tpl -> String.equal (Rules.Ground.template_name tpl) name)
           (Rules.Ground.templates g)

(* A form-(2) rule's [Master_const] selection, on one master row. *)
let selects (f2 : Rules.Ar.form2) tu =
  List.for_all
    (function
      | Rules.Ar.Master_const (b, op, c) -> Rules.Ar.eval_op op (Tuple.get tu b) c
      | _ -> true)
    f2.f2_lhs

(* The [Te_master] residual vector a form-(2) rule grounds on one
   master row: (te attribute, joined master value) pairs. *)
let residual_vector (f2 : Rules.Ar.form2) tu =
  List.filter_map
    (function Rules.Ar.Te_master (al, b) -> Some (al, Tuple.get tu b) | _ -> None)
    f2.f2_lhs

(* The rule-level variant of the Master_fix reachability argument
   (see [master_fix] below): the residual vectors a form-(2) rule
   grounds over the selected master rows, deduplicated by
   [Value.compare] (vectors it calls equal are held by the same
   entities: [entity_reaches] and [copyable] test values by
   [Value.equal]). [None] for form-(1) rules — their grounding probe
   is already entity-level. *)
let f2_residual_rows t = function
  | Rules.Ar.Form1 _ -> None
  | Rules.Ar.Form2 f2 ->
      let rows =
        match master t with
        | None -> []
        | Some m ->
            List.filter_map
              (fun tu ->
                if selects f2 tu && not (Value.is_null (Tuple.get tu f2.f2_tm_attr))
                then Some (residual_vector f2 tu)
                else None)
              (Relation.tuples m)
      in
      let pair (a1, v1) (a2, v2) =
        match Int.compare a1 a2 with 0 -> Value.compare v1 v2 | c -> c
      in
      Some (List.sort_uniq (List.compare pair) rows)

(* Can a rule copy [v] into [te] attribute [al]: does some form-(2)
   rule write [al] from a master column holding [v]? *)
let copyable t al v =
  match t.master with
  | None -> false
  | Some midx ->
      List.exists
        (function
          | Rules.Ar.Form2 { f2_te_attr; f2_tm_attr; _ } when f2_te_attr = al ->
              Rules.Master_index.rows midx ~col:f2_tm_attr v <> []
          | _ -> false)
        (Rules.Ruleset.rules t.ruleset)

(* The residual vectors some entity's [te] could satisfy, each cut to
   the pairs that depend on the entity: a null value is never held,
   and a value a rule can copy from master is reachable by any entity.
   Decided once per update, not per entity. *)
let to_reach t residual_rows =
  List.filter_map
    (fun row ->
      if List.exists (fun (_, v) -> Value.is_null v) row then None
      else Some (List.filter (fun (al, v) -> not (copyable t al v)) row))
    residual_rows

(* Can this entity's [te] ever satisfy one of the [to_reach] vectors?
   Beyond copyable values, [te] can hold the entity's own cells
   (λ-refresh only promotes column values) and anything at all on an
   attribute still null at the chase fixpoint (top-1 completion tries
   arbitrary active-domain values there). Entities whose outcome is
   not decided by the fixpoint are provenance-sensitive — always
   affected. *)
let entity_reaches t e rows =
  match e.e_result.Cleaner.r_outcome with
  | Cleaner.Quarantined _ | Cleaner.Not_church_rosser _ -> true
  | _ ->
      let nulls = e.e_result.Cleaner.r_chase_nulls in
      let held (al, v) =
        List.mem al nulls
        || List.exists (fun id -> Value.equal (Tuple.get (tuple_of t id) al) v) e.e_members
      in
      List.exists (List.for_all held) rows

(* ------------------------------------------------------------------ *)
(* Construction                                                       *)
(* ------------------------------------------------------------------ *)

let create ?master ?(budget = Robust.Budget.unlimited) ?retries ?(jobs = 1) ~er
    ruleset dirty =
  if jobs < 0 then invalid_arg (Printf.sprintf "Session.create: jobs = %d" jobs);
  let t =
    {
      schema = Relation.schema dirty;
      er;
      prepare = Er.Resolver.prepare er;
      budget;
      retries;
      ruleset;
      master = Option.map Rules.Master_index.of_master master;
      rows = Array.make (Relation.size dirty) None;
      live = Live.create (Relation.size dirty);
      next_id = 0;
      keys = Hashtbl.create 256;
      n_entities = 0;
      cached = None;
    }
  in
  let n = Relation.size dirty in
  let prepared = Array.init n (fun i -> t.prepare (Relation.tuple dirty i)) in
  Array.iteri
    (fun i p ->
      add_row t i (Relation.tuple dirty i) p;
      Live.add t.live i)
    prepared;
  t.next_id <- n;
  let clusters = Er.Resolver.cluster_prepared er prepared in
  let instances = Array.map (instance_of t) (Array.of_list clusters) in
  let results =
    Cleaner.map_entities ~jobs
      ~backstop:(fun instance -> Cleaner.quarantined_of_tuples t.schema (Relation.tuples instance))
      (process_entity t) instances
  in
  List.iteri
    (fun i members -> insert t (entry_of_result members instances.(i) results.(i)))
    clusters;
  t

(* ------------------------------------------------------------------ *)
(* Read side                                                          *)
(* ------------------------------------------------------------------ *)

let relation t =
  let tuples = ref [] in
  for id = t.next_id - 1 downto 0 do
    match t.rows.(id) with
    | Some r -> tuples := r.tuple :: !tuples
    | None -> ()
  done;
  Relation.make t.schema !tuples

let schema t = t.schema
let ruleset t = t.ruleset
let entities t = t.n_entities

let report t =
  match t.cached with
  | Some r -> r
  | None ->
      let r =
        Cleaner.assemble t.schema
          (Array.of_list (List.map (fun e -> e.e_result) (entries t)))
      in
      t.cached <- Some r;
      r

(* ------------------------------------------------------------------ *)
(* Update kinds                                                       *)
(* ------------------------------------------------------------------ *)

let ( let* ) = Result.bind

let dreport t ~touched ~recleaned ~rows_changed =
  t.cached <- None;
  Obs.Counter.incr m_updates;
  {
    d_touched = touched;
    d_recleaned = recleaned;
    d_rows_changed = rows_changed;
    d_entities = t.n_entities;
  }

let tuple_add t tuple =
  if Tuple.arity tuple <> Relational.Schema.arity t.schema then
    Error
      (Robust.Error.spec_invalid
         (Printf.sprintf "Tuple_add: arity %d, schema wants %d"
            (Tuple.arity tuple)
            (Relational.Schema.arity t.schema)))
  else begin
    let id = t.next_id in
    t.next_id <- id + 1;
    (* Candidate neighbours share a blocking key; above-threshold ones
       merge their components with the new row — exactly the edges a
       re-clustering would add. *)
    let prep = t.prepare tuple in
    let candidates =
      List.sort_uniq Int.compare
        (List.concat_map
           (fun k ->
             match Hashtbl.find_opt t.keys k with Some l -> l | None -> [])
           (Er.Resolver.tuple_block_keys prep))
    in
    let matched =
      List.filter (fun cid -> Er.Resolver.matches t.er prep (prep_of t cid)) candidates
    in
    add_row t id tuple prep;
    Live.add t.live id;
    let merged =
      List.sort_uniq Int.compare (List.map (fun m -> (row t m).home) matched)
      |> List.map (entity_of t)
    in
    let members =
      List.sort Int.compare (id :: List.concat_map (fun e -> e.e_members) merged)
    in
    let e = fresh_entry t members in
    List.iter (drop t) merged;
    Obs.Counter.add m_unaffected t.n_entities;
    insert t e;
    Ok
      (dreport t ~touched:(List.length merged) ~recleaned:1
         ~rows_changed:(List.length merged + 1))
  end

let tuple_retract t pos =
  let n = Live.count t.live in
  if pos < 0 || pos >= n then
    Error
      (Robust.Error.spec_invalid
         (Printf.sprintf "Tuple_retract: position %d of %d rows" pos n))
  else begin
    let id = Live.select t.live pos in
    let { prep; home = key; _ } = row t id in
    let home = entity_of t key in
    drop t home;
    Live.remove t.live id;
    t.rows.(id) <- None;
    key_remove t id prep;
    let rest = List.filter (fun m -> m <> id) home.e_members in
    let parts =
      match rest with
      | [] -> []
      | rest ->
          (* Re-derive the components of the shrunk cluster: edges
             only ever existed inside it, so a local union-find over
             the surviving members reproduces the global partition. *)
          let arr = Array.of_list rest in
          let n = Array.length arr in
          let uf = Util.Union_find.create n in
          for x = 0 to n - 1 do
            for y = x + 1 to n - 1 do
              if
                (not (Util.Union_find.same uf x y))
                && linked t (prep_of t arr.(x)) (prep_of t arr.(y))
              then Util.Union_find.union uf x y
            done
          done;
          Util.Union_find.groups uf |> Array.to_list
          |> List.filter (fun g -> g <> [])
          |> List.map (List.map (fun i -> arr.(i)))
          |> List.sort compare
    in
    let fresh = List.map (fresh_entry t) parts in
    Obs.Counter.add m_unaffected t.n_entities;
    List.iter (insert t) fresh;
    Ok
      (dreport t ~touched:1 ~recleaned:(List.length fresh)
         ~rows_changed:(1 + List.length fresh))
  end

(* The tail of the three Γ-changing update kinds: each splits the
   entities by its affectedness test under the inputs the test needs,
   swaps in the new inputs, and [reclean_dirty] re-cleans the dirty
   ones. The tests hold under any budget: a meter charges fired steps
   only, and a ground step the tests rule out never fires, so it
   moves neither an entity's fired count, its retries nor its
   quarantine (DESIGN.md §30). *)
let reclean_dirty t (dirty, clean) =
  List.iter (fun e -> reclean e t) dirty;
  Obs.Counter.add m_unaffected (List.length clean);
  let n = List.length dirty in
  Ok (dreport t ~touched:n ~recleaned:n ~rows_changed:n)

(* The Master_fix affectedness test. A form-(2) rule grounds one step
   per master row passing its [Master_const] selection; the step's
   residuals are te-tests against the row's join values and its
   action copies the row's [f2_tm_attr] value. Fixing one master cell
   therefore changes a rule's grounding only when the rule mentions
   the fixed attribute, and the changed step (removed old version /
   added new version) can influence an entity's result only if every
   [Te_master] residual value is one the entity's [te] can ever hold:
   a value of the entity's own cells (λ-refresh only promotes column
   values), a value some rule can copy from master ([copyable]), or
   anything at all on an attribute that was still null at the chase
   fixpoint ([r_chase_nulls] — top-1 completion tries arbitrary
   active-domain values there). [te] is write-once, so this reachable
   set is exhaustive for chase and candidate checks alike. The set
   must cover [te] values under the OLD inputs (did the removed step
   ever fire?) as well as the new ones: it is decided under the
   pre-fix master. The fixed cell's new value needs no place in it:
   before a changed step fires, the new chase runs as the old one
   did, so that value reaches [te] only through the changed step of
   a rule copying its column, and that step's own residual vector is
   among the rows tested (DESIGN.md §26). Values are matched by [Value.equal], the
   equality grounding joins on. Entities whose outcome is not decided
   by the fixpoint (quarantined, non-Church-Rosser) are
   provenance-sensitive — any grounding change re-cleans them. *)
let master_fix t ~row ~attr ~value =
  match master t with
  | None -> Error (Robust.Error.spec_invalid "Master_fix: session has no master relation")
  | Some m ->
      if row < 0 || row >= Relation.size m then
        Error
          (Robust.Error.spec_invalid
             (Printf.sprintf "Master_fix: row %d of %d" row (Relation.size m)))
      else if attr < 0 || attr >= Relational.Schema.arity (Relation.schema m)
      then
        Error
          (Robust.Error.spec_invalid (Printf.sprintf "Master_fix: attribute %d" attr))
      else begin
        let old_row = Relation.tuple m row in
        let new_row = Tuple.set old_row attr value in
        let m' =
          Relation.make (Relation.schema m)
            (List.mapi
               (fun i tu -> if i = row then new_row else tu)
               (Relation.tuples m))
        in
        (* The residual vectors of the changed steps: per rule that
           grounds differently, those of the row versions it loses or
           gains. *)
        let residual_rows =
          List.concat_map
            (function
              | Rules.Ar.Form1 _ -> []
              | Rules.Ar.Form2 f2 ->
                  let sel_attrs, join_attrs =
                    List.fold_left
                      (fun (sel, join) -> function
                        | Rules.Ar.Master_const (b, _, _) -> (b :: sel, join)
                        | Rules.Ar.Te_master (_, b) -> (sel, b :: join)
                        | Rules.Ar.Te_const _ -> (sel, join))
                      ([], []) f2.Rules.Ar.f2_lhs
                  in
                  if
                    not
                      (List.mem attr sel_attrs || List.mem attr join_attrs
                     || attr = f2.Rules.Ar.f2_tm_attr)
                  then []
                  else
                    let nonsel =
                      List.mem attr join_attrs || attr = f2.Rules.Ar.f2_tm_attr
                    in
                    let so = selects f2 old_row and sn = selects f2 new_row in
                    List.map (residual_vector f2)
                      ((if so && ((not sn) || nonsel) then [ old_row ] else [])
                      @ if sn && ((not so) || nonsel) then [ new_row ] else []))
            (Rules.Ruleset.rules t.ruleset)
        in
        let swap () = t.master <- Some (Rules.Master_index.of_master m') in
        if residual_rows = [] then begin
          swap ();
          Ok (dreport t ~touched:0 ~recleaned:0 ~rows_changed:0)
        end
        else begin
          let rows = to_reach t residual_rows in
          let split = List.partition (fun e -> entity_reaches t e rows) (entries t) in
          swap ();
          reclean_dirty t split
        end
      end

let rule_add t rule =
  let name = Rules.Ar.name rule in
  match Rules.Ruleset.find t.ruleset name with
  | Some _ ->
      Error
        (Robust.Error.rule_invalid
           (Printf.sprintf "Rule_add: a rule named %S already exists" name))
  | None -> (
      match Rules.Ruleset.add t.ruleset rule with
      | Error e -> Error (Robust.Error.rule_invalid e)
      | Ok rs ->
          t.ruleset <- rs;
          (* A form-(2) rule grounds one step per selected master row
             {e whatever the entity} — a bare "did it ground?" probe
             would dirty the whole session on every such rule-add.
             Probe reachability instead: the new steps can influence
             an entity only if some row's every [Te_master] residual
             value is one its [te] can ever hold. The reachable set
             is the post-add one: the new rule's own copies count. *)
          let affected =
            match f2_residual_rows t rule with
            | Some residual_rows ->
                let rows = to_reach t residual_rows in
                fun e -> entity_reaches t e rows
            | None -> (
                (* Ground just the new rule against this entity: zero
                   steps means Γ is provably unchanged (the filtered
                   pass can only over-approximate), so the cached
                   result stands. *)
                fun e ->
                  match ground_of ~only:(fun r -> r == rule) t e with
                  | None -> true
                  | Some g -> Rules.Ground.count g > 0)
          in
          reclean_dirty t (List.partition affected (entries t)))

let rule_retire t name =
  match
    List.find_opt (fun r -> Rules.Ar.name r = name) (Rules.Ruleset.user_rules t.ruleset)
  with
  | None ->
      Error
        (Robust.Error.rule_invalid
           (Printf.sprintf "Rule_retire: no user rule named %S (axioms cannot be retired)" name))
  | Some rule ->
      (* Decide BEFORE swapping the rule set: an entity whose current
         Γ names no step of this rule (every candidate step lost
         first-provenance dedup or never grounded) keeps an identical
         Γ after the retire. The names include every templated
         form-(2) rule, so refine with the Master_fix reachability
         test: steps whose [Te_master] residuals this entity's [te]
         can never satisfy could never have fired, and removing
         never-fired steps cannot change a fixpoint-decided result
         (re-attributing their dedup twins to another rule changes
         provenance only). *)
      let reaches =
        match f2_residual_rows t rule with
        | None -> fun _ -> true
        | Some residual_rows ->
            let rows = to_reach t residual_rows in
            fun e -> entity_reaches t e rows
      in
      let split =
        List.partition (fun e -> gamma_names t e name && reaches e) (entries t)
      in
      t.ruleset <- Rules.Ruleset.remove t.ruleset name;
      reclean_dirty t split

let update t u =
  Obs.Span.with_ ~name:"session.update" @@ fun () ->
  match u with
  | Tuple_add tuple -> tuple_add t tuple
  | Tuple_retract pos -> tuple_retract t pos
  | Master_fix { row; attr; value } -> master_fix t ~row ~attr ~value
  | Rule_add rule -> rule_add t rule
  | Rule_retire name -> rule_retire t name

let apply t updates =
  let* n =
    List.fold_left
      (fun acc u ->
        let* n = acc in
        let* _ = update t u in
        Ok (n + 1))
      (Ok 0) updates
  in
  Ok (n, report t)
