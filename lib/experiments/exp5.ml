module Value = Relational.Value
module Rest_gen = Datagen.Rest_gen

(* ------------------------------------------------------------------ *)
(* Rest / Table 4                                                     *)
(* ------------------------------------------------------------------ *)

(* Latest claim of every source about one restaurant's closed flag.
   [min_week] drops sources whose latest observation is stale. *)
let latest_claims ?(min_week = 0) (r : Rest_gen.restaurant) ~closed_pos =
  let best = Hashtbl.create 12 in
  List.iter
    (fun t ->
      let s = Relational.Tuple.source t in
      match Hashtbl.find_opt best s with
      | Some prev when Relational.Tuple.snapshot prev >= Relational.Tuple.snapshot t
        -> ()
      | _ -> Hashtbl.replace best s t)
    (Relational.Relation.tuples r.instance);
  Hashtbl.fold
    (fun _ t acc ->
      if Relational.Tuple.snapshot t < min_week then acc
      else
        match Relational.Tuple.get t closed_pos with
        | Value.Bool b -> b :: acc
        | _ -> acc)
    best []

let decide_voting r ~closed_pos =
  let claims = latest_claims r ~closed_pos in
  let closed = List.length (List.filter Fun.id claims) in
  2 * closed > List.length claims

let decide_deduce_order r ~closed_pos ~num_sources ~snapshots =
  (* [14]'s once-correct regime demands complete, certain and
     *current* evidence: every source whose observation is fresh
     must agree, stale observations are inconclusive, and the fresh
     evidence must cover most sources. Hence its perfect precision
     and poor recall in Table 4. *)
  let claims = latest_claims ~min_week:(snapshots - 2) r ~closed_pos in
  List.length claims >= (2 * num_sources) / 3
  && List.for_all Fun.id claims

let decide_chase_with_fallback dataset r ~closed_pos ~fallback =
  match Core.Is_cr.run (Rest_gen.spec_for dataset r) with
  | Core.Is_cr.Not_church_rosser _ -> fallback ()
  | Core.Is_cr.Church_rosser inst -> (
      match Core.Instance.te_value inst closed_pos with
      | Value.Bool b -> b
      | _ -> fallback ())

(* TopKCT with k = 1: the chase decides when it can; otherwise the
   preference model does — here reduced to its closed-attribute
   weights, since only that attribute is evaluated. *)
let decide_topkct_voting dataset r ~closed_pos =
  decide_chase_with_fallback dataset r ~closed_pos ~fallback:(fun () ->
      decide_voting r ~closed_pos)

let decide_topkct_copycef dataset cef r ~closed_pos =
  decide_chase_with_fallback dataset r ~closed_pos ~fallback:(fun () ->
      let w b =
        Truth.Copy_cef.confidence cef ~object_id:r.Rest_gen.id ~attr:closed_pos
          (Value.Bool b)
      in
      w true > w false)

let decide_copycef cef r ~closed_pos =
  match
    Truth.Copy_cef.truth cef ~object_id:r.Rest_gen.id ~attr:closed_pos
  with
  | Some (Value.Bool b) -> b
  | _ -> false

let rest_table4 ?(restaurants = 800) ?(seed = 7321) () =
  let ds = Rest_gen.generate (Rest_gen.default_config ~restaurants ~seed ()) in
  let closed_pos = Rest_gen.closed_attr ds in
  let cef =
    Truth.Copy_cef.run
      ~num_sources:(Array.length ds.config.sources)
      (Rest_gen.claims ds)
  in
  let num_sources = Array.length ds.config.sources in
  let snapshots = ds.config.snapshots in
  let methods =
    [
      ( "DeduceOrder",
        fun r -> decide_deduce_order r ~closed_pos ~num_sources ~snapshots );
      ("voting", fun r -> decide_voting r ~closed_pos);
      ("copyCEF", fun r -> decide_copycef cef r ~closed_pos);
      ("TopKCT (voting pref)", fun r -> decide_topkct_voting ds r ~closed_pos);
      ("TopKCT (copyCEF pref)", fun r -> decide_topkct_copycef ds cef r ~closed_pos);
    ]
  in
  let report =
    Report.make ~id:"tbl4" ~title:"Rest: truth discovery of closed?"
      ~x_label:"method" ~columns:[ "precision"; "recall"; "F1" ]
  in
  List.iter
    (fun (name, decide) ->
      let prf =
        Truth.Metrics.prf ~predicted:decide
          ~truth:(fun (r : Rest_gen.restaurant) -> r.closed_truth)
          ds.restaurants
      in
      Report.add_row report ~x:name [ prf.precision; prf.recall; prf.f1 ])
    methods;
  List.iter
    (fun (x, p, r, f) ->
      Report.set_paper report ~x ~column:"precision" p;
      Report.set_paper report ~x ~column:"recall" r;
      Report.set_paper report ~x ~column:"F1" f)
    [
      ("DeduceOrder", 1.0, 0.15, 0.26);
      ("voting", 0.62, 0.92, 0.74);
      ("copyCEF", 0.76, 0.85, 0.8);
      ("TopKCT (voting pref)", 0.73, 0.95, 0.82);
      ("TopKCT (copyCEF pref)", 0.81, 0.88, 0.85);
    ];
  Report.note report
    (Printf.sprintf "%d simulated restaurants, 12 sources x 8 snapshots (paper: 5149)"
       restaurants);
  report

(* ------------------------------------------------------------------ *)
(* CFP truth discovery                                                *)
(* ------------------------------------------------------------------ *)

let cfp_truth ?(seed = 4217) () =
  let ds = Datagen.Cfp_gen.dataset ~seed () in
  let total = List.length ds.entities in
  let exact method_of =
    let hits =
      List.length
        (List.filter
           (fun (e : Datagen.Entity_gen.entity) ->
             let target = Datagen.Entity_gen.annotate ds e in
             match method_of e with
             | Some t -> Array.for_all2 Value.equal t target
             | None -> false)
           ds.entities)
    in
    100.0 *. float_of_int hits /. float_of_int total
  in
  let voting (e : Datagen.Entity_gen.entity) = Some (Truth.Voting.resolve e.instance) in
  let deduce_order (e : Datagen.Entity_gen.entity) =
    let r = Truth.Deduce_order.resolve ~ruleset:ds.ruleset e.instance in
    Some r.Truth.Deduce_order.values
  in
  let topkct (e : Datagen.Entity_gen.entity) =
    match Workbench.truth_rank `Ct ~k:1 ds e with
    | Some 1 -> Some (Datagen.Entity_gen.annotate ds e)
    | _ -> None
  in
  let report =
    Report.make ~id:"exp5cfp" ~title:"CFP: complete true targets derived (k = 1)"
      ~x_label:"method" ~columns:[ "true targets %" ]
  in
  Report.add_row report ~x:"voting" [ exact voting ];
  Report.add_row report ~x:"DeduceOrder" [ exact deduce_order ];
  Report.add_row report ~x:"TopKCT" [ exact topkct ];
  Report.set_paper report ~x:"voting" ~column:"true targets %" 37.0;
  Report.set_paper report ~x:"DeduceOrder" ~column:"true targets %" 0.0;
  Report.set_paper report ~x:"TopKCT" ~column:"true targets %" 70.0;
  report
