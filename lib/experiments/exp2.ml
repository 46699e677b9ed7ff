type dataset_id = Med | Cfp

let dataset_of ~entities ~seed = function
  | Med -> ("Med", Datagen.Med_gen.dataset ~entities ~seed ())
  | Cfp -> ("CFP", Datagen.Cfp_gen.dataset ~seed ())

let ks = [ 5; 10; 15; 20; 25 ]
let kmax = 25

(* One top-k run per entity at k = 25 yields the truth's rank, which
   answers every k <= 25. *)
let ranks ?annotate_with alg dataset =
  List.map
    (fun e ->
      let target =
        Datagen.Entity_gen.annotate
          (Option.value ~default:dataset annotate_with)
          e
      in
      Workbench.truth_rank ~target alg ~k:kmax dataset e)
    dataset.Datagen.Entity_gen.entities

let vary_k ?(entities = 400) ?(seed = 1093) id =
  let name, ds = dataset_of ~entities ~seed id in
  let report =
    Report.make
      ~id:(match id with Med -> "fig6b" | Cfp -> "fig6f")
      ~title:(name ^ ": targets found in top-k (varying k)")
      ~x_label:"k"
      ~columns:
        [
          "TopKCT form(1)"; "TopKCT form(2)"; "TopKCT both"; "TopKCTh both";
        ]
  in
  let configs =
    [
      ranks `Ct (Datagen.Entity_gen.restrict_rules ds `Form1_only);
      ranks `Ct (Datagen.Entity_gen.restrict_rules ds `Form2_only);
      ranks `Ct ds;
      ranks `Ct_h ds;
    ]
  in
  List.iter
    (fun k ->
      let row =
        List.map
          (fun rank_list ->
            Workbench.hit_rate (List.map (fun r -> (r, k)) rank_list))
          configs
      in
      Report.add_row report ~x:(string_of_int k) row)
    ks;
  (match id with
  | Med ->
      Report.set_paper report ~x:"25" ~column:"TopKCT both" 92.0;
      Report.set_paper report ~x:"25" ~column:"TopKCTh both" 91.0
  | Cfp ->
      Report.set_paper report ~x:"25" ~column:"TopKCT both" 94.0;
      Report.set_paper report ~x:"25" ~column:"TopKCTh both" 87.0);
  Report.note report "preference: value occurrences (§3); paper defaults";
  report

let im_points = function
  | Med -> [ 0.0; 0.25; 0.5; 0.75; 1.0 ]
  | Cfp -> [ 0.0; 0.25; 0.5; 0.75; 1.0 ]

let vary_im ?(entities = 400) ?(seed = 1093) id =
  let name, ds = dataset_of ~entities ~seed id in
  let full = Relational.Relation.size ds.Datagen.Entity_gen.master in
  let report =
    Report.make
      ~id:(match id with Med -> "fig6c" | Cfp -> "fig6g")
      ~title:(name ^ ": targets found in top-15 (varying ||Im||)")
      ~x_label:"||Im||" ~columns:[ "TopKCT"; "TopKCTh" ]
  in
  List.iter
    (fun frac ->
      let n = int_of_float (frac *. float_of_int full) in
      let truncated = Datagen.Entity_gen.with_master_size ds n in
      let k = 15 in
      (* Targets are identified once, with full knowledge (the full
         master): shrinking Im makes them harder to *find*, not
         different. *)
      let row =
        List.map
          (fun alg ->
            Workbench.hit_rate
              (List.map (fun r -> (r, k)) (ranks ~annotate_with:ds alg truncated)))
          [ `Ct; `Ct_h ]
      in
      Report.add_row report ~x:(string_of_int n) row)
    (im_points id);
  (match id with
  | Med -> Report.set_paper report ~x:"0" ~column:"TopKCT" 63.0
  | Cfp -> Report.set_paper report ~x:"0" ~column:"TopKCT" 64.0);
  Report.note report "k = 15; master truncated to the first n rows";
  report
