module Syn_gen = Datagen.Syn_gen

let algorithms = [ `Rank_join; `Ct; `Ct_h ]
let columns = List.map Topk.algo_name algorithms

(* All timed runs carry the §6.2 exploration cap: entities with
   fewer than k candidate targets would otherwise exhaust an
   exponential space (the paper acknowledges this worst case). *)
let run_algorithm algo ~k ~pref compiled te =
  ignore (Topk.solve ~algo ~max_pops:Topk.exploration_cap ~k ~pref compiled te)

let best_of repeats f =
  let rec go i best =
    if i = 0 then best else go (i - 1) (Float.min best (Workbench.time_ms f))
  in
  go (repeats - 1) (Workbench.time_ms f)

(* One Syn measurement point: compile, chase, then each top-k
   algorithm; returns (per-algorithm ms, compile ms, iscr ms). *)
let measure_syn ~repeats ~ie ~im ~sigma ~k ~seed =
  let ds = Syn_gen.dataset ~ie ~im ~sigma ~seed () in
  let compiled = ref None in
  let compile_ms =
    best_of repeats (fun () -> compiled := Some (Core.Is_cr.compile ds.Syn_gen.spec))
  in
  let compiled = Option.get !compiled in
  let te = ref None in
  let iscr_ms =
    best_of repeats (fun () ->
        match Core.Is_cr.run_compiled compiled with
        | Core.Is_cr.Church_rosser inst -> te := Some (Core.Instance.te inst)
        | Core.Is_cr.Not_church_rosser _ ->
            invalid_arg "Exp4: Syn spec must be Church-Rosser")
  in
  let te = Option.get !te in
  let times =
    List.map
      (fun alg ->
        best_of repeats (fun () ->
            run_algorithm alg ~k ~pref:ds.Syn_gen.pref compiled te))
      algorithms
  in
  (times, compile_ms, iscr_ms)

let syn_report ~id ~title ~x_label ~points ~repeats ~seed ~of_point =
  let report =
    Report.make ~id ~title ~x_label
      ~columns:(columns @ [ "compile(Γ)"; "IsCR" ])
  in
  List.iter
    (fun p ->
      let ie, im, sigma, k = of_point p in
      let times, compile_ms, iscr_ms =
        measure_syn ~repeats ~ie ~im ~sigma ~k ~seed
      in
      Report.add_row report ~x:(string_of_int p) (times @ [ compile_ms; iscr_ms ]))
    points;
  Report.note report "milliseconds; best of repeated runs";
  report

let vary_ie ?(repeats = 1) ?(seed = 271828) () =
  let r =
    syn_report ~id:"fig6i" ~title:"Syn: top-k time vs ||Ie||" ~x_label:"||Ie||"
      ~points:[ 300; 600; 900; 1200; 1500 ] ~repeats ~seed
      ~of_point:(fun ie -> (ie, 300, 60, 15))
  in
  Report.set_paper r ~x:"1500" ~column:"RankJoinCT" 1983.0;
  Report.set_paper r ~x:"1500" ~column:"TopKCT" 271.0;
  Report.set_paper r ~x:"1500" ~column:"TopKCTh" 159.0;
  Report.note r
    "paper reference points are Python on EC2 (||Σ||=50); compare shapes, not absolutes";
  r

let vary_sigma ?(repeats = 1) ?(seed = 271828) () =
  syn_report ~id:"fig6j" ~title:"Syn: top-k time vs ||Σ||" ~x_label:"||Σ||"
    ~points:[ 20; 40; 60; 80; 100 ] ~repeats ~seed
    ~of_point:(fun sigma -> (900, 300, sigma, 15))

let vary_im ?(repeats = 1) ?(seed = 271828) () =
  syn_report ~id:"fig6k" ~title:"Syn: top-k time vs ||Im||" ~x_label:"||Im||"
    ~points:[ 100; 200; 300; 400; 500 ] ~repeats ~seed
    ~of_point:(fun im -> (900, im, 60, 15))

let vary_k ?(repeats = 1) ?(seed = 271828) () =
  syn_report ~id:"fig6l" ~title:"Syn: top-k time vs k" ~x_label:"k"
    ~points:[ 5; 10; 15; 20; 25 ] ~repeats ~seed
    ~of_point:(fun k -> (900, 300, 60, k))

(* ------------------------------------------------------------------ *)
(* Med timing sweeps                                                  *)
(* ------------------------------------------------------------------ *)

let buckets = [ (1, 18); (19, 36); (37, 54); (55, 72); (73, 90) ]

let med_entity_time alg dataset (e : Datagen.Entity_gen.entity) =
  let spec = Datagen.Entity_gen.spec_for dataset e in
  let compiled = Core.Is_cr.compile spec in
  match Core.Is_cr.run_compiled compiled with
  | Core.Is_cr.Not_church_rosser _ -> None
  | Core.Is_cr.Church_rosser inst ->
      let te = Core.Instance.te inst in
      let pref = Topk.Preference.of_occurrences e.instance in
      Some (Workbench.time_ms (fun () -> run_algorithm alg ~k:15 ~pref compiled te))

let med_vary_ie ?(entities = 3000) ?(seed = 1093) () =
  let ds = Datagen.Med_gen.dataset ~entities ~seed () in
  let report =
    Report.make ~id:"fig7a" ~title:"Med: per-entity top-k time by instance size"
      ~x_label:"|Ie| bucket" ~columns:(columns @ [ "entities" ])
  in
  List.iter
    (fun (lo, hi) ->
      let members =
        List.filter
          (fun (e : Datagen.Entity_gen.entity) ->
            let n = Relational.Relation.size e.instance in
            n >= lo && n <= hi)
          ds.entities
      in
      (* Cap the per-bucket sample: the small bucket holds thousands
         of entities and the tail buckets a handful. *)
      let rec take n = function
        | [] -> []
        | _ when n = 0 -> []
        | x :: rest -> x :: take (n - 1) rest
      in
      let sample = take 40 members in
      if sample <> [] then begin
        let avg alg =
          let times = List.filter_map (med_entity_time alg ds) sample in
          if times = [] then 0.0
          else List.fold_left ( +. ) 0.0 times /. float_of_int (List.length times)
        in
        Report.add_row report
          ~x:(Printf.sprintf "[%d,%d]" lo hi)
          (List.map avg algorithms @ [ float_of_int (List.length members) ])
      end)
    buckets;
  Report.note report "k = 15, full Σ (95+15 rules); avg ms over <=40 entities per bucket";
  report

let med_vary_im ?(entities = 600) ?(seed = 1093) () =
  let ds = Datagen.Med_gen.dataset ~entities ~seed () in
  let full = Relational.Relation.size ds.master in
  let report =
    Report.make ~id:"fig7b" ~title:"Med: avg per-entity top-k time vs ||Im||"
      ~x_label:"||Im||" ~columns
  in
  List.iter
    (fun frac ->
      let n = int_of_float (frac *. float_of_int full) in
      let truncated = Datagen.Entity_gen.with_master_size ds n in
      let rec take k = function
        | [] -> []
        | _ when k = 0 -> []
        | x :: rest -> x :: take (k - 1) rest
      in
      let sample = take 60 truncated.Datagen.Entity_gen.entities in
      let avg alg =
        let times = List.filter_map (med_entity_time alg truncated) sample in
        if times = [] then 0.0
        else List.fold_left ( +. ) 0.0 times /. float_of_int (List.length times)
      in
      Report.add_row report ~x:(string_of_int n) (List.map avg algorithms))
    [ 0.0; 0.25; 0.5; 0.75; 1.0 ];
  Report.note report "k = 15; avg ms over 60 entities";
  report
