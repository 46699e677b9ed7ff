type scale = [ `Quick | `Full ]

let table : (string * string * (scale -> Report.t)) list =
  [
    ( "fig6a",
      "IsCR: % entities with complete deduced targets (Med, CFP)",
      fun scale ->
        Exp1.complete_targets
          ~entities:(match scale with `Quick -> 500 | `Full -> 2700)
          () );
    ( "fig6e",
      "IsCR: % attributes deduced, by rule form (Med, CFP)",
      fun scale ->
        Exp1.deduced_attributes
          ~entities:(match scale with `Quick -> 500 | `Full -> 2700)
          () );
    ( "fig6b",
      "Med: top-k hit rate vs k",
      fun scale ->
        Exp2.vary_k ~entities:(match scale with `Quick -> 250 | `Full -> 2700) Exp2.Med );
    ( "fig6f",
      "CFP: top-k hit rate vs k",
      fun _ -> Exp2.vary_k Exp2.Cfp );
    ( "fig6c",
      "Med: top-15 hit rate vs ||Im||",
      fun scale ->
        Exp2.vary_im ~entities:(match scale with `Quick -> 250 | `Full -> 2700) Exp2.Med );
    ( "fig6g",
      "CFP: top-15 hit rate vs ||Im||",
      fun _ -> Exp2.vary_im Exp2.Cfp );
    ( "fig6d",
      "Med: user-interaction rounds",
      fun scale ->
        Exp3.rounds ~entities:(match scale with `Quick -> 250 | `Full -> 2700) Exp3.Med );
    ( "fig6h",
      "CFP: user-interaction rounds",
      fun _ -> Exp3.rounds Exp3.Cfp );
    ( "fig6i",
      "Syn: top-k time vs ||Ie||",
      fun scale ->
        Exp4.vary_ie ~repeats:(match scale with `Quick -> 1 | `Full -> 3) () );
    ( "fig6j",
      "Syn: top-k time vs ||Sigma||",
      fun scale ->
        Exp4.vary_sigma ~repeats:(match scale with `Quick -> 1 | `Full -> 3) () );
    ( "fig6k",
      "Syn: top-k time vs ||Im||",
      fun scale ->
        Exp4.vary_im ~repeats:(match scale with `Quick -> 1 | `Full -> 3) () );
    ( "fig6l",
      "Syn: top-k time vs k",
      fun scale ->
        Exp4.vary_k ~repeats:(match scale with `Quick -> 1 | `Full -> 3) () );
    ( "fig7a",
      "Med: per-entity top-k time by instance size",
      fun scale ->
        Exp4.med_vary_ie
          ~entities:(match scale with `Quick -> 1500 | `Full -> 6000)
          () );
    ( "fig7b",
      "Med: per-entity top-k time vs ||Im||",
      fun scale ->
        Exp4.med_vary_im
          ~entities:(match scale with `Quick -> 300 | `Full -> 2700)
          () );
    ( "tbl4",
      "Rest: truth discovery P/R/F1 (Table 4)",
      fun scale ->
        Exp5.rest_table4
          ~restaurants:(match scale with `Quick -> 500 | `Full -> 5149)
          () );
    ( "exp5cfp",
      "CFP: complete true targets (voting / DeduceOrder / TopKCT)",
      fun _ -> Exp5.cfp_truth () );
  ]

let ids = List.map (fun (id, _, _) -> id) table

let describe id =
  List.find_map (fun (i, d, _) -> if i = id then Some d else None) table

let run ?(scale = `Quick) id =
  List.find_map (fun (i, _, f) -> if i = id then Some (f scale) else None) table
