module Value = Relational.Value

type config = {
  iterations : int;
  prior_trust : float;
  dampening : float;
  epsilon : float;
}

let default_config =
  { iterations = 20; prior_trust = 0.8; dampening = 0.3; epsilon = 1e-4 }

type cell = {
  mutable claims : (int * Value.t) list; (* source, latest value *)
  mutable probs : (Value.t * float) list;
      (* one (value, confidence) per [Value.equal] class, ascending in
         [Value.compare] *)
}

type result = {
  cells : (int * int, cell) Hashtbl.t;
  trust : float array;
  rounds : int;
}

let prob_of probs v =
  List.find_map (fun (v', p) -> if Value.equal v v' then Some p else None) probs

let run ?(config = default_config) ~num_sources claims =
  let cells = Hashtbl.create 256 in
  let latest_claims =
    (* each source's latest claim per (object, attr) *)
    let latest = Hashtbl.create 256 in
    List.iter
      (fun (c : Copy_cef.claim) ->
        let key = (c.object_id, c.attr, c.source) in
        match Hashtbl.find_opt latest key with
        | Some (prev : Copy_cef.claim) when prev.snapshot >= c.snapshot -> ()
        | _ -> Hashtbl.replace latest key c)
      claims;
    Hashtbl.fold (fun _ c acc -> c :: acc) latest []
  in
  List.iter
    (fun (c : Copy_cef.claim) ->
      if not (Value.is_null c.value) then begin
        let key = (c.object_id, c.attr) in
        let cell =
          match Hashtbl.find_opt cells key with
          | Some cell -> cell
          | None ->
              let cell = { claims = []; probs = [] } in
              Hashtbl.add cells key cell;
              cell
        in
        cell.claims <- (c.source, c.value) :: cell.claims
      end)
    latest_claims;
  let trust = Array.make num_sources config.prior_trust in
  (* σ(v) = 1 - Π (1 - t(s)): in log space with dampening. *)
  let update_cells () =
    Hashtbl.iter
      (fun _ cell ->
        let buckets = Value.Tbl.create 4 in
        List.iter
          (fun (s, v) ->
            let t = Float.min 0.999 (Float.max 0.001 trust.(s)) in
            let score = -.log (1.0 -. (config.dampening *. t)) in
            match Value.Tbl.find_opt buckets v with
            | Some x -> x := !x +. score
            | None -> Value.Tbl.add buckets v (ref score))
          cell.claims;
        cell.probs <-
          Value.Tbl.fold (fun v x acc -> (v, 1.0 -. exp (-. !x)) :: acc) buckets []
          |> List.sort (fun (v1, _) (v2, _) -> Value.compare v1 v2))
      cells
  in
  let update_trust () =
    let sums = Array.make num_sources 0.0 and counts = Array.make num_sources 0 in
    Hashtbl.iter
      (fun _ cell ->
        List.iter
          (fun (s, v) ->
            match prob_of cell.probs v with
            | Some conf ->
                sums.(s) <- sums.(s) +. conf;
                counts.(s) <- counts.(s) + 1
            | None -> ())
          cell.claims)
      cells;
    let max_delta = ref 0.0 in
    for s = 0 to num_sources - 1 do
      if counts.(s) > 0 then begin
        let fresh = sums.(s) /. float_of_int counts.(s) in
        max_delta := Float.max !max_delta (Float.abs (fresh -. trust.(s)));
        trust.(s) <- fresh
      end
    done;
    !max_delta
  in
  let rounds = ref 0 in
  update_cells ();
  let rec iterate r =
    if r <= config.iterations then begin
      rounds := r;
      let delta = update_trust () in
      update_cells ();
      if delta >= config.epsilon then iterate (r + 1)
    end
  in
  iterate 1;
  { cells; trust; rounds = !rounds }

let truth result ~object_id ~attr =
  match Hashtbl.find_opt result.cells (object_id, attr) with
  | None -> None
  | Some cell ->
      List.fold_left
        (fun best (v, p) ->
          match best with
          | Some (_, bp) when bp >= p -> best
          | _ -> Some (v, p))
        None cell.probs
      |> Option.map fst

let confidence result ~object_id ~attr v =
  match Hashtbl.find_opt result.cells (object_id, attr) with
  | None -> 0.0
  | Some cell -> Option.value ~default:0.0 (prob_of cell.probs v)

let source_trust result s = result.trust.(s)
let rounds_used result = result.rounds
