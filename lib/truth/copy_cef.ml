module Value = Relational.Value

type claim = {
  object_id : int;
  attr : int;
  source : int;
  snapshot : int;
  value : Value.t;
}

type config = {
  iterations : int;
  prior_accuracy : float;
  n_false_values : int;
  copy_threshold : float;
}

let default_config =
  { iterations = 8; prior_accuracy = 0.8; n_false_values = 10; copy_threshold = 0.3 }

(* Keyed state: one cell per (object, attr); each cell holds the
   latest claim of every source that speaks about it. *)
type cell = {
  key : int * int;
  mutable claims : (int * Value.t) list; (* source, latest value *)
  mutable best : Value.t option;
  mutable probs : (Value.t * float) list;
      (* one (value, prob) per [Value.equal] class, ascending in
         [Value.compare] *)
}

type result = {
  cells : (int * int, cell) Hashtbl.t;
  accuracy : float array;
  copy : float array array;
}

let m_iterations = Obs.Counter.make ~help:"copyCEF update rounds" "truth_copycef_iterations_total"

let latest_claims claims =
  (* Keep, per (object, attr, source), the claim with the largest
     snapshot index. *)
  let best = Hashtbl.create 1024 in
  List.iter
    (fun c ->
      let key = (c.object_id, c.attr, c.source) in
      match Hashtbl.find_opt best key with
      | Some prev when prev.snapshot >= c.snapshot -> ()
      | _ -> Hashtbl.replace best key c)
    claims;
  Hashtbl.fold (fun _ c acc -> c :: acc) best []

let run ?(config = default_config) ~num_sources claims =
  let cells = Hashtbl.create 1024 in
  List.iter
    (fun c ->
      if not (Value.is_null c.value) then begin
        let key = (c.object_id, c.attr) in
        let cell =
          match Hashtbl.find_opt cells key with
          | Some cell -> cell
          | None ->
              let cell = { key; claims = []; best = None; probs = [] } in
              Hashtbl.add cells key cell;
              cell
        in
        cell.claims <- (c.source, c.value) :: cell.claims
      end)
    (latest_claims claims);
  let accuracy = Array.make num_sources config.prior_accuracy in
  let copy = Array.make_matrix num_sources num_sources 0.0 in
  let n = float_of_int (max 2 config.n_false_values) in
  (* One vote-counting pass over a cell given current source weights;
     returns (value, prob) for all claimed values. *)
  let cell_scores cell =
    let buckets = Value.Tbl.create 4 in
    List.iter
      (fun (s, v) ->
        let a = Float.min 0.99 (Float.max 0.01 accuracy.(s)) in
        let base_weight = log (a *. n /. (1.0 -. a)) in
        (* Copy discount: scale the vote down by the strongest copy
           relationship with another source claiming the same value. *)
        let discount = ref 1.0 in
        List.iter
          (fun (s', v') ->
            if s' <> s && Value.equal v v' && copy.(s).(s') > config.copy_threshold
            then discount := Float.min !discount (1.0 -. copy.(s).(s')))
          cell.claims;
        let w = base_weight *. !discount in
        match Value.Tbl.find_opt buckets v with
        | Some x -> x := !x +. w
        | None -> Value.Tbl.add buckets v (ref w))
      cell.claims;
    (* One sum per [Value.equal] class, in its first claim's spelling. *)
    let scored =
      Value.Tbl.fold (fun v x acc -> (v, !x) :: acc) buckets []
      |> List.sort (fun (v1, _) (v2, _) -> Value.compare v1 v2)
    in
    (* Softmax-normalize scores into probabilities. *)
    let mx = List.fold_left (fun m (_, x) -> Float.max m x) neg_infinity scored in
    let exps = List.map (fun (v, x) -> (v, exp (x -. mx))) scored in
    let z = List.fold_left (fun acc (_, e) -> acc +. e) 0.0 exps in
    List.map (fun (v, e) -> (v, e /. z)) exps
  in
  let update_cells () =
    Hashtbl.iter
      (fun _ cell ->
        let probs = cell_scores cell in
        cell.probs <- probs;
        (* The first maximum of the ascending list: a tie goes to the
           least value. *)
        let best =
          List.fold_left
            (fun acc (v, p) ->
              match acc with
              | Some (_, bp) when bp >= p -> acc
              | _ -> Some (v, p))
            None probs
        in
        cell.best <- Option.map fst best)
      cells
  in
  let update_accuracy () =
    let hits = Array.make num_sources 0.0 and total = Array.make num_sources 0.0 in
    Hashtbl.iter
      (fun _ cell ->
        match cell.best with
        | None -> ()
        | Some truth ->
            List.iter
              (fun (s, v) ->
                total.(s) <- total.(s) +. 1.0;
                if Value.equal v truth then hits.(s) <- hits.(s) +. 1.0)
              cell.claims)
      cells;
    for s = 0 to num_sources - 1 do
      (* Laplace smoothing keeps weights finite for tiny sources. *)
      accuracy.(s) <- (hits.(s) +. 1.0) /. (total.(s) +. 2.0)
    done
  in
  let update_copy () =
    (* Evidence of copying: jointly claiming values believed false.
       c(s1,s2) = shared-false / (shared + 1), damped. *)
    let shared = Array.make_matrix num_sources num_sources 0.0 in
    let shared_false = Array.make_matrix num_sources num_sources 0.0 in
    Hashtbl.iter
      (fun _ cell ->
        match cell.best with
        | None -> ()
        | Some truth ->
            let claims = cell.claims in
            List.iter
              (fun (s1, v1) ->
                List.iter
                  (fun (s2, v2) ->
                    if s1 < s2 && Value.equal v1 v2 then begin
                      shared.(s1).(s2) <- shared.(s1).(s2) +. 1.0;
                      if not (Value.equal v1 truth) then
                        shared_false.(s1).(s2) <- shared_false.(s1).(s2) +. 1.0
                    end)
                  claims)
              claims)
      cells;
    for s1 = 0 to num_sources - 1 do
      for s2 = s1 + 1 to num_sources - 1 do
        let c = shared_false.(s1).(s2) /. (shared.(s1).(s2) +. 1.0) in
        copy.(s1).(s2) <- c;
        copy.(s2).(s1) <- c
      done
    done
  in
  update_cells ();
  for _round = 1 to config.iterations do
    update_accuracy ();
    update_copy ();
    update_cells ()
  done;
  Obs.Counter.add m_iterations config.iterations;
  { cells; accuracy; copy }

let truth result ~object_id ~attr =
  match Hashtbl.find_opt result.cells (object_id, attr) with
  | Some cell -> cell.best
  | None -> None

let confidence result ~object_id ~attr v =
  match Hashtbl.find_opt result.cells (object_id, attr) with
  | None -> 0.0
  | Some cell ->
      List.find_map (fun (v', p) -> if Value.equal v v' then Some p else None) cell.probs
      |> Option.value ~default:0.0

let source_accuracy result s = result.accuracy.(s)
let copy_probability result s1 s2 = result.copy.(s1).(s2)
