module Value = Relational.Value

type result = {
  candidates : Value.t array list;
  truncated : bool;
  checked : int;
}

(* Depth-first product enumeration over the null attributes' active
   domains, invoking the chase on every completion. [stop] cuts the
   enumeration early on the accumulator (no exceptions needed). *)
let fold_completions ?include_default ?(stop = fun _ -> false) compiled te ~limit
    ~f ~init =
  let spec = Core.Is_cr.compiled_spec compiled in
  let zattrs =
    List.filter
      (fun a -> Value.is_null te.(a))
      (List.init (Array.length te) (fun i -> i))
  in
  let domains =
    List.map (fun a -> (a, Topk.Active_domain.values ?include_default spec a)) zattrs
  in
  let current = Array.copy te in
  let checked = ref 0 in
  let truncated = ref false in
  let rec go acc = function
    | [] ->
        incr checked;
        f acc (Array.copy current)
    | (attr, values) :: rest ->
        List.fold_left
          (fun acc v ->
            if stop acc then acc
            else if !checked >= limit then begin
              truncated := true;
              acc
            end
            else begin
              current.(attr) <- v;
              go acc rest
            end)
          acc values
  in
  let acc = go init domains in
  (acc, !truncated, !checked)

let enumerate ?include_default ?(limit = 100_000) ~pref compiled te =
  let acc, truncated, checked =
    fold_completions ?include_default compiled te ~limit
      ~f:(fun acc completion ->
        if Core.Is_cr.check compiled completion then completion :: acc else acc)
      ~init:[]
  in
  let compare_candidates a b =
    match Float.compare (Topk.Preference.score pref b) (Topk.Preference.score pref a) with
    | 0 ->
        Relational.Tuple.compare_values (Relational.Tuple.make a)
          (Relational.Tuple.make b)
    | c -> c
  in
  { candidates = List.sort compare_candidates acc; truncated; checked }

let exists_candidate ?include_default compiled te =
  let found, _, _ =
    fold_completions ?include_default compiled te ~limit:max_int
      ~stop:(fun found -> found)
      ~f:(fun acc completion -> acc || Core.Is_cr.check compiled completion)
      ~init:false
  in
  found

let count ?include_default ?(limit = 100_000) compiled te =
  let n, truncated, _ =
    fold_completions ?include_default compiled te ~limit
      ~f:(fun acc completion ->
        if Core.Is_cr.check compiled completion then acc + 1 else acc)
      ~init:0
  in
  (n, truncated)
