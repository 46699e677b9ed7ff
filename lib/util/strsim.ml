(* Ukkonen's banded dynamic program: cell (i, j) is at least |i - j|,
   so only the diagonal band |i - j| <= cap can hold a value <= cap;
   cells outside it, and every value above cap, read as cap + 1. A
   row whose band is all above cap ends the run early. With cap at
   the longer length the band is the whole table. *)
let levenshtein_bounded cap a b =
  if cap < 0 then invalid_arg "Strsim.levenshtein_bounded: negative cap";
  let a, b = if String.length a <= String.length b then (a, b) else (b, a) in
  let la = String.length a and lb = String.length b in
  if lb - la > cap then cap + 1
  else if la = 0 then lb
  else begin
    let cap = Int.min cap lb in
    let over = cap + 1 in
    let prev = Array.make (lb + 1) over and curr = Array.make (lb + 1) over in
    for j = 0 to cap do
      prev.(j) <- j
    done;
    let rec row i prev curr =
      if i > la then prev.(lb)
      else begin
        let lo = Int.max 1 (i - cap) and hi = Int.min lb (i + cap) in
        curr.(lo - 1) <- (if lo = 1 then i else over);
        let best = ref curr.(lo - 1) in
        let c = a.[i - 1] in
        for j = lo to hi do
          let cost = if c = b.[j - 1] then 0 else 1 in
          let v =
            Int.min (Int.min (curr.(j - 1) + 1) (prev.(j) + 1)) (prev.(j - 1) + cost)
          in
          let v = Int.min v over in
          curr.(j) <- v;
          if v < !best then best := v
        done;
        if !best >= over then over else row (i + 1) curr prev
      end
    in
    row 1 prev curr
  end

let levenshtein a b =
  levenshtein_bounded (Int.max (String.length a) (String.length b)) a b

let levenshtein_similarity a b =
  let la = String.length a and lb = String.length b in
  if la = 0 && lb = 0 then 1.0
  else 1.0 -. (float_of_int (levenshtein a b) /. float_of_int (max la lb))

let tokens s =
  String.split_on_char ' ' s |> List.filter (fun t -> t <> "")

let jaccard_of_lists xs ys =
  match (xs, ys) with
  | [], [] -> 1.0
  | _ ->
      let module S = Set.Make (String) in
      let sx = S.of_list xs and sy = S.of_list ys in
      let inter = S.cardinal (S.inter sx sy) in
      let union = S.cardinal (S.union sx sy) in
      if union = 0 then 1.0 else float_of_int inter /. float_of_int union

let jaccard_tokens a b = jaccard_of_lists (tokens a) (tokens b)

let ngrams n s =
  assert (n > 0);
  let pad = String.make (n - 1) '#' in
  let padded = pad ^ s ^ pad in
  let len = String.length padded in
  if len < n then []
  else List.init (len - n + 1) (fun i -> String.sub padded i n)

let trigram_similarity a b = jaccard_of_lists (ngrams 3 a) (ngrams 3 b)

let normalize s =
  let buf = Buffer.create (String.length s) in
  let pending_space = ref false in
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | '0' .. '9' ->
          if !pending_space && Buffer.length buf > 0 then Buffer.add_char buf ' ';
          pending_space := false;
          Buffer.add_char buf c
      | 'A' .. 'Z' ->
          if !pending_space && Buffer.length buf > 0 then Buffer.add_char buf ' ';
          pending_space := false;
          Buffer.add_char buf (Char.lowercase_ascii c)
      | _ -> pending_space := true)
    s;
  Buffer.contents buf

(* The Soundex digit of a letter; '0' for letters that code none. *)
let soundex_digit c =
  match Char.lowercase_ascii c with
  | 'b' | 'f' | 'p' | 'v' -> '1'
  | 'c' | 'g' | 'j' | 'k' | 'q' | 's' | 'x' | 'z' -> '2'
  | 'd' | 't' -> '3'
  | 'l' -> '4'
  | 'm' | 'n' -> '5'
  | 'r' -> '6'
  | _ -> '0'

let is_letter c =
  match Char.lowercase_ascii c with 'a' .. 'z' -> true | _ -> false

let soundex s =
  (* Code the first alphabetic word per the American Soundex rules:
     keep the first letter, then digits of subsequent consonants,
     dropping repeats of the same digit (h/w do not break runs). *)
  let start =
    let rec find i =
      if i >= String.length s then None
      else if is_letter s.[i] then Some i
      else find (i + 1)
    in
    find 0
  in
  match start with
  | None -> ""
  | Some i0 ->
      let code = Bytes.make 4 '0' in
      Bytes.set code 0 (Char.uppercase_ascii s.[i0]);
      let len = ref 1 and last = ref (soundex_digit s.[i0]) and i = ref (i0 + 1) in
      while !len < 4 && !i < String.length s && is_letter s.[!i] do
        let c = s.[!i] in
        let d = soundex_digit c in
        if d <> '0' then begin
          if d <> !last then begin
            Bytes.set code !len d;
            incr len
          end;
          last := d
        end
        else begin
          let lc = Char.lowercase_ascii c in
          if lc <> 'h' && lc <> 'w' then last := '0'
        end;
        incr i
      done;
      Bytes.to_string code
