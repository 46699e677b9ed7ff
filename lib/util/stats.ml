let mean xs =
  let n = Array.length xs in
  if n = 0 then nan else Array.fold_left ( +. ) 0.0 xs /. float_of_int n

let variance xs =
  let n = Array.length xs in
  if n = 0 then nan
  else
    let m = mean xs in
    Array.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 xs
    /. float_of_int n

let stddev xs = sqrt (variance xs)

let sorted_copy xs =
  let ys = Array.copy xs in
  Array.sort compare ys;
  ys

let median xs =
  let n = Array.length xs in
  if n = 0 then nan
  else
    let ys = sorted_copy xs in
    if n mod 2 = 1 then ys.(n / 2)
    else (ys.((n / 2) - 1) +. ys.(n / 2)) /. 2.0

let percentile xs p =
  let n = Array.length xs in
  if n = 0 then nan
  else begin
    assert (p >= 0.0 && p <= 100.0);
    let ys = sorted_copy xs in
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (floor rank) and hi = int_of_float (ceil rank) in
    let frac = rank -. floor rank in
    (ys.(lo) *. (1.0 -. frac)) +. (ys.(hi) *. frac)
  end

let minimum xs = Array.fold_left min xs.(0) xs
let maximum xs = Array.fold_left max xs.(0) xs

type online = { mutable n : int; mutable mu : float }

let online_create () = { n = 0; mu = 0.0 }

let online_add o x =
  o.n <- o.n + 1;
  o.mu <- o.mu +. ((x -. o.mu) /. float_of_int o.n)

let online_mean o = if o.n = 0 then nan else o.mu
