(* Domain-safety discipline (see DESIGN.md §9): every mutable cell in
   this module is either an [Atomic.t], a [Mutex]-guarded structure
   (the registries, touched only on metric creation and export), or
   per-domain state reached through [Domain.DLS] (the span stacks).
   Engines running on worker domains may therefore mutate metrics
   concurrently; counters and histogram bins are exact under
   contention, gauges converge to the true high-water mark, and each
   domain records its spans into its own bounded buffer, merged at
   read time. scripts/lint_domainsafe.sh enforces the "no module-level
   [ref]/[mutable]" part mechanically. *)

(* The collection flag. Mutators read it through one atomic load so
   the disabled path is a single branch, no allocation. *)
let on = Atomic.make false
let enabled () = Atomic.get on
let set_enabled b = Atomic.set on b

(* Spans read Util.Timing.mono_ms, the clock Robust.Budget deadlines
   use. *)
let now_ms = Util.Timing.mono_ms
let epoch_ms = now_ms ()

(* A monotone float cell: [fmax] keeps the maximum, [fadd] the sum.
   [compare_and_set] on a boxed float compares the box physically,
   which is exactly the read-didn't-race check the loops need. *)
let rec fmax cell v =
  let cur = Atomic.get cell in
  if v > cur && not (Atomic.compare_and_set cell cur v) then fmax cell v

let rec fadd cell v =
  let cur = Atomic.get cell in
  if not (Atomic.compare_and_set cell cur (cur +. v)) then fadd cell v

(* ------------------------------------------------------------------ *)
(* Metric storage                                                     *)
(* ------------------------------------------------------------------ *)

type counter = { c_name : string; c_help : string; c_v : int Atomic.t }
type gauge = { g_name : string; g_help : string; g_v : float Atomic.t }

type histogram = {
  h_name : string;
  h_help : string;
  h_bounds : float array; (* strictly increasing upper bounds *)
  h_counts : int Atomic.t array; (* length = Array.length h_bounds + 1 (+inf) *)
  h_sum : float Atomic.t;
  h_count : int Atomic.t;
}

type metric = C of counter | G of gauge | H of histogram

let registry : (string, metric) Hashtbl.t = Hashtbl.create 64
let registry_mu = Mutex.create ()

let locked mu f =
  Mutex.lock mu;
  match f () with
  | v ->
      Mutex.unlock mu;
      v
  | exception e ->
      Mutex.unlock mu;
      raise e

let kind_name = function C _ -> "counter" | G _ -> "gauge" | H _ -> "histogram"

let register name m =
  locked registry_mu @@ fun () ->
  match Hashtbl.find_opt registry name with
  | None ->
      Hashtbl.add registry name m;
      m
  | Some existing ->
      let compatible =
        match (existing, m) with
        | C _, C _ | G _, G _ -> true
        | H h1, H h2 -> h1.h_bounds = h2.h_bounds
        | _ -> false
      in
      if not compatible then
        invalid_arg
          (Printf.sprintf "Obs: metric %S already registered as a %s" name
             (kind_name existing));
      existing

module Counter = struct
  type t = counter

  let make ?(help = "") name =
    match register name (C { c_name = name; c_help = help; c_v = Atomic.make 0 }) with
    | C c -> c
    | _ -> assert false

  let incr c = if Atomic.get on then Atomic.incr c.c_v

  let add c n =
    if n < 0 then invalid_arg "Obs.Counter.add: negative increment";
    if Atomic.get on then ignore (Atomic.fetch_and_add c.c_v n : int)

  let value c = Atomic.get c.c_v
end

module Gauge = struct
  type t = gauge

  let make ?(help = "") name =
    match
      register name (G { g_name = name; g_help = help; g_v = Atomic.make 0.0 })
    with
    | G g -> g
    | _ -> assert false

  let set g v = if Atomic.get on then Atomic.set g.g_v v
  let observe_max g v = if Atomic.get on then fmax g.g_v v

  (* Signed delta — live level gauges (queue depth, in-flight
     requests) incremented on entry and decremented on exit, from
     any thread or domain. *)
  let add g v = if Atomic.get on then fadd g.g_v v
  let value g = Atomic.get g.g_v
end

module Histogram = struct
  type t = histogram

  let default_ms_buckets = [| 0.01; 0.1; 1.0; 10.0; 100.0; 1000.0; 10000.0 |]

  let make ?(help = "") ?(buckets = default_ms_buckets) name =
    for i = 1 to Array.length buckets - 1 do
      if buckets.(i) <= buckets.(i - 1) then
        invalid_arg "Obs.Histogram.make: bucket bounds must be strictly increasing"
    done;
    match
      register name
        (H
           {
             h_name = name;
             h_help = help;
             h_bounds = Array.copy buckets;
             h_counts = Array.init (Array.length buckets + 1) (fun _ -> Atomic.make 0);
             h_sum = Atomic.make 0.0;
             h_count = Atomic.make 0;
           })
    with
    | H h -> h
    | _ -> assert false

  (* Buckets store per-bin counts internally; the cumulative view is
     assembled at read time, keeping [observe] to one increment. *)
  let observe h v =
    if Atomic.get on then begin
      let n = Array.length h.h_bounds in
      let rec bin i = if i < n && v > h.h_bounds.(i) then bin (i + 1) else i in
      Atomic.incr h.h_counts.(bin 0);
      fadd h.h_sum v;
      Atomic.incr h.h_count
    end

  let count h = Atomic.get h.h_count
  let sum h = Atomic.get h.h_sum

  let bucket_counts h =
    let acc = ref 0 and out = ref [] in
    Array.iteri
      (fun i bound ->
        acc := !acc + Atomic.get h.h_counts.(i);
        out := (bound, !acc) :: !out)
      h.h_bounds;
    acc := !acc + Atomic.get h.h_counts.(Array.length h.h_bounds);
    out := (infinity, !acc) :: !out;
    List.rev !out
end

(* ------------------------------------------------------------------ *)
(* Registry-wide views                                                *)
(* ------------------------------------------------------------------ *)

type value =
  | Counter of int
  | Gauge of float
  | Histogram of { buckets : (float * int) list; sum : float; count : int }

let value_of = function
  | C c -> Counter (Atomic.get c.c_v)
  | G g -> Gauge (Atomic.get g.g_v)
  | H h ->
      Histogram
        {
          buckets = Histogram.bucket_counts h;
          sum = Atomic.get h.h_sum;
          count = Atomic.get h.h_count;
        }

let snapshot () =
  locked registry_mu (fun () ->
      Hashtbl.fold (fun name m acc -> (name, m) :: acc) registry [])
  |> List.map (fun (name, m) -> (name, value_of m))
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let find name =
  Option.map value_of
    (locked registry_mu (fun () -> Hashtbl.find_opt registry name))

(* ------------------------------------------------------------------ *)
(* Spans                                                              *)
(* ------------------------------------------------------------------ *)

module Span = struct
  type event = { name : string; depth : int; start_ms : float; dur_ms : float }

  let capacity = 4096

  (* Per-domain recording state: each domain owns a bounded ring of
     completed spans and its own nesting depth, so [with_] never
     contends. The states of every domain that ever recorded are
     kept in a global list (CAS-pushed once per domain) and merged —
     sorted by start time — when the trace is read. *)
  type dstate = {
    d_buf : event option array;
    d_next : int Atomic.t; (* completed spans; buf index is [mod capacity] *)
    d_depth : int Atomic.t;
  }

  let states : dstate list Atomic.t = Atomic.make []

  let rec push_state s =
    let cur = Atomic.get states in
    if not (Atomic.compare_and_set states cur (s :: cur)) then push_state s

  let dls_key =
    Domain.DLS.new_key (fun () ->
        let s =
          {
            d_buf = Array.make capacity None;
            d_next = Atomic.make 0;
            d_depth = Atomic.make 0;
          }
        in
        push_state s;
        s)

  let sanitize name =
    String.map
      (fun ch ->
        match ch with
        | 'a' .. 'z' | '0' .. '9' | '_' -> ch
        | 'A' .. 'Z' -> Char.lowercase_ascii ch
        | _ -> '_')
      name

  let hist_for : (string, Histogram.t) Hashtbl.t = Hashtbl.create 16
  let hist_mu = Mutex.create ()

  let duration_hist name =
    match locked hist_mu (fun () -> Hashtbl.find_opt hist_for name) with
    | Some h -> h
    | None ->
        (* [Histogram.make] is idempotent, so a race here at worst
           caches the same registered histogram twice. *)
        let h =
          Histogram.make
            ~help:(Printf.sprintf "wall time of span %s" name)
            (Printf.sprintf "span_%s_ms" (sanitize name))
        in
        locked hist_mu (fun () -> Hashtbl.replace hist_for name h);
        h

  let record st ev =
    let n = Atomic.fetch_and_add st.d_next 1 in
    st.d_buf.(n mod capacity) <- Some ev

  let with_ ~name f =
    if not (Atomic.get on) then f ()
    else begin
      let st = Domain.DLS.get dls_key in
      let d = Atomic.get st.d_depth in
      Atomic.set st.d_depth (d + 1);
      let t0 = now_ms () in
      let close () =
        let dur = Float.max 0.0 (now_ms () -. t0) in
        Atomic.set st.d_depth d;
        Histogram.observe (duration_hist name) dur;
        record st { name; depth = d; start_ms = t0 -. epoch_ms; dur_ms = dur }
      in
      match f () with
      | v ->
          close ();
          v
      | exception e ->
          close ();
          raise e
    end

  let events () =
    let evs = ref [] in
    List.iter
      (fun st ->
        let n = Atomic.get st.d_next in
        let lo = max 0 (n - capacity) in
        for i = n - 1 downto lo do
          match st.d_buf.(i mod capacity) with
          | Some e -> evs := e :: !evs
          | None -> ()
        done)
      (Atomic.get states);
    List.sort
      (fun a b ->
        match Float.compare a.start_ms b.start_ms with
        | 0 -> Int.compare a.depth b.depth
        | c -> c)
      !evs

  let clear () =
    List.iter
      (fun st ->
        Array.fill st.d_buf 0 capacity None;
        Atomic.set st.d_next 0;
        Atomic.set st.d_depth 0)
      (Atomic.get states)

  let pp_tree ppf () =
    match events () with
    | [] -> Format.fprintf ppf "(no spans recorded)@."
    | evs ->
        List.iter
          (fun e ->
            Format.fprintf ppf "%s%-*s %8.3f ms  (+%.3f ms)@."
              (String.concat "" (List.init e.depth (fun _ -> "  ")))
              (max 1 (32 - (2 * e.depth)))
              e.name e.dur_ms e.start_ms)
          evs
end

let reset () =
  locked registry_mu (fun () ->
      Hashtbl.fold (fun _ m acc -> m :: acc) registry [])
  |> List.iter (fun m ->
         match m with
         | C c -> Atomic.set c.c_v 0
         | G g -> Atomic.set g.g_v 0.0
         | H h ->
             Array.iter (fun a -> Atomic.set a 0) h.h_counts;
             Atomic.set h.h_sum 0.0;
             Atomic.set h.h_count 0);
  Span.clear ()

(* ------------------------------------------------------------------ *)
(* Exporters                                                          *)
(* ------------------------------------------------------------------ *)

module Export = struct
  let float_str v =
    if Float.is_integer v && Float.abs v < 1e15 then
      Printf.sprintf "%.0f" v
    else Printf.sprintf "%g" v

  let bound_str b = if b = infinity then "inf" else float_str b

  let to_table () =
    let b = Buffer.create 512 in
    let width =
      List.fold_left (fun w (n, _) -> max w (String.length n)) 24 (snapshot ())
    in
    List.iter
      (fun (name, v) ->
        match v with
        | Counter n -> Printf.bprintf b "%-*s  %d\n" width name n
        | Gauge g -> Printf.bprintf b "%-*s  %s\n" width name (float_str g)
        | Histogram { sum; count; buckets } ->
            Printf.bprintf b "%-*s  count=%d sum=%s\n" width name count
              (float_str sum);
            List.iter
              (fun (bound, c) ->
                Printf.bprintf b "%-*s    le=%s: %d\n" width "" (bound_str bound)
                  c)
              buckets)
      (snapshot ());
    Buffer.contents b

  let json_escape s =
    let b = Buffer.create (String.length s + 2) in
    String.iter
      (fun ch ->
        match ch with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | c when Char.code c < 0x20 ->
            Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b

  let to_json_lines () =
    let b = Buffer.create 512 in
    List.iter
      (fun (name, v) ->
        let name = json_escape name in
        match v with
        | Counter n ->
            Printf.bprintf b "{\"type\":\"counter\",\"name\":\"%s\",\"value\":%d}\n"
              name n
        | Gauge g ->
            Printf.bprintf b "{\"type\":\"gauge\",\"name\":\"%s\",\"value\":%s}\n"
              name (float_str g)
        | Histogram { sum; count; buckets } ->
            Printf.bprintf b
              "{\"type\":\"histogram\",\"name\":\"%s\",\"count\":%d,\"sum\":%s,\"buckets\":[%s]}\n"
              name count (float_str sum)
              (String.concat ","
                 (List.map
                    (fun (bound, c) ->
                      if bound = infinity then Printf.sprintf "[\"inf\",%d]" c
                      else Printf.sprintf "[%s,%d]" (float_str bound) c)
                    buckets)))
      (snapshot ());
    Buffer.contents b

  let to_prometheus () =
    let b = Buffer.create 512 in
    List.iter
      (fun (name, v) ->
        match v with
        | Counter n ->
            Printf.bprintf b "# TYPE %s counter\n%s %d\n" name name n
        | Gauge g ->
            Printf.bprintf b "# TYPE %s gauge\n%s %s\n" name name (float_str g)
        | Histogram { sum; count; buckets } ->
            Printf.bprintf b "# TYPE %s histogram\n" name;
            List.iter
              (fun (bound, c) ->
                Printf.bprintf b "%s_bucket{le=\"%s\"} %d\n" name
                  (if bound = infinity then "+Inf" else float_str bound)
                  c)
              buckets;
            Printf.bprintf b "%s_sum %s\n" name (float_str sum);
            Printf.bprintf b "%s_count %d\n" name count)
      (snapshot ());
    Buffer.contents b
end
