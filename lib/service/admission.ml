type 'a t = {
  cap : int;
  q : 'a Queue.t;
  mu : Mutex.t;
  nonempty : Condition.t;
  mutable closed : bool;
}

let create ~capacity =
  if capacity < 1 then
    invalid_arg (Printf.sprintf "Admission.create: capacity = %d" capacity);
  {
    cap = capacity;
    q = Queue.create ();
    mu = Mutex.create ();
    nonempty = Condition.create ();
    closed = false;
  }

let admit t x =
  Mutex.protect t.mu @@ fun () ->
  let depth = Queue.length t.q in
  if t.closed || depth >= t.cap then Error depth
  else begin
    Queue.add x t.q;
    Condition.signal t.nonempty;
    Ok ()
  end

let take t =
  Mutex.protect t.mu @@ fun () ->
  let rec wait () =
    if not (Queue.is_empty t.q) then Some (Queue.take t.q)
    else if t.closed then None
    else begin
      Condition.wait t.nonempty t.mu;
      wait ()
    end
  in
  wait ()

let depth t = Mutex.protect t.mu (fun () -> Queue.length t.q)
let capacity t = t.cap

let close t =
  Mutex.protect t.mu @@ fun () ->
  t.closed <- true;
  Condition.broadcast t.nonempty
