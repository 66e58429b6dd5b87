type 'a t = {
  mu : Mutex.t;
  cap : int;
  slots : 'a option array;
  mutable total : int;
}

let create ~capacity =
  let cap = max 1 capacity in
  { mu = Mutex.create (); cap; slots = Array.make cap None; total = 0 }

let push t make =
  Mutex.protect t.mu (fun () ->
      t.slots.(t.total mod t.cap) <- Some (make t.total);
      t.total <- t.total + 1)

let count t = Mutex.protect t.mu (fun () -> t.total)
let capacity t = t.cap

let recent t n =
  Mutex.protect t.mu (fun () ->
      let n = min (max 0 n) (min t.total t.cap) in
      List.init n (fun i ->
          match t.slots.((t.total - 1 - i) mod t.cap) with
          | Some x -> x
          | None -> assert false))
