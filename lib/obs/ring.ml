(* The slot array is allocated on the first push, filled with that
   element, so slots hold elements unboxed: a slot at or past [total]
   is never read. *)
type 'a t = {
  mu : Mutex.t;
  cap : int;
  mutable slots : 'a array; (* [||] until the first push *)
  mutable total : int;
}

let create ~capacity =
  { mu = Mutex.create (); cap = max 1 capacity; slots = [||]; total = 0 }

let push t make =
  Mutex.protect t.mu (fun () ->
      let x = make t.total in
      if t.total = 0 then t.slots <- Array.make t.cap x
      else t.slots.(t.total mod t.cap) <- x;
      t.total <- t.total + 1)

let count t = Mutex.protect t.mu (fun () -> t.total)
let capacity t = t.cap

let recent t n =
  Mutex.protect t.mu (fun () ->
      let n = min (max 0 n) (min t.total t.cap) in
      List.init n (fun i -> t.slots.((t.total - 1 - i) mod t.cap)))
