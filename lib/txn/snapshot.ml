type t = { snap_xmin : int; snap_xmax : int; in_progress : int array }

let make ~snap_xmax ~in_progress =
  let in_progress = Array.of_list in_progress in
  Array.sort Int.compare in_progress;
  let snap_xmin =
    if Array.length in_progress = 0 then snap_xmax else in_progress.(0)
  in
  { snap_xmin; snap_xmax; in_progress }

(* binary search over the sorted in-progress xids *)
let running t xid =
  let a = t.in_progress in
  let rec go lo hi =
    lo < hi
    &&
    let mid = (lo + hi) lsr 1 in
    let m = Array.unsafe_get a mid in
    if m = xid then true else if m < xid then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length a)

let sees_xid t xid =
  xid < t.snap_xmin || (xid < t.snap_xmax && not (running t xid))
