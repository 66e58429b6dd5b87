type version = {
  vid : int;
  tuple : Ifdb_rel.Tuple.t;
  mutable xmin : int;
  mutable xmax : int;
  page : int;
}

(* One label partition of a heap: the versions carrying one interned
   label id (-1 groups the uninterned).  [p_vids] is the partition's
   slice of the vid space in ascending order — the authoritative
   directory a pruned scan enumerates instead of filtering per tuple.
   Each partition appends to its own page run, so tuples under one
   label never share a page with another label's. *)
type partition = {
  p_lid : int;
  mutable p_vids : int array; (* ascending, append-only *)
  mutable p_len : int;        (* appended versions (including vacuumed) *)
  mutable p_count : int;      (* non-vacuumed versions *)
  mutable p_live : int;       (* versions not yet deleted-and-committed *)
  mutable p_current_page : int; (* -1 until the first insert *)
  mutable p_page_used : int;
  mutable p_pages : int;
}

type t = {
  heap_name : string;
  labeled : bool;
  bp : Buffer_pool.t;
  mutable slots : version option array;
  mutable len : int;
  mutable pages : int;
  (* label-id partition directory, keyed by interned label id (-1
     groups the uninterned).  A sequential scan reads this to decide
     each distinct label once instead of per tuple; distinct labels are
     few (the paper saw 0-2 tags per tuple and a handful of label
     shapes per table).  Maintained incrementally on insert, vacuum and
     commit/abort — never rebuilt by scanning the heap. *)
  parts : (int, partition) Hashtbl.t;
}

let create ~name ~labeled ~pool () =
  {
    heap_name = name;
    labeled;
    bp = pool;
    slots = Array.make 64 None;
    len = 0;
    pages = 0;
    parts = Hashtbl.create 8;
  }

let partition_of t lid =
  match Hashtbl.find_opt t.parts lid with
  | Some p -> p
  | None ->
      let p =
        {
          p_lid = lid;
          p_vids = Array.make 8 0;
          p_len = 0;
          p_count = 0;
          p_live = 0;
          p_current_page = -1;
          p_page_used = 0;
          p_pages = 0;
        }
      in
      Hashtbl.add t.parts lid p;
      p

let has_partition t lid =
  match Hashtbl.find_opt t.parts lid with
  | Some p -> p.p_count > 0
  | None -> false

let iter_label_counts t f =
  Hashtbl.iter (fun lid p -> if p.p_count > 0 then f lid p.p_count) t.parts

let distinct_label_count t =
  Hashtbl.fold (fun _ p n -> if p.p_count > 0 then n + 1 else n) t.parts 0

let retire_version t ~lid =
  match Hashtbl.find_opt t.parts lid with
  | Some p -> if p.p_live > 0 then p.p_live <- p.p_live - 1
  | None -> ()

type partition_stats = {
  ps_lid : int;
  ps_versions : int; (* non-vacuumed versions *)
  ps_live : int;     (* versions not deleted-and-committed *)
  ps_pages : int;    (* pages owned *)
}

let partition_stats t =
  Hashtbl.fold
    (fun lid p acc ->
      if p.p_count > 0 then
        { ps_lid = lid; ps_versions = p.p_count; ps_live = p.p_live;
          ps_pages = p.p_pages }
        :: acc
      else acc)
    t.parts []
  |> List.sort (fun a b -> compare a.ps_lid b.ps_lid)

let name t = t.heap_name
let pool t = t.bp

let tuple_bytes t tuple =
  if t.labeled then Ifdb_rel.Tuple.byte_size tuple
  else Ifdb_rel.Tuple.byte_size_unlabeled tuple

let grow t =
  if t.len >= Array.length t.slots then begin
    let bigger = Array.make (2 * Array.length t.slots) None in
    Array.blit t.slots 0 bigger 0 t.len;
    t.slots <- bigger
  end

let insert t ~xmin tuple =
  let bytes = tuple_bytes t tuple in
  let p = partition_of t (Ifdb_rel.Tuple.label_id tuple) in
  (* per-partition page run: pruning a partition skips its pages
     entirely *)
  if
    p.p_current_page < 0
    || not (Page.fits ~used:p.p_page_used ~tuple_bytes:bytes)
  then begin
    p.p_current_page <- Buffer_pool.alloc_page t.bp;
    p.p_page_used <- 0;
    p.p_pages <- p.p_pages + 1;
    t.pages <- t.pages + 1
  end;
  p.p_page_used <- p.p_page_used + bytes + Page.item_overhead;
  grow t;
  let v = { vid = t.len; tuple; xmin; xmax = 0; page = p.p_current_page } in
  t.slots.(t.len) <- Some v;
  t.len <- t.len + 1;
  if p.p_len >= Array.length p.p_vids then begin
    let bigger = Array.make (2 * Array.length p.p_vids) 0 in
    Array.blit p.p_vids 0 bigger 0 p.p_len;
    p.p_vids <- bigger
  end;
  p.p_vids.(p.p_len) <- v.vid;
  p.p_len <- p.p_len + 1;
  p.p_count <- p.p_count + 1;
  p.p_live <- p.p_live + 1;
  Buffer_pool.dirty t.bp v.page;
  v

let get_opt t vid =
  if vid < 0 || vid >= t.len then None
  else
    match t.slots.(vid) with
    | None -> None
    | Some v ->
        Buffer_pool.touch t.bp v.page;
        Some v

let get t vid =
  match get_opt t vid with
  | Some v -> v
  | None ->
      invalid_arg
        (Printf.sprintf "Heap.get(%s): no version %d" t.heap_name vid)

let set_xmax t ~vid ~xid =
  let v = get t vid in
  v.xmax <- xid;
  Buffer_pool.dirty t.bp v.page

let clear_xmax t ~vid ~xid =
  match t.slots.(vid) with
  | Some v when v.xmax = xid ->
      v.xmax <- 0;
      Buffer_pool.dirty t.bp v.page
  | Some _ | None -> ()

let iter t f =
  let last_page = ref (-1) in
  for i = 0 to t.len - 1 do
    match t.slots.(i) with
    | None -> ()
    | Some v ->
        if v.page <> !last_page then begin
          Buffer_pool.touch t.bp v.page;
          last_page := v.page
        end;
        f v
  done

let slot_count t = t.len

let version_count t =
  let n = ref 0 in
  for i = 0 to t.len - 1 do
    if t.slots.(i) <> None then incr n
  done;
  !n

let page_count t = t.pages

let vacuum t ~dead =
  let removed = ref 0 in
  for i = 0 to t.len - 1 do
    match t.slots.(i) with
    | Some v when dead v ->
        t.slots.(i) <- None;
        (match
           Hashtbl.find_opt t.parts (Ifdb_rel.Tuple.label_id v.tuple)
         with
        | Some p -> p.p_count <- p.p_count - 1
        | None -> ());
        incr removed
    | Some _ | None -> ()
  done;
  !removed

let to_seq t =
  let last_page = ref (-1) in
  let rec from i () =
    if i >= t.len then Seq.Nil
    else
      match t.slots.(i) with
      | None -> from (i + 1) ()
      | Some v ->
          if v.page <> !last_page then begin
            Buffer_pool.touch t.bp v.page;
            last_page := v.page
          end;
          Seq.Cons (v, from (i + 1))
  in
  from 0

(* --- merged scans over selected partitions -------------------------

   A pruned scan enumerates only the partitions [keep] accepts, but it
   produces versions in {e global vid order}, so its output order does
   not depend on how labels interleave (the parallel executor compares
   exact output order against the serial scan).  Each partition's vid
   directory is ascending, so a k-way cursor merge reproduces insertion
   order while never touching a pruned partition's slots or pages. *)

(* the kept partitions, with a cursor positioned at the first vid >=
   [lo]; partitions with no vids in [lo, hi) drop out *)
let merge_cursors t ~keep ~lo ~hi =
  Hashtbl.fold
    (fun lid p acc ->
      if p.p_count > 0 && keep lid then begin
        (* binary search for the first directory position with vid >= lo *)
        let a = ref 0 and b = ref p.p_len in
        while !a < !b do
          let m = (!a + !b) / 2 in
          if p.p_vids.(m) < lo then a := m + 1 else b := m
        done;
        if !a < p.p_len && p.p_vids.(!a) < hi then (p, ref !a) :: acc
        else acc
      end
      else acc)
    t.parts []

let iter_merge_range t ~keep ~lo ~hi f =
  let lo = max 0 lo and hi = min hi t.len in
  let cursors = ref (merge_cursors t ~keep ~lo ~hi) in
  let last_page = ref (-1) in
  while !cursors <> [] do
    (* pick the cursor holding the smallest next vid; partitions are
       few, so a linear min beats a heap *)
    let best = ref (List.hd !cursors) in
    List.iter
      (fun ((p, pos) as c) ->
        let bp, bpos = !best in
        if p.p_vids.(!pos) < bp.p_vids.(!bpos) then best := c)
      (List.tl !cursors);
    let p, pos = !best in
    let vid = p.p_vids.(!pos) in
    incr pos;
    if !pos >= p.p_len || p.p_vids.(!pos) >= hi then
      cursors := List.filter (fun (q, _) -> q != p) !cursors;
    (match t.slots.(vid) with
    | None -> () (* vacuumed since the directory entry was appended *)
    | Some v ->
        if v.page <> !last_page then begin
          Buffer_pool.touch t.bp v.page;
          last_page := v.page
        end;
        f v)
  done

let iter_merge t ~keep f = iter_merge_range t ~keep ~lo:0 ~hi:t.len f

let seq_merge t ~keep : version Seq.t =
  let cursors = ref (merge_cursors t ~keep ~lo:0 ~hi:t.len) in
  let last_page = ref (-1) in
  let rec next () =
    match !cursors with
    | [] -> Seq.Nil
    | first :: rest ->
        let best = ref first in
        List.iter
          (fun ((p, pos) as c) ->
            let bp, bpos = !best in
            if p.p_vids.(!pos) < bp.p_vids.(!bpos) then best := c)
          rest;
        let p, pos = !best in
        let vid = p.p_vids.(!pos) in
        incr pos;
        if !pos >= p.p_len then
          cursors := List.filter (fun (q, _) -> q != p) !cursors;
        (match t.slots.(vid) with
        | None -> next ()
        | Some v ->
            if v.page <> !last_page then begin
              Buffer_pool.touch t.bp v.page;
              last_page := v.page
            end;
            Seq.Cons (v, next))
  in
  next
