type version = {
  vid : int;
  tuple : Ifdb_rel.Tuple.t;
  mutable xmin : int;
  mutable xmax : int;
  page : int;
}

(* One label partition of a heap: the versions carrying one interned
   label id.  [p_vids] is the partition's slice of the vid space in
   ascending order — the authoritative directory a pruned scan
   enumerates instead of filtering per tuple.  It holds every
   non-vacuumed version of the partition, and vacuumed ones until a
   vacuum pass compacts it ([compact]).  Each partition appends to its
   own page run, so tuples under one label never share a page with
   another label's. *)
type partition = {
  p_lid : int;
  mutable p_vids : int array; (* ascending; growth and compaction replace
                                 the array, never rewrite it *)
  mutable p_len : int;        (* directory entries (vacuumed included) *)
  mutable p_count : int;      (* non-vacuumed versions *)
  mutable p_live : int;       (* versions not yet deleted-and-committed *)
  mutable p_current_page : int; (* -1 until the first insert *)
  mutable p_page_used : int;
  mutable p_pages : int;
}

(* The one value a vacuumed or not-yet-used slot holds, so [slots] stores
   versions unboxed.  Compared physically; never handed out, and its
   mutable fields are never written. *)
let hole =
  {
    vid = -1;
    tuple = Ifdb_rel.Tuple.make ~values:[||] ~label:Ifdb_difc.Label.empty;
    xmin = 0;
    xmax = 0;
    page = -1;
  }

(* A confinement verdict: which non-empty partitions a scan under one
   destination label keeps, and how many it prunes. *)
type verdict = { kept : int array; pruned : int }

(* A cached verdict and the two stamps it is valid under. *)
type stamped = { s_generation : int; s_epoch : int; s_verdict : verdict }

type t = {
  heap_name : string;
  labeled : bool;
  bp : Buffer_pool.t;
  mutable slots : version array; (* [hole] where no version lives *)
  mutable len : int;
  mutable pages : int;
  (* label-id partition directory, keyed by interned label id.  A
     sequential scan reads this to decide each distinct label once
     instead of per tuple; distinct labels are few (the paper saw 0-2
     tags per tuple and a handful of label shapes per table).
     Maintained incrementally on insert, vacuum and commit/abort —
     never rebuilt by scanning the heap. *)
  parts : (int, partition) Hashtbl.t;
  (* the partition epoch: bumped whenever the set of non-empty
     partitions changes — a partition's first non-vacuumed version, or
     vacuum reclaiming its last *)
  mutable epoch : int;
  (* destination label id -> the verdict last decided for it.  Readers
     on any domain fill it, so it is guarded by [verdict_mu]. *)
  verdicts : (int, stamped) Hashtbl.t;
  verdict_mu : Mutex.t;
  (* the vacuum queue: vids retired since the last vacuum pass (or kept
     by it, their deleter not yet past the horizon).  Commits push from
     concurrent domains, so it is guarded by [retire_mu]. *)
  retire_mu : Mutex.t;
  mutable retired : int array;
  mutable n_retired : int;
}

let create ~name ~labeled ~pool () =
  {
    heap_name = name;
    labeled;
    bp = pool;
    slots = Array.make 64 hole;
    len = 0;
    pages = 0;
    parts = Hashtbl.create 8;
    epoch = 0;
    verdicts = Hashtbl.create 8;
    verdict_mu = Mutex.create ();
    retire_mu = Mutex.create ();
    retired = Array.make 16 0;
    n_retired = 0;
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

(* caller holds [retire_mu] *)
let queue_retired t vid =
  if t.n_retired >= Array.length t.retired then begin
    let bigger = Array.make (2 * Array.length t.retired) 0 in
    Array.blit t.retired 0 bigger 0 t.n_retired;
    t.retired <- bigger
  end;
  t.retired.(t.n_retired) <- vid;
  t.n_retired <- t.n_retired + 1

let retire_version t ~vid ~lid =
  Mutex.protect t.retire_mu @@ fun () ->
  (match Hashtbl.find_opt t.parts lid with
  | Some p -> if p.p_live > 0 then p.p_live <- p.p_live - 1
  | None -> ());
  queue_retired t vid

type partition_stats = {
  ps_lid : int;
  ps_versions : int; (* non-vacuumed versions *)
  ps_live : int;     (* versions not deleted-and-committed *)
  ps_pages : int;    (* pages owned *)
  ps_directory : int; (* directory entries *)
}

let partition_stats t =
  Hashtbl.fold
    (fun lid p acc ->
      if p.p_count > 0 then
        { ps_lid = lid; ps_versions = p.p_count; ps_live = p.p_live;
          ps_pages = p.p_pages; ps_directory = p.p_len }
        :: acc
      else acc)
    t.parts []
  |> List.sort (fun a b -> compare a.ps_lid b.ps_lid)

(* --- confinement verdicts -----------------------------------------

   A verdict depends on the destination label, the authority state the
   caller's decision reads, and the set of non-empty partitions.  The
   entry for a destination is stamped with the caller's generation and
   this heap's partition epoch, and is re-decided when either moved.
   Entries are few (one per reader label that scanned this heap); when
   [verdict_cap] are held the table is dropped wholesale, like the
   implicit plan cache. *)

let verdict_cap = 256

let confine t ~dst ~generation ~decide =
  Mutex.protect t.verdict_mu @@ fun () ->
  match Hashtbl.find_opt t.verdicts dst with
  | Some e when e.s_generation = generation && e.s_epoch = t.epoch ->
      e.s_verdict
  | Some _ | None ->
      let kept = ref [] and pruned = ref 0 in
      Hashtbl.iter
        (fun lid p ->
          if p.p_count > 0 then
            if decide lid then kept := lid :: !kept else incr pruned)
        t.parts;
      let kept = Array.of_list !kept in
      Array.sort Int.compare kept;
      let verdict = { kept; pruned = !pruned } in
      if Hashtbl.length t.verdicts >= verdict_cap then Hashtbl.reset t.verdicts;
      Hashtbl.replace t.verdicts dst
        { s_generation = generation; s_epoch = t.epoch; s_verdict = verdict };
      verdict

let kept_versions t kept =
  Array.fold_left
    (fun n lid ->
      match Hashtbl.find_opt t.parts lid with
      | Some p -> n + p.p_count
      | None -> n)
    0 kept

let epoch t = t.epoch
let name t = t.heap_name
let pool t = t.bp

let tuple_bytes t tuple =
  if t.labeled then Ifdb_rel.Tuple.byte_size tuple
  else Ifdb_rel.Tuple.byte_size_unlabeled tuple

let grow t =
  if t.len >= Array.length t.slots then begin
    let bigger = Array.make (2 * Array.length t.slots) hole in
    Array.blit t.slots 0 bigger 0 t.len;
    t.slots <- bigger
  end

let insert t ~xmin tuple =
  let lid = Ifdb_rel.Tuple.label_id tuple in
  if lid < 0 then
    invalid_arg
      (Printf.sprintf "Heap.insert(%s): tuple label is not interned" t.heap_name);
  let bytes = tuple_bytes t tuple in
  let p = partition_of t lid in
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
  t.slots.(t.len) <- v;
  t.len <- t.len + 1;
  if p.p_len >= Array.length p.p_vids then begin
    let bigger = Array.make (2 * Array.length p.p_vids) 0 in
    Array.blit p.p_vids 0 bigger 0 p.p_len;
    p.p_vids <- bigger
  end;
  p.p_vids.(p.p_len) <- v.vid;
  p.p_len <- p.p_len + 1;
  if p.p_count = 0 then t.epoch <- t.epoch + 1;
  p.p_count <- p.p_count + 1;
  p.p_live <- p.p_live + 1;
  Buffer_pool.dirty t.bp v.page;
  v

let get_opt t vid =
  if vid < 0 || vid >= t.len then None
  else
    let v = t.slots.(vid) in
    if v == hole then None
    else begin
      Buffer_pool.touch t.bp v.page;
      Some v
    end

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
  let v = t.slots.(vid) in
  if v != hole && v.xmax = xid then begin
    v.xmax <- 0;
    Buffer_pool.dirty t.bp v.page
  end

let iter t f =
  let last_page = ref (-1) in
  for i = 0 to t.len - 1 do
    let v = t.slots.(i) in
    if v != hole then begin
      if v.page <> !last_page then begin
        Buffer_pool.touch t.bp v.page;
        last_page := v.page
      end;
      f v
    end
  done

let slot_count t = t.len

let version_count t =
  let n = ref 0 in
  for i = 0 to t.len - 1 do
    if t.slots.(i) != hole then incr n
  done;
  !n

let page_count t = t.pages

let reclaim t vid =
  if vid >= 0 && vid < t.len then begin
    let v = t.slots.(vid) in
    if v != hole then begin
      t.slots.(vid) <- hole;
      match Hashtbl.find_opt t.parts (Ifdb_rel.Tuple.label_id v.tuple) with
      | Some p ->
          p.p_count <- p.p_count - 1;
          if p.p_count = 0 then t.epoch <- t.epoch + 1
      | None -> ()
    end
  end

(* A partition's directory keeps the vids of versions vacuum reclaimed
   until it holds more than twice its non-vacuumed versions (and more
   than [compact_floor] entries); then it is rebuilt to hold exactly
   those, in vid order.  The rebuild reads every entry, but at least
   half of them were reclaimed since the last one, so it costs O(1) per
   reclaimed version.  It fills a new array and leaves the old one as it
   was: an open merge cursor may still be reading it. *)
let compact_floor = 16

let compact t p =
  if p.p_len > compact_floor && p.p_len > 2 * p.p_count then begin
    let vids = Array.make (max 8 p.p_count) 0 and n = ref 0 in
    for i = 0 to p.p_len - 1 do
      let vid = p.p_vids.(i) in
      if t.slots.(vid) != hole then begin
        vids.(!n) <- vid;
        incr n
      end
    done;
    p.p_vids <- vids;
    p.p_len <- !n
  end

let vacuum_retired t ~dead ~on_reclaim =
  (* take the queue and start a fresh small one: a burst of retirements
     (a bulk load's updates) must not pin a large array after the pass *)
  let vids =
    Mutex.protect t.retire_mu (fun () ->
        let vids = Array.sub t.retired 0 t.n_retired in
        t.retired <- Array.make 16 0;
        t.n_retired <- 0;
        vids)
  in
  (* one touch per distinct page: a byte per page id in the range the
     queued versions span marks the pages this pass has read *)
  let lo = ref max_int and hi = ref (-1) in
  Array.iter
    (fun vid ->
      let v = t.slots.(vid) in
      if v != hole then begin
        if v.page < !lo then lo := v.page;
        if v.page > !hi then hi := v.page
      end)
    vids;
  let seen = Bytes.make (max 0 (!hi - !lo + 1)) '\000' in
  let removed = ref 0 and kept = ref [] in
  Array.iter
    (fun vid ->
      let v = t.slots.(vid) in
      (* a hole was queued twice and already reclaimed *)
      if v != hole then begin
        if Bytes.get seen (v.page - !lo) = '\000' then begin
          Bytes.set seen (v.page - !lo) '\001';
          Buffer_pool.touch t.bp v.page
        end;
        if dead v then begin
          on_reclaim v;
          reclaim t vid;
          incr removed
        end
        else kept := vid :: !kept
      end)
    vids;
  if !kept <> [] then
    Mutex.protect t.retire_mu (fun () -> List.iter (queue_retired t) !kept);
  (* only reclaiming pushes a directory over the threshold (an insert
     adds an entry and a version alike), so the partitions this pass
     reclaimed from are the ones a check of every partition rebuilds *)
  if !removed > 0 then Hashtbl.iter (fun _ p -> compact t p) t.parts;
  !removed

let to_seq t =
  let last_page = ref (-1) in
  let rec from i () =
    if i >= t.len then Seq.Nil
    else
      let v = t.slots.(i) in
      if v == hole then from (i + 1) ()
      else begin
        if v.page <> !last_page then begin
          Buffer_pool.touch t.bp v.page;
          last_page := v.page
        end;
        Seq.Cons (v, from (i + 1))
      end
  in
  from 0

(* --- merged scans over selected partitions -------------------------

   A pruned scan enumerates only the partitions in [kept], but it
   produces versions in {e global vid order}, so its output order does
   not depend on how labels interleave (the parallel executor compares
   exact output order against the serial scan).  Each partition's vid
   directory is ascending, so merging the kept directories reproduces
   insertion order while never touching a pruned partition's slots or
   pages.

   The merge keeps one cursor per kept partition in a binary min-heap
   keyed by the cursor's next vid, and gallops: the top cursor keeps
   emitting while its vids stay below [m_bound], the smallest head among
   the other cursors, so only the end of a run consults the heap: a
   version inside a run costs O(1), one ending a run O(log k).

   A cursor reads its own copy of its partition's directory array and
   length.  Only when it has emitted the last entry of that copy does
   it re-read the partition ([refill]), so versions appended meanwhile
   are still seen, and a directory replaced by growth or compaction is
   picked up without any per-version check inside a run. *)

type cursor = {
  c_part : partition;
  mutable c_vids : int array; (* the directory array this cursor reads *)
  mutable c_len : int;        (* its length when last read *)
  mutable c_pos : int;
}

let head c = c.c_vids.(c.c_pos)

(* the first position in [vids.(0 .. len - 1)] whose vid is >= [x] *)
let search vids len x =
  let a = ref 0 and b = ref len in
  while !a < !b do
    let m = (!a + !b) / 2 in
    if vids.(m) < x then a := m + 1 else b := m
  done;
  !a

(* [c] has emitted [last], the final entry of its copy of the
   directory: re-read its partition.  The same array may have grown in
   place (appends land past the copied length); a replaced one (growth,
   compaction) is searched for the first vid past [last], so the cursor
   neither repeats nor skips a version.  Whether an entry is left. *)
let refill c ~last =
  let p = c.c_part in
  if p.p_vids == c.c_vids then c.c_pos <- c.c_pos + 1
  else begin
    c.c_vids <- p.p_vids;
    c.c_pos <- search p.p_vids p.p_len (last + 1)
  end;
  c.c_len <- p.p_len;
  c.c_pos < c.c_len

type merge = {
  m_cursors : cursor array; (* a min-heap on [head] over [0, m_size) *)
  mutable m_size : int;
  m_hi : int;               (* vids at or past [m_hi] end a cursor *)
  mutable m_bound : int;    (* the top may emit vids below this unheaped *)
  mutable m_last_page : int; (* one buffer-pool touch per page change *)
}

let sift_down m i =
  let cs = m.m_cursors and n = m.m_size in
  let c = cs.(i) in
  let h = head c in
  let rec go i =
    let l = (2 * i) + 1 in
    if l >= n then i
    else
      let r = l + 1 in
      let s = if r < n && head cs.(r) < head cs.(l) then r else l in
      if head cs.(s) >= h then i
      else begin
        cs.(i) <- cs.(s);
        go s
      end
  in
  cs.(go i) <- c

(* the smallest head below the top: one of the root's children *)
let reset_bound m =
  let cs = m.m_cursors in
  m.m_bound <-
    (match m.m_size with
    | 0 | 1 -> max_int
    | 2 -> head cs.(1)
    | _ -> min (head cs.(1)) (head cs.(2)))

(* Cursors over the kept partitions, each at its first vid >= [lo];
   partitions with no vid in [lo, hi) drop out.  Reads only the kept
   partitions' directories: no slot or page is visited here. *)
let merge_start t ~kept ~lo ~hi =
  let cursors =
    Array.fold_left
      (fun acc lid ->
        match Hashtbl.find_opt t.parts lid with
        | Some p when p.p_count > 0 ->
            let pos = search p.p_vids p.p_len lo in
            if pos < p.p_len && p.p_vids.(pos) < hi then
              { c_part = p; c_vids = p.p_vids; c_len = p.p_len; c_pos = pos }
              :: acc
            else acc
        | Some _ | None -> acc)
      [] kept
  in
  let m =
    {
      m_cursors = Array.of_list cursors;
      m_size = List.length cursors;
      m_hi = hi;
      m_bound = max_int;
      m_last_page = -1;
    }
  in
  for i = (m.m_size / 2) - 1 downto 0 do
    sift_down m i
  done;
  reset_bound m;
  m

(* The next vid in global order, or -1 once every cursor is done.  A
   cursor that reaches the end of its directory copy re-reads the
   partition, so a lazy merge sees versions a kept partition appended
   after it started, as a full scan would, and survives a compaction
   of the directory by a vacuum run while it is open. *)
let merge_next m =
  if m.m_size = 0 then -1
  else begin
    let top = m.m_cursors.(0) in
    let vid = top.c_vids.(top.c_pos) in
    let next = top.c_pos + 1 in
    (* the top's next vid, [max_int] when it has none *)
    let nv =
      if next < top.c_len then begin
        top.c_pos <- next;
        top.c_vids.(next)
      end
      else if refill top ~last:vid then top.c_vids.(top.c_pos)
      else max_int
    in
    if nv < m.m_hi then begin
      if nv > m.m_bound then begin
        (* the run ended: another cursor holds a smaller vid *)
        sift_down m 0;
        reset_bound m
      end
    end
    else begin
      (* the top is exhausted: the last cursor takes its place *)
      let last = m.m_size - 1 in
      m.m_size <- last;
      if last > 0 then begin
        m.m_cursors.(0) <- m.m_cursors.(last);
        sift_down m 0
      end;
      reset_bound m
    end;
    vid
  end

(* the slot at [vid], charging its page when the page changed; [hole]
   for a slot vacuumed since its directory entry was appended *)
let merge_fetch t m vid =
  let v = t.slots.(vid) in
  if v != hole && v.page <> m.m_last_page then begin
    Buffer_pool.touch t.bp v.page;
    m.m_last_page <- v.page
  end;
  v

let iter_merge_range t ~kept ~lo ~hi f =
  let m = merge_start t ~kept ~lo:(max 0 lo) ~hi:(min hi t.len) in
  let rec loop () =
    let vid = merge_next m in
    if vid >= 0 then begin
      let v = merge_fetch t m vid in
      if v != hole then f v;
      loop ()
    end
  in
  loop ()

let iter_merge t ~kept f = iter_merge_range t ~kept ~lo:0 ~hi:t.len f

let seq_merge t ~kept : version Seq.t =
  let m = merge_start t ~kept ~lo:0 ~hi:max_int in
  let rec next () =
    let vid = merge_next m in
    if vid < 0 then Seq.Nil
    else
      let v = merge_fetch t m vid in
      if v == hole then next () else Seq.Cons (v, next)
  in
  next
