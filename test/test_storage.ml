(* Tests for the storage layer: pages, buffer pool, MVCC heap, B+tree,
   WAL. *)

open Ifdb_storage
module Value = Ifdb_rel.Value
module Tuple = Ifdb_rel.Tuple
module Label = Ifdb_difc.Label
module Tag = Ifdb_difc.Tag

(* ------------------------------------------------------------------ *)
(* Page                                                                *)
(* ------------------------------------------------------------------ *)

let test_page_geometry () =
  Alcotest.(check int) "8k pages" 8192 Page.size;
  Alcotest.(check int) "usable" (8192 - 24) Page.usable;
  (* the paper's 89-byte Order_Line tuples: 87 per page with the
     4-byte line pointer *)
  Alcotest.(check int) "89-byte tuples" ((8192 - 24) / 93)
    (Page.tuples_per_page ~tuple_bytes:89);
  Alcotest.(check int) "huge tuple still fits one" 1
    (Page.tuples_per_page ~tuple_bytes:100_000);
  Alcotest.(check bool) "fits empty" true (Page.fits ~used:0 ~tuple_bytes:100);
  Alcotest.(check bool) "does not fit" false
    (Page.fits ~used:Page.usable ~tuple_bytes:1)

let test_page_label_cost () =
  (* Each tag shrinks tuples-per-page: the Fig. 6 disk mechanism. *)
  let base = Page.tuples_per_page ~tuple_bytes:89 in
  let with_10_tags = Page.tuples_per_page ~tuple_bytes:(89 + 40) in
  Alcotest.(check bool) "fewer tuples per page with labels" true
    (with_10_tags < base)

(* ------------------------------------------------------------------ *)
(* Buffer pool                                                         *)
(* ------------------------------------------------------------------ *)

let test_pool_unbounded () =
  let bp = Buffer_pool.create () in
  let pages = List.init 100 (fun _ -> Buffer_pool.alloc_page bp) in
  List.iter (Buffer_pool.touch bp) pages;
  List.iter (Buffer_pool.touch bp) pages;
  let s = Buffer_pool.stats bp in
  Alcotest.(check int) "no misses" 0 s.misses;
  Alcotest.(check int) "all hits" 200 s.hits;
  Alcotest.(check int) "no io" 0 s.io_ns

let test_pool_lru_eviction () =
  let bp =
    Buffer_pool.create ~capacity_pages:(Some 2) ~miss_cost_ns:100 ~write_cost_ns:10 ()
  in
  let p0 = Buffer_pool.alloc_page bp in
  let p1 = Buffer_pool.alloc_page bp in
  let p2 = Buffer_pool.alloc_page bp in
  (* p0 was LRU and has been evicted *)
  Alcotest.(check int) "resident bounded" 2 (Buffer_pool.resident bp);
  Buffer_pool.touch bp p2;
  Buffer_pool.touch bp p1;
  let before = (Buffer_pool.stats bp).misses in
  Buffer_pool.touch bp p0;
  let s = Buffer_pool.stats bp in
  Alcotest.(check int) "miss on evicted page" (before + 1) s.misses;
  Alcotest.(check bool) "io charged" true (s.io_ns >= 100)

let test_pool_lru_order () =
  let bp = Buffer_pool.create ~capacity_pages:(Some 2) () in
  let p0 = Buffer_pool.alloc_page bp in
  let p1 = Buffer_pool.alloc_page bp in
  Buffer_pool.touch bp p0;           (* p1 is now LRU *)
  let _p2 = Buffer_pool.alloc_page bp in (* evicts p1 *)
  Buffer_pool.reset_stats bp;
  Buffer_pool.touch bp p0;
  Alcotest.(check int) "p0 still resident" 0 (Buffer_pool.stats bp).misses;
  Buffer_pool.touch bp p1;
  Alcotest.(check int) "p1 was evicted" 1 (Buffer_pool.stats bp).misses

let test_pool_dirty_writeback () =
  let bp =
    Buffer_pool.create ~capacity_pages:(Some 1) ~miss_cost_ns:0 ~write_cost_ns:77 ()
  in
  let p0 = Buffer_pool.alloc_page bp in
  Buffer_pool.dirty bp p0;
  let _p1 = Buffer_pool.alloc_page bp in (* evicts dirty p0: one write *)
  let s = Buffer_pool.stats bp in
  Alcotest.(check int) "write on dirty eviction" 1 s.page_writes;
  Alcotest.(check int) "write cost charged" 77 s.io_ns

let test_pool_flush_all () =
  let bp = Buffer_pool.create ~write_cost_ns:5 () in
  let p0 = Buffer_pool.alloc_page bp in
  let p1 = Buffer_pool.alloc_page bp in
  Buffer_pool.dirty bp p0;
  Buffer_pool.dirty bp p1;
  Buffer_pool.flush_all bp;
  Alcotest.(check int) "two writes" 2 (Buffer_pool.stats bp).page_writes;
  Buffer_pool.flush_all bp;
  Alcotest.(check int) "idempotent" 2 (Buffer_pool.stats bp).page_writes

(* The pool against an LRU model: a most-recent-first list of
   (page, dirty) capped at the capacity (none: unbounded).  Sequences
   allocate up to ~120 pages, often past the frame table's 64 initial
   frames, so growth is covered. *)
type pool_op = Alloc | Touch of int | Dirty of int | Flush

let pool_model_prop =
  let gen =
    QCheck.Gen.(
      pair
        (opt (int_range 1 8))
        (list_size (int_bound 400)
           (frequency
              [ (3, return Alloc);
                (4, map (fun i -> Touch i) nat);
                (2, map (fun i -> Dirty i) nat);
                (1, return Flush) ])))
  in
  let print (cap, ops) =
    Printf.sprintf "capacity %s, ops [%s]"
      (match cap with Some c -> string_of_int c | None -> "none")
      (String.concat "; "
         (List.map
            (function
              | Alloc -> "alloc"
              | Touch i -> Printf.sprintf "touch %d" i
              | Dirty i -> Printf.sprintf "dirty %d" i
              | Flush -> "flush")
            ops))
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"pool = LRU model"
       (QCheck.make ~print ~shrink:QCheck.Shrink.(pair nil list) gen)
       (fun (cap, ops) ->
         let bp = Buffer_pool.create ~capacity_pages:cap () in
         let cap = Option.value cap ~default:max_int in
         let lru = ref [] and hits = ref 0 and misses = ref 0 in
         let writes = ref 0 and next = ref 0 in
         let write_back dirty = if dirty then incr writes in
         let push page dirty =
           lru := (page, dirty) :: !lru;
           if List.length !lru > cap then begin
             let keep = List.filteri (fun i _ -> i < cap) !lru in
             List.iteri (fun i (_, d) -> if i >= cap then write_back d) !lru;
             lru := keep
           end
         in
         let access page ~dirty =
           match List.assoc_opt page !lru with
           | Some was_dirty ->
               incr hits;
               lru := List.remove_assoc page !lru;
               push page (was_dirty || dirty)
           | None ->
               incr misses;
               push page dirty
         in
         List.for_all
           (fun op ->
             (match op with
             | Alloc ->
                 Alcotest.(check int) "dense page ids" !next
                   (Buffer_pool.alloc_page bp);
                 push !next false;
                 incr next
             | (Touch i | Dirty i) when !next = 0 -> ignore i
             | Touch i ->
                 Buffer_pool.touch bp (i mod !next);
                 access (i mod !next) ~dirty:false
             | Dirty i ->
                 Buffer_pool.dirty bp (i mod !next);
                 access (i mod !next) ~dirty:true
             | Flush ->
                 Buffer_pool.flush_all bp;
                 List.iter (fun (_, d) -> write_back d) !lru;
                 lru := List.map (fun (p, _) -> (p, false)) !lru);
             let s = Buffer_pool.stats bp in
             s.Buffer_pool.hits = !hits
             && s.Buffer_pool.misses = !misses
             && s.Buffer_pool.page_writes = !writes
             && Buffer_pool.resident bp = List.length !lru)
           ops))

(* ------------------------------------------------------------------ *)
(* Heap                                                                *)
(* ------------------------------------------------------------------ *)

let tuple ?(label = Label.empty) vs = Tuple.make ~values:(Array.of_list vs) ~label

let test_heap_insert_get () =
  let bp = Buffer_pool.create () in
  let h = Heap.create ~name:"t" ~labeled:true ~pool:bp () in
  let v = Heap.insert h ~xmin:1 (tuple [ Value.Int 42 ]) in
  Alcotest.(check int) "vid 0" 0 v.Heap.vid;
  Alcotest.(check int) "xmin" 1 v.Heap.xmin;
  Alcotest.(check int) "xmax 0" 0 v.Heap.xmax;
  let v' = Heap.get h 0 in
  Alcotest.(check bool) "same tuple" true (Tuple.equal v.Heap.tuple v'.Heap.tuple);
  Alcotest.(check bool) "get_opt none" true (Heap.get_opt h 99 = None);
  (match Heap.get h 99 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument")

let test_heap_xmax () =
  let bp = Buffer_pool.create () in
  let h = Heap.create ~name:"t" ~labeled:true ~pool:bp () in
  let v = Heap.insert h ~xmin:1 (tuple [ Value.Int 1 ]) in
  Heap.set_xmax h ~vid:v.Heap.vid ~xid:5;
  Alcotest.(check int) "xmax set" 5 (Heap.get h 0).Heap.xmax;
  Heap.clear_xmax h ~vid:v.Heap.vid ~xid:6;
  Alcotest.(check int) "clear wrong xid no-op" 5 (Heap.get h 0).Heap.xmax;
  Heap.clear_xmax h ~vid:v.Heap.vid ~xid:5;
  Alcotest.(check int) "cleared" 0 (Heap.get h 0).Heap.xmax

let test_heap_page_packing () =
  (* identical data, labeled vs unlabeled: labels must consume pages *)
  let count = 2000 in
  let label = Label.of_ints [| 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 |] in
  let mk labeled =
    let bp = Buffer_pool.create () in
    let h = Heap.create ~name:"t" ~labeled ~pool:bp () in
    for i = 1 to count do
      ignore
        (Heap.insert h ~xmin:1
           (Tuple.make_interned ~label ~label_id:1
              ~values:[| Value.Int i; Value.Text "xxxxxxxxxx" |]))
    done;
    Heap.page_count h
  in
  let labeled_pages = mk true and unlabeled_pages = mk false in
  Alcotest.(check bool)
    (Printf.sprintf "labeled (%d) > unlabeled (%d) pages" labeled_pages unlabeled_pages)
    true (labeled_pages > unlabeled_pages)

(* A stored tuple carries an interned label id: a derived row's -1 is
   refused, while the empty label is born interned (id 0). *)
let test_heap_rejects_uninterned () =
  let bp = Buffer_pool.create () in
  let h = Heap.create ~name:"t" ~labeled:true ~pool:bp () in
  let label = Label.of_ints [| 7 |] in
  (match Heap.insert h ~xmin:1 (tuple ~label [ Value.Int 1 ]) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "an uninterned tuple must be refused");
  Alcotest.(check int) "nothing stored" 0 (Heap.version_count h);
  Alcotest.(check int) "no partition" 0 (Heap.distinct_label_count h);
  let v = Heap.insert h ~xmin:1 (tuple [ Value.Int 2 ]) in
  Alcotest.(check int) "public row stored" 0 (Tuple.label_id v.Heap.tuple)

(* Reclaim every version satisfying [dead], as a vacuum pass would;
   returns how many were removed. *)
let punch h dead =
  let vids = ref [] in
  Heap.iter h (fun v -> if dead v then vids := v.Heap.vid :: !vids);
  List.iter (Heap.reclaim h) !vids;
  List.length !vids

let test_heap_iter_vacuum () =
  let bp = Buffer_pool.create () in
  let h = Heap.create ~name:"t" ~labeled:true ~pool:bp () in
  for i = 0 to 9 do
    ignore (Heap.insert h ~xmin:1 (tuple [ Value.Int i ]))
  done;
  let seen = ref [] in
  Heap.iter h (fun v -> seen := Value.to_int (Tuple.get v.Heap.tuple 0) :: !seen);
  Alcotest.(check (list int)) "iter in order" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (List.rev !seen);
  Alcotest.(check int) "count" 10 (Heap.version_count h);
  let removed =
    punch h (fun v -> Value.to_int (Tuple.get v.Heap.tuple 0) mod 2 = 0)
  in
  Alcotest.(check int) "removed" 5 removed;
  Alcotest.(check int) "count after" 5 (Heap.version_count h);
  Alcotest.(check bool) "dead slot gone" true (Heap.get_opt h 0 = None);
  Alcotest.(check bool) "live slot stays" true (Heap.get_opt h 1 <> None)

(* Label sharding: each partition owns its page run, and a merged scan
   over the kept partitions is exactly a full scan filtered by label id,
   in vid order — before and after vacuum punches holes. *)
let test_heap_partitions () =
  let bp = Buffer_pool.create () in
  let h = Heap.create ~name:"t" ~labeled:true ~pool:bp () in
  let labels =
    [| Label.of_ints [| 1 |]; Label.of_ints [| 2 |]; Label.of_ints [| 1; 2 |] |]
  in
  for i = 0 to 599 do
    let lid = i mod 3 in
    ignore
      (Heap.insert h ~xmin:1
         (Tuple.make_interned ~label:labels.(lid) ~label_id:lid
            ~values:[| Value.Int i; Value.Text "xxxxxxxxxxxxxxxx" |]))
  done;
  let lid_of v = Tuple.label_id v.Heap.tuple in
  let pages_of lid =
    let pages = ref [] in
    Heap.iter h (fun v ->
        if lid_of v = lid && not (List.mem v.Heap.page !pages) then
          pages := v.Heap.page :: !pages);
    !pages
  in
  let stats = Heap.partition_stats h in
  Alcotest.(check (list int)) "three partitions" [ 0; 1; 2 ]
    (List.map (fun ps -> ps.Heap.ps_lid) stats);
  List.iter
    (fun ps ->
      Alcotest.(check int)
        (Printf.sprintf "partition %d owns the pages it uses" ps.Heap.ps_lid)
        ps.Heap.ps_pages
        (List.length (pages_of ps.Heap.ps_lid)))
    stats;
  List.iter
    (fun (a, b) ->
      Alcotest.(check bool)
        (Printf.sprintf "partitions %d and %d share no page" a b)
        false
        (List.exists (fun p -> List.mem p (pages_of b)) (pages_of a)))
    [ (0, 1); (0, 2); (1, 2) ];
  Alcotest.(check int) "page_count = sum of ps_pages" (Heap.page_count h)
    (List.fold_left (fun acc ps -> acc + ps.Heap.ps_pages) 0 stats);
  let check_merge phase =
    List.iter
      (fun kept ->
        let keep lid = List.mem lid kept in
        let expected = ref [] and merged = ref [] in
        Heap.iter h (fun v ->
            if keep (lid_of v) then expected := v.Heap.vid :: !expected);
        let kept = Array.of_list kept in
        Heap.iter_merge h ~kept (fun v -> merged := v.Heap.vid :: !merged);
        let name =
          Printf.sprintf "%s: iter_merge keeping [%s]" phase
            (String.concat ";" (Array.to_list (Array.map string_of_int kept)))
        in
        Alcotest.(check (list int)) name (List.rev !expected)
          (List.rev !merged);
        Alcotest.(check (list int)) (name ^ " (seq)") (List.rev !expected)
          (List.of_seq (Seq.map (fun v -> v.Heap.vid) (Heap.seq_merge h ~kept))))
      [ []; [ 0 ]; [ 1 ]; [ 2 ]; [ 0; 2 ]; [ 0; 1; 2 ] ]
  in
  check_merge "before vacuum";
  let removed =
    punch h (fun v -> Value.to_int (Tuple.get v.Heap.tuple 0) mod 5 = 0)
  in
  Alcotest.(check int) "vacuumed" 120 removed;
  check_merge "after vacuum"

(* Append a version under label id [lid]: 300-byte rows put about two
   dozen versions on a page, so partitions span pages. *)
let insert_lid h lid =
  Heap.insert h ~xmin:1
    (Tuple.make_interned ~label:(Label.of_ints [| lid + 1 |]) ~label_id:lid
       ~values:[| Value.Int (Heap.slot_count h); Value.Text (String.make 300 'x') |])

(* A heap whose version [i] carries label id [lids.(i)]. *)
let heap_of_lids lids =
  let bp = Buffer_pool.create () in
  let h = Heap.create ~name:"t" ~labeled:true ~pool:bp () in
  Array.iter (fun lid -> ignore (insert_lid h lid)) lids;
  (h, bp)

(* One vacuum pass, as the engine runs it, over the versions [dead]
   selects: each is retired (queued), then reclaimed by the pass, which
   compacts the directories it thinned out. *)
let vacuum_pass h dead =
  Heap.iter h (fun v ->
      if dead v then
        Heap.retire_version h ~vid:v.Heap.vid
          ~lid:(Tuple.label_id v.Heap.tuple));
  Heap.vacuum_retired h ~dead:(fun _ -> true) ~on_reclaim:ignore

let touches bp f =
  Buffer_pool.reset_stats bp;
  let r = f () in
  let s = Buffer_pool.stats bp in
  (r, s.Buffer_pool.hits + s.Buffer_pool.misses)

(* The reference for a merged scan: a full scan in vid order, filtered
   by label and vid range, and the touches a scan of exactly those
   versions owes — one per page change. *)
let filtered_scan h ~keep ~lo ~hi =
  let acc = ref [] in
  Heap.iter h (fun v ->
      let vid = v.Heap.vid in
      if keep (Tuple.label_id v.Heap.tuple) && vid >= lo && vid < hi then
        acc := v :: !acc);
  let vs = List.rev !acc in
  let changes, _ =
    List.fold_left
      (fun (n, last) v ->
        if v.Heap.page <> last then (n + 1, v.Heap.page) else (n, last))
      (0, -1) vs
  in
  (List.map (fun v -> v.Heap.vid) vs, changes)

type layout = Runs | Round_robin | Mixed

let gen_merge_case =
  QCheck.Gen.(
    let* k = int_range 1 64 in
    let* n = int_bound 700 in
    let* layout = oneofl [ Runs; Round_robin; Mixed ] in
    let* lids =
      match layout with
      | Runs -> return (Array.init n (fun i -> i * k / max 1 n))
      | Round_robin -> return (Array.init n (fun i -> i mod k))
      | Mixed ->
          (* runs of random length under random labels *)
          let+ runs =
            list_size (int_bound 60) (pair (int_bound (k - 1)) (int_range 1 25))
          in
          List.concat_map (fun (lid, len) -> List.init len (fun _ -> lid)) runs
          |> List.filteri (fun i _ -> i < n)
          |> Array.of_list
    in
    let* kept = array_size (return k) bool in
    let* lo = int_range (-5) (n + 5) in
    let* hi = int_range (-5) (n + 5) in
    let* vacuum_mod = int_range 0 6 in
    let* cut = int_range 0 (n + 1) in
    let* appends = list_size (int_bound 40) (int_bound (k - 1)) in
    return (layout, lids, kept, lo, hi, vacuum_mod, cut, appends))

let print_merge_case (layout, lids, kept, lo, hi, vacuum_mod, cut, appends) =
  Printf.sprintf
    "%s %d versions, keep [%s], [%d, %d), vacuum mod %d, cut %d, appends [%s]"
    (match layout with
    | Runs -> "runs"
    | Round_robin -> "round-robin"
    | Mixed -> "mixed")
    (Array.length lids)
    (String.concat ";"
       (List.filter_map Fun.id
          (List.mapi (fun i b -> if b then Some (string_of_int i) else None)
             (Array.to_list kept))))
    lo hi vacuum_mod cut
    (String.concat ";" (List.map string_of_int appends))

(* The versions a vacuum with [vacuum_mod] reclaims: none at 0, every
   one at 1, every other at 2, and all but every [vacuum_mod]-th above
   that — enough to push directories past the compaction threshold. *)
let vacuumed vacuum_mod (v : Heap.version) =
  match vacuum_mod with
  | 0 -> false
  | 1 | 2 -> v.Heap.vid mod vacuum_mod = 0
  | m -> v.Heap.vid mod m <> 0

(* Both merged scans equal a filtered full scan, in vid order and in
   buffer-pool touches, for any layout, keep set and vid range, before
   and after a vacuum pass punches holes and compacts directories.  A
   lazy merge stays open across the pass: it is pulled [cut] versions
   before it and, after versions are appended ([appends], by label id),
   to its end.  It must emit each version exactly once: the ones it had
   pulled, then the non-vacuumed versions past the last of those, where
   an appended version counts only if its partition's cursor had not run
   out (had a directory entry past that last version). *)
let heap_merge_prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"merged scans = filtered scan"
       (QCheck.make ~print:print_merge_case gen_merge_case)
       (fun (_, lids, kept, lo, hi, vacuum_mod, cut, appends) ->
         let h, bp = heap_of_lids lids in
         let keep lid = lid >= 0 && lid < Array.length kept && kept.(lid) in
         let kept_ids =
           Array.of_list
             (List.filter keep (List.init (Array.length kept) Fun.id))
         in
         let agree () =
           let vids_of f =
             touches bp (fun () ->
                 let acc = ref [] in
                 f (fun v -> acc := v.Heap.vid :: !acc);
                 List.rev !acc)
           in
           let ranged =
             vids_of (Heap.iter_merge_range h ~kept:kept_ids ~lo ~hi)
           in
           let whole = vids_of (Heap.iter_merge h ~kept:kept_ids) in
           let lazy_whole =
             touches bp (fun () ->
                 Heap.seq_merge h ~kept:kept_ids
                 |> Seq.map (fun v -> v.Heap.vid)
                 |> List.of_seq)
           in
           ranged = filtered_scan h ~keep ~lo ~hi
           && whole = filtered_scan h ~keep ~lo:0 ~hi:max_int
           && lazy_whole = whole
         in
         let before = agree () in
         (* the merge open across the vacuum pass *)
         let pull seq n =
           let rec go seq n acc =
             if n = 0 then (List.rev acc, seq)
             else
               match seq () with
               | Seq.Nil -> (List.rev acc, Seq.empty)
               | Seq.Cons (v, rest) -> go rest (n - 1) (v :: acc)
           in
           go seq n []
         in
         let (pulled, rest), touched_before =
           touches bp (fun () -> pull (Heap.seq_merge h ~kept:kept_ids) cut)
         in
         let last =
           List.fold_left (fun _ v -> v.Heap.vid) (-1) pulled
         in
         (* a partition's cursor is alive while its directory has an
            entry past [last] *)
         let alive lid =
           keep lid
           && Array.exists Fun.id
                (Array.mapi (fun vid l -> l = lid && vid > last) lids)
         in
         ignore (vacuum_pass h (vacuumed vacuum_mod));
         List.iter (fun lid -> ignore (insert_lid h lid)) appends;
         let (resumed, _), touched_after =
           touches bp (fun () -> pull rest max_int)
         in
         let expected =
           pulled
           @ List.filter
               (fun v ->
                 v.Heap.vid > last
                 && (v.Heap.vid < Array.length lids
                    || alive (Tuple.label_id v.Heap.tuple)))
               (let acc = ref [] in
                Heap.iter h (fun v ->
                    if keep (Tuple.label_id v.Heap.tuple) then acc := v :: !acc);
                List.rev !acc)
         in
         let page_changes vs =
           fst
             (List.fold_left
                (fun (n, last) v ->
                  if v.Heap.page <> last then (n + 1, v.Heap.page) else (n, last))
                (0, -1) vs)
         in
         let emitted = pulled @ resumed in
         before
         && List.map (fun v -> v.Heap.vid) emitted
            = List.map (fun v -> v.Heap.vid) expected
         && touched_before + touched_after = page_changes emitted
         && agree ()))

(* Past the threshold, a vacuum pass leaves each partition it thinned
   out with a directory of exactly its non-vacuumed versions; under the
   ratio or the floor the vacuumed entries stay.  An emptied partition's
   directory is emptied too, and refills from there. *)
let test_vacuum_compacts_directories () =
  (* label 0: 100 versions, 90 vacuumed (past the ratio); label 1: 100,
     40 vacuumed (under it); label 2: 10, 9 vacuumed (under the floor);
     label 3: 40, all vacuumed.  Round-robin, so directories interleave. *)
  let counts = [| 100; 100; 10; 40 |] in
  let lids =
    Array.of_list
      (List.concat
         (List.init 100 (fun i ->
              List.filter (fun lid -> i < counts.(lid)) [ 0; 1; 2; 3 ])))
  in
  let h, _ = heap_of_lids lids in
  let rank = Array.make (Array.length lids) 0 in
  let seen = Array.make 4 0 in
  Array.iteri
    (fun vid lid ->
      rank.(vid) <- seen.(lid);
      seen.(lid) <- seen.(lid) + 1)
    lids;
  let dead (v : Heap.version) =
    let r = rank.(v.Heap.vid) in
    match Tuple.label_id v.Heap.tuple with
    | 0 -> r mod 10 <> 0
    | 1 -> r mod 5 < 2
    | 2 -> r > 0
    | _ -> true
  in
  Alcotest.(check int) "reclaimed" (90 + 40 + 9 + 40) (vacuum_pass h dead);
  let stats () =
    List.map
      (fun ps -> (ps.Heap.ps_lid, ps.Heap.ps_versions, ps.Heap.ps_directory))
      (Heap.partition_stats h)
  in
  Alcotest.(check (list (triple int int int)))
    "(label, versions, directory entries)"
    [ (0, 10, 10); (1, 60, 100); (2, 1, 10) ]
    (stats ());
  (* the compacted directory still merges in vid order *)
  let merged =
    List.of_seq
      (Seq.map (fun v -> v.Heap.vid) (Heap.seq_merge h ~kept:[| 0; 1; 2; 3 |]))
  in
  let scanned = ref [] in
  Heap.iter h (fun v -> scanned := v.Heap.vid :: !scanned);
  Alcotest.(check (list int)) "merge = scan" (List.rev !scanned) merged;
  for _ = 1 to 5 do
    ignore (insert_lid h 3)
  done;
  Alcotest.(check (list (triple int int int)))
    "the emptied partition refills from an empty directory"
    [ (0, 10, 10); (1, 60, 100); (2, 1, 10); (3, 5, 5) ]
    (stats ())

(* [seq_merge] stays lazy: the first version of a 60k-version heap in 64
   interleaved partitions costs one page, not a pass over the heap. *)
let test_seq_merge_lazy () =
  let h, bp = heap_of_lids (Array.init 60_000 (fun i -> i mod 64)) in
  let first, n =
    touches bp (fun () ->
        Heap.seq_merge h ~kept:(Array.init 64 Fun.id)
        |> Seq.take 1
        |> Seq.map (fun v -> v.Heap.vid)
        |> List.of_seq)
  in
  Alcotest.(check (list int)) "first version in vid order" [ 0 ] first;
  Alcotest.(check bool) (Printf.sprintf "%d page touches" n) true (n <= 2)

(* ------------------------------------------------------------------ *)
(* B+tree                                                              *)
(* ------------------------------------------------------------------ *)

let k1 i = [| Value.Int i |]
let k2 i s = [| Value.Int i; Value.Text s |]

let test_btree_basic () =
  let bt = Btree.create ~order:4 () in
  for i = 1 to 100 do
    Btree.insert bt (k1 i) (i * 10)
  done;
  Alcotest.(check (list int)) "find" [ 420 ] (Btree.find bt (k1 42));
  Alcotest.(check (list int)) "absent" [] (Btree.find bt (k1 0));
  Alcotest.(check int) "entries" 100 (Btree.entry_count bt);
  Alcotest.(check bool) "deep" true (Btree.depth bt > 1);
  (match Btree.check_invariants bt with
  | Ok () -> ()
  | Error e -> Alcotest.fail e)

let test_btree_duplicates () =
  let bt = Btree.create () in
  Btree.insert bt (k1 7) 1;
  Btree.insert bt (k1 7) 2;
  Btree.insert bt (k1 7) 2;
  (* duplicate posting ignored *)
  Alcotest.(check int) "entries" 2 (Btree.entry_count bt);
  Alcotest.(check (list int)) "both" [ 1; 2 ]
    (List.sort Int.compare (Btree.find bt (k1 7)));
  Btree.remove bt (k1 7) 1;
  Alcotest.(check (list int)) "one left" [ 2 ] (Btree.find bt (k1 7));
  Btree.remove bt (k1 7) 2;
  Alcotest.(check (list int)) "empty" [] (Btree.find bt (k1 7));
  Btree.remove bt (k1 7) 3 (* no-op on absent *)

let test_btree_range () =
  let bt = Btree.create ~order:4 () in
  List.iter (fun i -> Btree.insert bt (k1 i) i) [ 5; 1; 9; 3; 7; 2; 8; 4; 6 ];
  let collect lo hi =
    let acc = ref [] in
    Btree.iter_range bt ~lo ~hi (fun _ vid -> acc := vid :: !acc);
    List.rev !acc
  in
  Alcotest.(check (list int)) "incl-incl" [ 3; 4; 5; 6 ]
    (collect (Btree.Incl (k1 3)) (Btree.Incl (k1 6)));
  Alcotest.(check (list int)) "excl-excl" [ 4; 5 ]
    (collect (Btree.Excl (k1 3)) (Btree.Excl (k1 6)));
  Alcotest.(check (list int)) "unbounded lo" [ 1; 2; 3 ]
    (collect Btree.Unbounded (Btree.Incl (k1 3)));
  Alcotest.(check (list int)) "unbounded hi" [ 8; 9 ]
    (collect (Btree.Incl (k1 8)) Btree.Unbounded);
  Alcotest.(check (list int)) "all" [ 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (collect Btree.Unbounded Btree.Unbounded)

let test_btree_prefix () =
  let bt = Btree.create ~order:4 () in
  let put i s vid = Btree.insert bt (k2 i s) vid in
  put 1 "a" 10;
  put 1 "b" 11;
  put 2 "a" 20;
  put 2 "c" 21;
  put 3 "z" 30;
  let collect prefix =
    let acc = ref [] in
    Btree.iter_prefix bt ~prefix (fun _ vid -> acc := vid :: !acc);
    List.rev !acc
  in
  Alcotest.(check (list int)) "prefix 2" [ 20; 21 ] (collect [| Value.Int 2 |]);
  Alcotest.(check (list int)) "prefix 1" [ 10; 11 ] (collect [| Value.Int 1 |]);
  Alcotest.(check (list int)) "prefix absent" [] (collect [| Value.Int 9 |]);
  Alcotest.(check (list int)) "full-key prefix" [ 21 ] (collect (k2 2 "c"));
  Alcotest.(check (list int)) "empty prefix = all" [ 10; 11; 20; 21; 30 ] (collect [||])

let test_btree_prefix_range () =
  let bt = Btree.create ~order:4 () in
  for g = 0 to 2 do
    for k = 0 to 19 do
      Btree.insert bt (k2 g (Printf.sprintf "%02d" k)) ((g * 100) + k)
    done
  done;
  let collect ~lo ~hi =
    let acc = ref [] in
    Btree.iter_prefix_range bt ~prefix:[| Value.Int 1 |] ~lo ~hi (fun _ vid ->
        acc := vid :: !acc);
    List.rev !acc
  in
  Alcotest.(check (list int)) "lo incl"
    [ 117; 118; 119 ]
    (collect ~lo:(Some (Value.Text "17", true)) ~hi:None);
  Alcotest.(check (list int)) "lo excl"
    [ 118; 119 ]
    (collect ~lo:(Some (Value.Text "17", false)) ~hi:None);
  Alcotest.(check (list int)) "window"
    [ 105; 106; 107 ]
    (collect ~lo:(Some (Value.Text "05", true)) ~hi:(Some (Value.Text "08", false)));
  Alcotest.(check int) "no bounds = prefix" 20 (List.length (collect ~lo:None ~hi:None));
  Alcotest.(check (list int)) "empty window" []
    (collect ~lo:(Some (Value.Text "30", true)) ~hi:None)

(* property: iter_prefix_range agrees with filtering iter_all *)
let btree_range_model_prop =
  let gen =
    QCheck.Gen.(
      triple
        (list_size (int_bound 300) (pair (int_range 0 4) (int_range 0 30)))
        (pair (int_range 0 4) (option (pair (int_range 0 30) bool)))
        (option (pair (int_range 0 30) bool)))
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:120 ~name:"prefix-range scan matches filtered scan"
       (QCheck.make gen) (fun (entries, (prefix_g, lo), hi) ->
         let bt = Btree.create ~order:4 () in
         List.iteri
           (fun i (g, k) -> Btree.insert bt [| Value.Int g; Value.Int k |] i)
           entries;
         let lo = Option.map (fun (v, incl) -> (Value.Int v, incl)) lo in
         let hi = Option.map (fun (v, incl) -> (Value.Int v, incl)) hi in
         let got = ref [] in
         Btree.iter_prefix_range bt ~prefix:[| Value.Int prefix_g |] ~lo ~hi
           (fun _ vid -> got := vid :: !got);
         let want = ref [] in
         Btree.iter_all bt (fun key vid ->
             let g = Value.to_int key.(0) and k = Value.to_int key.(1) in
             let lo_ok =
               match lo with
               | None -> true
               | Some (v, incl) ->
                   let c = Value.compare (Value.Int k) v in
                   if incl then c >= 0 else c > 0
             in
             let hi_ok =
               match hi with
               | None -> true
               | Some (v, incl) ->
                   let c = Value.compare (Value.Int k) v in
                   if incl then c <= 0 else c < 0
             in
             if g = prefix_g && lo_ok && hi_ok then want := vid :: !want);
         List.sort Int.compare !got = List.sort Int.compare !want))

(* Model-based property test: random inserts/removes against a
   reference association table. *)
let btree_model_prop =
  let op_gen =
    QCheck.Gen.(
      list_size (int_bound 400)
        (pair (int_bound 2) (pair (int_range 0 40) (int_range 0 5))))
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:60 ~name:"btree matches model under random ops"
       (QCheck.make op_gen) (fun ops ->
         let bt = Btree.create ~order:4 () in
         let model : (int, int list) Hashtbl.t = Hashtbl.create 64 in
         List.iter
           (fun (op, (key, vid)) ->
             let cur = Option.value ~default:[] (Hashtbl.find_opt model key) in
             if op = 0 || op = 1 then begin
               Btree.insert bt (k1 key) vid;
               if not (List.mem vid cur) then Hashtbl.replace model key (vid :: cur)
             end
             else begin
               Btree.remove bt (k1 key) vid;
               Hashtbl.replace model key (List.filter (fun v -> v <> vid) cur)
             end)
           ops;
         (* full equivalence of contents *)
         let ok = ref (Btree.check_invariants bt = Ok ()) in
         Hashtbl.iter
           (fun key vids ->
             let got = List.sort Int.compare (Btree.find bt (k1 key)) in
             let want = List.sort Int.compare vids in
             if got <> want then ok := false)
           model;
         (* and the in-order scan is sorted *)
         let last = ref min_int in
         Btree.iter_all bt (fun k _ ->
             let i = Value.to_int k.(0) in
             if i < !last then ok := false;
             last := i);
         !ok))

let btree_bulk_invariant_prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:20 ~name:"btree invariants after bulk load"
       (QCheck.make QCheck.Gen.(list_size (int_bound 2000) (int_range 0 10_000)))
       (fun keys ->
         let bt = Btree.create ~order:8 () in
         List.iteri (fun i k -> Btree.insert bt (k1 k) i) keys;
         Btree.check_invariants bt = Ok ()))

(* Full tree contents including postings order (iter emits postings
   oldest-first via the List.rev in the leaf walk). *)
let tree_contents bt =
  let acc = ref [] in
  Btree.iter_all bt (fun k vid -> acc := (Value.to_int k.(0), vid) :: !acc);
  List.rev !acc

let test_btree_insert_many_basic () =
  (* a run big enough to force multi-splits and root growth at order 4,
     with duplicate keys and duplicate postings *)
  let run =
    List.concat_map (fun i -> [ (i mod 97, i); (i mod 97, i); (42, i) ])
      (List.init 500 Fun.id)
  in
  let seq = Btree.create ~order:4 () and blk = Btree.create ~order:4 () in
  List.iter (fun (k, v) -> Btree.insert seq (k1 k) v) run;
  Btree.insert_many blk (List.map (fun (k, v) -> (k1 k, v)) run);
  (match Btree.check_invariants blk with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "same entry count" (Btree.entry_count seq)
    (Btree.entry_count blk);
  Alcotest.(check bool) "identical contents and postings order" true
    (tree_contents seq = tree_contents blk);
  Alcotest.(check bool) "bulk tree is deep" true (Btree.depth blk > 1);
  (* bulk load into a non-empty tree *)
  Btree.insert_many blk [ (k1 1000, 1); (k1 7, 999) ];
  Btree.insert seq (k1 1000) 1;
  Btree.insert seq (k1 7) 999;
  Alcotest.(check bool) "incremental bulk load matches" true
    (tree_contents seq = tree_contents blk);
  Btree.insert_many blk [];
  Alcotest.(check int) "empty run is a no-op" (Btree.entry_count seq)
    (Btree.entry_count blk)

(* Two shapes of (order, seed, run): long runs that multi-split a
   shallow order-8 tree, and runs of 0-3 pairs into a deep order-4 tree
   seeded with hundreds of repeated keys, so the pairs land in long
   posting lists.  The second is what one-row INSERTs do, and the only
   shape that reaches [insert_many]'s one-pair path often. *)
let gen_insert_many_case =
  QCheck.Gen.(
    frequency
      [
        ( 1,
          map2
            (fun seed run -> (8, seed, run))
            (list_size (int_bound 120) (pair (int_bound 40) (int_bound 15)))
            (list_size (int_bound 400) (pair (int_bound 40) (int_bound 15))) );
        ( 2,
          map2
            (fun seed run -> (4, seed, run))
            (list_size (int_range 200 600)
               (pair (int_bound 60) (int_bound 100)))
            (list_size (int_bound 3) (pair (int_bound 70) (int_bound 100))) );
      ])

let btree_insert_many_equiv_prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:100
       ~name:"insert_many = sequential inserts (contents & order)"
       (QCheck.make gen_insert_many_case)
       (fun (order, seed, run) ->
         let a = Btree.create ~order () and b = Btree.create ~order () in
         List.iter
           (fun (k, v) ->
             Btree.insert a (k1 k) v;
             Btree.insert b (k1 k) v)
           seed;
         List.iter (fun (k, v) -> Btree.insert a (k1 k) v) run;
         Btree.insert_many b (List.map (fun (k, v) -> (k1 k, v)) run);
         Btree.check_invariants b = Ok ()
         && Btree.entry_count a = Btree.entry_count b
         && tree_contents a = tree_contents b))

(* ------------------------------------------------------------------ *)
(* WAL                                                                 *)
(* ------------------------------------------------------------------ *)

let test_wal_accounting () =
  let w = Wal.create ~fsync_cost_ns:1000 () in
  Wal.append w (Wal.Begin 1);
  Wal.append w (Wal.Insert ("t", 0, 50));
  Wal.append w (Wal.Commit 1);
  Wal.fsync w;
  let s = Wal.stats w in
  Alcotest.(check int) "records" 3 s.Wal.records;
  Alcotest.(check int) "bytes" (16 + 74 + 16) s.Wal.bytes;
  Alcotest.(check int) "fsyncs" 1 s.Wal.fsyncs;
  Alcotest.(check int) "io" 1000 s.Wal.io_ns;
  Alcotest.(check int) "recent" 3 (List.length (Wal.recent w 10));
  Wal.reset_stats w;
  Alcotest.(check int) "reset" 0 (Wal.stats w).Wal.records

let test_wal_bounded_memory () =
  let w = Wal.create () in
  for i = 1 to 100_000 do
    Wal.append w (Wal.Begin i)
  done;
  Alcotest.(check int) "all counted" 100_000 (Wal.stats w).Wal.records;
  Alcotest.(check bool) "recent bounded" true (List.length (Wal.recent w 10_000) <= 1024)

let test_wal_batch_append () =
  let records =
    [ Wal.Begin 1; Wal.Insert ("t", 0, 50); Wal.Insert ("t", 1, 10); Wal.Commit 1 ]
  in
  let w = Wal.create ~fsync_cost_ns:1000 () in
  Wal.append_batch w records;
  let s = Wal.stats w in
  Alcotest.(check int) "records" 4 s.Wal.records;
  Alcotest.(check int) "bytes" (16 + (24 + 50) + (24 + 10) + 16) s.Wal.bytes;
  Alcotest.(check int) "no fsync from append" 0 s.Wal.fsyncs;
  (* byte-for-byte identical accounting to per-record appends *)
  let w2 = Wal.create ~fsync_cost_ns:1000 () in
  List.iter (Wal.append w2) records;
  Alcotest.(check bool) "same stats as sequential" true (Wal.stats w2 = s);
  (* recent is newest first, batch order preserved *)
  (match Wal.recent w 2 with
  | [ Wal.Commit 1; Wal.Insert ("t", 1, 10) ] -> ()
  | _ -> Alcotest.fail "recent should return the batch tail newest first");
  Alcotest.(check int) "empty batch is a no-op" 4
    (Wal.append_batch w [];
     (Wal.stats w).Wal.records)

let suites =
  [
    ( "storage.page",
      [
        Alcotest.test_case "geometry" `Quick test_page_geometry;
        Alcotest.test_case "label cost" `Quick test_page_label_cost;
      ] );
    ( "storage.pool",
      [
        Alcotest.test_case "unbounded" `Quick test_pool_unbounded;
        Alcotest.test_case "lru eviction" `Quick test_pool_lru_eviction;
        Alcotest.test_case "lru order" `Quick test_pool_lru_order;
        Alcotest.test_case "dirty writeback" `Quick test_pool_dirty_writeback;
        Alcotest.test_case "flush_all" `Quick test_pool_flush_all;
        pool_model_prop;
      ] );
    ( "storage.heap",
      [
        Alcotest.test_case "insert/get" `Quick test_heap_insert_get;
        Alcotest.test_case "xmax stamps" `Quick test_heap_xmax;
        Alcotest.test_case "label bytes consume pages" `Quick test_heap_page_packing;
        Alcotest.test_case "uninterned tuple rejected" `Quick
          test_heap_rejects_uninterned;
        Alcotest.test_case "iter & vacuum" `Quick test_heap_iter_vacuum;
        Alcotest.test_case "label partitions" `Quick test_heap_partitions;
        heap_merge_prop;
        Alcotest.test_case "vacuum compacts partition directories" `Quick
          test_vacuum_compacts_directories;
        Alcotest.test_case "seq_merge is lazy" `Quick test_seq_merge_lazy;
      ] );
    ( "storage.btree",
      [
        Alcotest.test_case "basic" `Quick test_btree_basic;
        Alcotest.test_case "duplicates & remove" `Quick test_btree_duplicates;
        Alcotest.test_case "range scans" `Quick test_btree_range;
        Alcotest.test_case "prefix scans" `Quick test_btree_prefix;
        Alcotest.test_case "prefix-range scans" `Quick test_btree_prefix_range;
        btree_range_model_prop;
        btree_model_prop;
        btree_bulk_invariant_prop;
        Alcotest.test_case "sorted bulk load" `Quick test_btree_insert_many_basic;
        btree_insert_many_equiv_prop;
      ] );
    ( "storage.wal",
      [
        Alcotest.test_case "accounting" `Quick test_wal_accounting;
        Alcotest.test_case "bounded memory" `Quick test_wal_bounded_memory;
        Alcotest.test_case "batched append" `Quick test_wal_batch_append;
      ] );
  ]
