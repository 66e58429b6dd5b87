(* Tests for the transaction manager: MVCC visibility, snapshot
   isolation conflicts, write sets, WAL interaction. *)

open Ifdb_txn
module Heap = Ifdb_storage.Heap
module Buffer_pool = Ifdb_storage.Buffer_pool
module Wal = Ifdb_storage.Wal
module Value = Ifdb_rel.Value
module Tuple = Ifdb_rel.Tuple
module Label = Ifdb_difc.Label
module Tag = Ifdb_difc.Tag

let fresh () =
  let bp = Buffer_pool.create () in
  let h = Heap.create ~name:"t" ~labeled:true ~pool:bp () in
  let m = Manager.create () in
  (m, h)

let tuple ?(label = Label.empty) ?(label_id = 0) i =
  Tuple.make_interned ~values:[| Value.Int i |] ~label ~label_id

let visible_ints m txn h =
  let acc = ref [] in
  Heap.iter h (fun v ->
      if Manager.visible m txn v then
        acc := Value.to_int (Tuple.get v.Heap.tuple 0) :: !acc);
  List.sort Int.compare !acc

let test_own_writes_visible () =
  let m, h = fresh () in
  let t = Manager.begin_txn m in
  ignore (Manager.record_insert m t h (tuple 1));
  Alcotest.(check (list int)) "sees own insert" [ 1 ] (visible_ints m t h);
  Manager.commit m t;
  let t2 = Manager.begin_txn m in
  Alcotest.(check (list int)) "committed visible later" [ 1 ] (visible_ints m t2 h)

let test_snapshot_isolation_reads () =
  let m, h = fresh () in
  (* t1 commits before t2 starts: visible.  t3 commits after t2
     started: invisible to t2. *)
  let t1 = Manager.begin_txn m in
  ignore (Manager.record_insert m t1 h (tuple 1));
  Manager.commit m t1;
  let t2 = Manager.begin_txn m in
  let t3 = Manager.begin_txn m in
  ignore (Manager.record_insert m t3 h (tuple 3));
  Alcotest.(check (list int)) "uncommitted invisible" [ 1 ] (visible_ints m t2 h);
  Manager.commit m t3;
  Alcotest.(check (list int)) "still invisible after commit (snapshot)" [ 1 ]
    (visible_ints m t2 h);
  let t4 = Manager.begin_txn m in
  Alcotest.(check (list int)) "new snapshot sees both" [ 1; 3 ] (visible_ints m t4 h)

let test_concurrent_in_progress_invisible () =
  let m, h = fresh () in
  (* t1 starts first, inserts, is still open when t2 starts *)
  let t1 = Manager.begin_txn m in
  ignore (Manager.record_insert m t1 h (tuple 7));
  let t2 = Manager.begin_txn m in
  Manager.commit m t1;
  (* t1 was in progress when t2's snapshot was taken *)
  Alcotest.(check (list int)) "in-progress at snapshot invisible" []
    (visible_ints m t2 h)

let test_aborted_invisible () =
  let m, h = fresh () in
  let t1 = Manager.begin_txn m in
  ignore (Manager.record_insert m t1 h (tuple 9));
  Manager.abort m t1;
  let t2 = Manager.begin_txn m in
  Alcotest.(check (list int)) "aborted insert invisible" [] (visible_ints m t2 h)

let test_delete_visibility () =
  let m, h = fresh () in
  let t1 = Manager.begin_txn m in
  let v = Manager.record_insert m t1 h (tuple 5) in
  Manager.commit m t1;
  let t2 = Manager.begin_txn m in
  Manager.record_delete m t2 h v;
  Alcotest.(check (list int)) "deleter no longer sees it" [] (visible_ints m t2 h);
  (* a reader with an older behavior: new txn before commit of t2 *)
  let t3 = Manager.begin_txn m in
  Alcotest.(check (list int)) "concurrent deleter invisible to reader" [ 5 ]
    (visible_ints m t3 h);
  Manager.commit m t2;
  Alcotest.(check (list int)) "snapshot still sees it" [ 5 ] (visible_ints m t3 h);
  let t4 = Manager.begin_txn m in
  Alcotest.(check (list int)) "gone for new snapshot" [] (visible_ints m t4 h)

let test_abort_undoes_delete_stamp () =
  let m, h = fresh () in
  let t1 = Manager.begin_txn m in
  let v = Manager.record_insert m t1 h (tuple 5) in
  Manager.commit m t1;
  let t2 = Manager.begin_txn m in
  Manager.record_delete m t2 h v;
  Manager.abort m t2;
  Alcotest.(check int) "xmax cleared" 0 (Heap.get h v.Heap.vid).Heap.xmax;
  let t3 = Manager.begin_txn m in
  Alcotest.(check (list int)) "tuple survives aborted delete" [ 5 ]
    (visible_ints m t3 h);
  (* and a new deleter is not blocked *)
  Manager.record_delete m t3 h v;
  Manager.commit m t3

let test_first_updater_wins_in_progress () =
  let m, h = fresh () in
  let t0 = Manager.begin_txn m in
  let v = Manager.record_insert m t0 h (tuple 1) in
  Manager.commit m t0;
  let t1 = Manager.begin_txn m in
  let t2 = Manager.begin_txn m in
  Manager.record_delete m t1 h v;
  (match Manager.record_delete m t2 h v with
  | exception Manager.Serialization_failure _ -> ()
  | () -> Alcotest.fail "expected Serialization_failure (concurrent writer)");
  Manager.abort m t2;
  Manager.commit m t1

let test_first_updater_wins_committed () =
  let m, h = fresh () in
  let t0 = Manager.begin_txn m in
  let v = Manager.record_insert m t0 h (tuple 1) in
  Manager.commit m t0;
  let t1 = Manager.begin_txn m in
  let t2 = Manager.begin_txn m in
  Manager.record_delete m t1 h v;
  Manager.commit m t1;
  (* t2 still sees v (snapshot), but updating it must fail *)
  (match Manager.record_delete m t2 h v with
  | exception Manager.Serialization_failure _ -> ()
  | () -> Alcotest.fail "expected Serialization_failure (committed after snapshot)")

let test_delete_requires_visibility () =
  let m, h = fresh () in
  let t1 = Manager.begin_txn m in
  let v = Manager.record_insert m t1 h (tuple 1) in
  let t2 = Manager.begin_txn m in
  (match Manager.record_delete m t2 h v with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "expected Invalid_argument (not visible)");
  Manager.abort m t2;
  Manager.commit m t1

let test_write_set_labels () =
  let m, h = fresh () in
  let red = Label.singleton (Tag.of_int 1) in
  let t = Manager.begin_txn m in
  ignore (Manager.record_insert m t h (tuple ~label:red ~label_id:1 1));
  ignore (Manager.record_insert m t h (tuple 2));
  let ws = Manager.writes t in
  Alcotest.(check int) "two writes" 2 (List.length ws);
  (match ws with
  | [ w1; w2 ] ->
      Alcotest.(check bool) "first labeled" true (Label.equal w1.Manager.w_label red);
      Alcotest.(check bool) "second public" true (Label.is_empty w2.Manager.w_label);
      Alcotest.(check bool) "kinds" true
        (w1.Manager.w_kind = `Insert && w2.Manager.w_kind = `Insert)
  | _ -> Alcotest.fail "write set shape");
  Manager.commit m t

let test_wal_commit_fsync () =
  let wal = Wal.create () in
  let m = Manager.create ~wal () in
  let bp = Buffer_pool.create () in
  let h = Heap.create ~name:"t" ~labeled:true ~pool:bp () in
  let t = Manager.begin_txn m in
  for i = 1 to 200 do
    ignore (Manager.record_insert m t h (tuple i))
  done;
  Manager.commit m t;
  let s = Wal.stats wal in
  Alcotest.(check int) "one fsync for 200 inserts (group commit)" 1 s.Wal.fsyncs;
  Alcotest.(check int) "202 records" 202 s.Wal.records

(* Regression (PR 3 satellite): a read-only transaction must be
   WAL-free end to end — the Begin record is logged lazily on the first
   write, so commit has nothing to make durable and charges no fsync. *)
let test_readonly_commit_walfree () =
  let wal = Wal.create () in
  let m = Manager.create ~wal () in
  let t = Manager.begin_txn m in
  Manager.commit m t;
  let s = Wal.stats wal in
  Alcotest.(check int) "read-only commit: no records" 0 s.Wal.records;
  Alcotest.(check int) "read-only commit: no fsync" 0 s.Wal.fsyncs;
  let t2 = Manager.begin_txn m in
  Manager.abort m t2;
  Alcotest.(check int) "read-only abort: no records" 0 (Wal.stats wal).Wal.records;
  (* a writing transaction still logs Begin, the write, and Commit *)
  let bp = Buffer_pool.create () in
  let h = Heap.create ~name:"t" ~labeled:true ~pool:bp () in
  let t3 = Manager.begin_txn m in
  ignore (Manager.record_insert m t3 h (tuple 1));
  Manager.commit m t3;
  let s = Wal.stats wal in
  Alcotest.(check int) "writer: Begin+Insert+Commit" 3 s.Wal.records;
  Alcotest.(check int) "writer: one fsync" 1 s.Wal.fsyncs

let test_abort_path_records () =
  let wal = Wal.create () in
  let m = Manager.create ~wal () in
  let bp = Buffer_pool.create () in
  let h = Heap.create ~name:"t" ~labeled:true ~pool:bp () in
  let t = Manager.begin_txn m in
  ignore (Manager.record_insert m t h (tuple 1));
  Manager.abort m t;
  let s = Wal.stats wal in
  Alcotest.(check int) "Begin+Insert+Abort" 3 s.Wal.records;
  Alcotest.(check int) "abort never fsyncs" 0 s.Wal.fsyncs;
  (match Wal.recent wal 3 with
  | [ Wal.Abort a; Wal.Insert ("t", _, _); Wal.Begin b ] ->
      Alcotest.(check int) "abort xid" (Manager.xid t) a;
      Alcotest.(check int) "begin xid" (Manager.xid t) b
  | _ -> Alcotest.fail "unexpected WAL tail for aborted writer")

let test_record_inserts_batch () =
  (* batched insert path: identical WAL accounting and write set as the
     per-tuple path *)
  let wal_a = Wal.create () and wal_b = Wal.create () in
  let ma = Manager.create ~wal:wal_a () and mb = Manager.create ~wal:wal_b () in
  let bp = Buffer_pool.create () in
  let ha = Heap.create ~name:"t" ~labeled:true ~pool:bp () in
  let hb = Heap.create ~name:"t" ~labeled:true ~pool:bp () in
  let rows = List.init 5 (fun i -> tuple (i + 1)) in
  let ta = Manager.begin_txn ma in
  List.iter (fun tp -> ignore (Manager.record_insert ma ta ha tp)) rows;
  Manager.commit ma ta;
  let tb = Manager.begin_txn mb in
  let versions = Manager.record_inserts mb tb hb rows in
  Alcotest.(check (list int)) "vids in order" [ 0; 1; 2; 3; 4 ]
    (List.map (fun (v : Heap.version) -> v.Heap.vid) versions);
  Alcotest.(check int) "write set size" 5 (List.length (Manager.writes tb));
  Manager.commit mb tb;
  let sa = Wal.stats wal_a and sb = Wal.stats wal_b in
  Alcotest.(check int) "same records" sa.Wal.records sb.Wal.records;
  Alcotest.(check int) "same bytes" sa.Wal.bytes sb.Wal.bytes;
  Alcotest.(check int) "same fsyncs" sa.Wal.fsyncs sb.Wal.fsyncs

let test_group_commit_deterministic () =
  let wal = Wal.create () in
  let m = Manager.create ~wal ~commit_batch:4 () in
  let bp = Buffer_pool.create () in
  let h = Heap.create ~name:"t" ~labeled:true ~pool:bp () in
  for i = 1 to 10 do
    let t = Manager.begin_txn m in
    ignore (Manager.record_insert m t h (tuple i));
    Manager.commit m t
  done;
  (* every 4th commit flushes: commits 4 and 8; 9 and 10 still pending *)
  Alcotest.(check int) "coalesced fsyncs" 2 (Wal.stats wal).Wal.fsyncs;
  Alcotest.(check int) "pending commits" 2
    (Group_commit.pending (Manager.group_commit m));
  Manager.flush_wal m;
  Alcotest.(check int) "flush forces the remainder" 3 (Wal.stats wal).Wal.fsyncs;
  Alcotest.(check int) "nothing pending" 0
    (Group_commit.pending (Manager.group_commit m));
  let gs = Group_commit.stats (Manager.group_commit m) in
  Alcotest.(check int) "submitted" 10 gs.Group_commit.gc_submitted;
  Alcotest.(check int) "batches" 3 gs.Group_commit.gc_batches;
  Alcotest.(check int) "max batch" 4 gs.Group_commit.gc_max_batch;
  (* read-only commits do not enter the queue at all *)
  let t = Manager.begin_txn m in
  Manager.commit m t;
  Alcotest.(check int) "read-only not submitted" 10
    (Group_commit.stats (Manager.group_commit m)).Group_commit.gc_submitted

let test_group_commit_sync_durable () =
  (* synchronous leader/follower mode on a single thread: each commit
     returns durable (it leads its own batch of one) *)
  let wal = Wal.create () in
  let m = Manager.create ~wal ~commit_batch:4 ~sync_commit:true () in
  let bp = Buffer_pool.create () in
  let h = Heap.create ~name:"t" ~labeled:true ~pool:bp () in
  for i = 1 to 3 do
    let t = Manager.begin_txn m in
    ignore (Manager.record_insert m t h (tuple i));
    Manager.commit m t;
    Alcotest.(check int) "durable on return" 0
      (Group_commit.pending (Manager.group_commit m))
  done;
  Alcotest.(check int) "no coalescing without concurrency" 3
    (Wal.stats wal).Wal.fsyncs

let test_with_txn () =
  let m, h = fresh () in
  let r = Manager.with_txn m (fun t ->
      ignore (Manager.record_insert m t h (tuple 1));
      "ok")
  in
  Alcotest.(check string) "result" "ok" r;
  (match Manager.with_txn m (fun t ->
       ignore (Manager.record_insert m t h (tuple 2));
       failwith "boom")
   with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "exception should propagate");
  let t = Manager.begin_txn m in
  Alcotest.(check (list int)) "committed 1, rolled back 2" [ 1 ]
    (visible_ints m t h)

let test_double_commit_rejected () =
  let m, _h = fresh () in
  let t = Manager.begin_txn m in
  Manager.commit m t;
  (match Manager.commit m t with
  | exception Manager.Not_in_progress _ -> ()
  | () -> Alcotest.fail "expected Not_in_progress");
  (* abort after commit is a no-op, not an error *)
  Manager.abort m t

let test_oldest_visible_xid () =
  let m, h = fresh () in
  let t1 = Manager.begin_txn m in
  let old_horizon = Manager.oldest_visible_xid m in
  Alcotest.(check bool) "horizon at t1" true (old_horizon <= Manager.xid t1);
  ignore (Manager.record_insert m t1 h (tuple 1));
  Manager.commit m t1;
  let t2 = Manager.begin_txn m in
  Alcotest.(check bool) "horizon advanced" true
    (Manager.oldest_visible_xid m > Manager.xid t1);
  Manager.commit m t2;
  Alcotest.(check int) "no open txns: horizon = next xid"
    (Manager.xid t2 + 1) (Manager.oldest_visible_xid m);
  (* t4's snapshot was taken while t3 ran, so t3's deletes stay visible
     to it after t3 commits: the horizon must not pass t3 *)
  let t3 = Manager.begin_txn m in
  let t4 = Manager.begin_txn m in
  Manager.commit m t3;
  Alcotest.(check bool) "horizon held by a snapshot that saw t3 running" true
    (Manager.oldest_visible_xid m <= Manager.xid t3);
  Manager.commit m t4

let test_vacuum_with_horizon () =
  let m, h = fresh () in
  let t1 = Manager.begin_txn m in
  let v = Manager.record_insert m t1 h (tuple 1) in
  Manager.commit m t1;
  let t2 = Manager.begin_txn m in
  Manager.record_delete m t2 h v;
  Manager.commit m t2;
  (* version deleted by a committed txn older than every snapshot *)
  let horizon = Manager.oldest_visible_xid m in
  let dead (ver : Heap.version) =
    (ver.Heap.xmax <> 0
     && Manager.status_of m ver.Heap.xmax = Manager.Committed
     && ver.Heap.xmax < horizon)
    || Manager.status_of m ver.Heap.xmin = Manager.Aborted
  in
  Alcotest.(check int) "one dead version" 1
    (Heap.vacuum_retired h ~dead ~on_reclaim:ignore);
  Alcotest.(check int) "heap empty" 0 (Heap.version_count h)

let status =
  Alcotest.testable
    (fun ppf s ->
      Fmt.string ppf
        (match s with
        | Manager.In_progress -> "in progress"
        | Manager.Committed -> "committed"
        | Manager.Aborted -> "aborted"))
    ( = )

(* The commit log reads never-begun xids as aborted, and keeps every
   status across growth past its initial size. *)
let test_commit_log () =
  let m, _h = fresh () in
  List.iter
    (fun (what, xid) ->
      Alcotest.check status what Manager.Aborted (Manager.status_of m xid))
    [ ("negative", -1); ("zero", 0); ("not yet begun", 1);
      ("far past the end", 1_000_000); ("max_int", max_int);
      ("min_int", min_int) ];
  let expected i =
    if i mod 100 = 7 then Manager.In_progress
    else if i mod 2 = 0 then Manager.Committed
    else Manager.Aborted
  in
  let txns =
    Array.init 3000 (fun i ->
        let t = Manager.begin_txn m in
        (match expected i with
        | Manager.Committed -> Manager.commit m t
        | Manager.Aborted -> Manager.abort m t
        | Manager.In_progress -> ());
        t)
  in
  Array.iteri
    (fun i t ->
      Alcotest.check status
        (Printf.sprintf "xid %d" (Manager.xid t))
        (expected i)
        (Manager.status_of m (Manager.xid t)))
    txns;
  Alcotest.check status "next xid" Manager.Aborted
    (Manager.status_of m (Manager.xid txns.(2999) + 1))

(* Snapshot bounds against a list-based reference: an xid is seen when
   it is below [snap_xmax] and was not running; [snap_xmin] is the
   smallest running xid, or [snap_xmax] when none ran. *)
let snapshot_prop =
  let gen =
    QCheck.Gen.(
      let* snap_xmax = int_range 1 300 in
      let+ running = list_size (int_bound 20) (int_range 1 snap_xmax) in
      (* distinct, below the bound, descending: [make] must sort *)
      ( snap_xmax,
        List.filter (fun x -> x < snap_xmax) running
        |> List.sort_uniq Int.compare |> List.rev ))
  in
  let print (snap_xmax, running) =
    Printf.sprintf "snap_xmax %d, running [%s]" snap_xmax
      (String.concat ";" (List.map string_of_int running))
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"sees_xid = list reference"
       (QCheck.make ~print gen) (fun (snap_xmax, running) ->
         let s = Snapshot.make ~snap_xmax ~in_progress:running in
         s.Snapshot.snap_xmin
         = List.fold_left min snap_xmax running
         && List.for_all
              (fun x ->
                Snapshot.sees_xid s x
                = (x < snap_xmax && not (List.mem x running)))
              (List.init (snap_xmax + 10) (fun i -> i - 5))))

(* Model-based MVCC property: a random history of single-operation
   transactions (insert / delete-by-value, committed or aborted) must
   leave a fresh snapshot seeing exactly what a naive sequential model
   of the committed operations predicts. *)
let mvcc_model_prop =
  let op_gen =
    QCheck.Gen.(
      list_size (int_bound 40)
        (triple (int_bound 1) (int_range 0 9) bool))
    (* (0=insert | 1=delete-one), value, commit? *)
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:80 ~name:"snapshot = sequential model"
       (QCheck.make op_gen) (fun ops ->
         let m, h = fresh () in
         let model = ref [] in
         List.iter
           (fun (kind, v, commit) ->
             let t = Manager.begin_txn m in
             (match kind with
             | 0 ->
                 ignore (Manager.record_insert m t h (tuple v));
                 if commit then model := v :: !model
             | _ -> (
                 (* delete one visible tuple holding value v, if any *)
                 let victim = ref None in
                 Heap.iter h (fun ver ->
                     if !victim = None
                        && Manager.visible m t ver
                        && Value.to_int (Tuple.get ver.Heap.tuple 0) = v
                     then victim := Some ver);
                 match !victim with
                 | Some ver ->
                     Manager.record_delete m t h ver;
                     if commit then begin
                       (* remove one occurrence from the model *)
                       let removed = ref false in
                       model :=
                         List.filter
                           (fun x ->
                             if x = v && not !removed then begin
                               removed := true;
                               false
                             end
                             else true)
                           !model
                     end
                 | None -> ()));
             if commit then Manager.commit m t else Manager.abort m t)
           ops;
         let t = Manager.begin_txn m in
         let seen = List.sort Int.compare (visible_ints m t h) in
         Manager.commit m t;
         seen = List.sort Int.compare !model))

let suites =
  [
    ("txn.properties", [ mvcc_model_prop; snapshot_prop ]);
    ("txn.commit_log", [ Alcotest.test_case "unknown xids, growth" `Quick test_commit_log ]);
    ( "txn.visibility",
      [
        Alcotest.test_case "own writes" `Quick test_own_writes_visible;
        Alcotest.test_case "snapshot reads" `Quick test_snapshot_isolation_reads;
        Alcotest.test_case "in-progress at snapshot" `Quick
          test_concurrent_in_progress_invisible;
        Alcotest.test_case "aborted invisible" `Quick test_aborted_invisible;
        Alcotest.test_case "delete visibility" `Quick test_delete_visibility;
        Alcotest.test_case "abort undoes delete stamp" `Quick
          test_abort_undoes_delete_stamp;
      ] );
    ( "txn.conflicts",
      [
        Alcotest.test_case "first-updater-wins (in progress)" `Quick
          test_first_updater_wins_in_progress;
        Alcotest.test_case "first-updater-wins (committed)" `Quick
          test_first_updater_wins_committed;
        Alcotest.test_case "delete requires visibility" `Quick
          test_delete_requires_visibility;
      ] );
    ( "txn.lifecycle",
      [
        Alcotest.test_case "write set labels" `Quick test_write_set_labels;
        Alcotest.test_case "group commit fsync" `Quick test_wal_commit_fsync;
        Alcotest.test_case "read-only commit WAL-free" `Quick
          test_readonly_commit_walfree;
        Alcotest.test_case "abort path records" `Quick test_abort_path_records;
        Alcotest.test_case "batched record_inserts" `Quick
          test_record_inserts_batch;
        Alcotest.test_case "group commit coalescing" `Quick
          test_group_commit_deterministic;
        Alcotest.test_case "group commit sync mode" `Quick
          test_group_commit_sync_durable;
        Alcotest.test_case "with_txn" `Quick test_with_txn;
        Alcotest.test_case "double commit rejected" `Quick test_double_commit_rejected;
        Alcotest.test_case "oldest visible xid" `Quick test_oldest_visible_xid;
        Alcotest.test_case "vacuum with horizon" `Quick test_vacuum_with_horizon;
      ] );
  ]
