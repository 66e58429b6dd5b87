module Span = Ifdb_obs.Span

exception Serialization_failure of string
exception Not_in_progress of string

type status = In_progress | Committed | Aborted

type write = {
  w_heap : Ifdb_storage.Heap.t;
  w_vid : int;
  w_kind : [ `Insert | `Delete ];
  w_label : Ifdb_difc.Label.t;
  w_label_id : int;
}

type txn = {
  t_xid : int;
  snapshot : Snapshot.t;
  mutable t_writes : write list; (* newest first *)
  mutable t_state : status;
  mutable t_logged : bool; (* Begin record reached the WAL *)
  mutable t_read_tables : string list;  (* S2PL read locks (serializable) *)
  mutable t_write_tables : string list; (* S2PL write locks (serializable) *)
  mutable t_lock_t0 : int; (* first S2PL acquisition, ns; 0 = none *)
}

type t = {
  the_wal : Ifdb_storage.Wal.t;
  gc : Group_commit.t;
  mu : Mutex.t;
      (* guards the commit log, [next_xid] and [open_txns]: begin,
         commit and abort all write them, and committers may run on
         concurrent domains of the pool; the record_* paths run on the
         session thread *)
  mutable clog : Bytes.t;
      (* the commit log: one byte per xid (see [status_of]); written
         under [mu], read without it *)
  mutable next_xid : int;
  mutable open_txns : txn list;
  locking : bool;
      (* table-granularity strict two-phase locking: the conservative
         implementation of serializable isolation; the paper's
         prototype runs snapshot isolation instead (section 5.1) *)
  lock_wait_ns : int Atomic.t;
      (* cumulative time spent acquiring locks: every S2PL
         acquisition check (serializable mode), plus the commit-path
         manager mutex when a sampled span context observed it.
         Exported as ifdb_lock_wait_ns_total. *)
}

(* Commit-log bytes.  A byte never written (an xid not yet begun, or
   past the log's end) reads as aborted, as PostgreSQL's clog reads an
   unknown xid as never-committed. *)
let clog_aborted = '\000'
let clog_running = '\001'
let clog_committed = '\002'

let create ?wal ?(serializable_locking = false) ?(commit_batch = 1)
    ?(sync_commit = false) () =
  let the_wal = match wal with Some w -> w | None -> Ifdb_storage.Wal.create () in
  {
    the_wal;
    gc = Group_commit.create ~batch:commit_batch ~synchronous:sync_commit the_wal;
    mu = Mutex.create ();
    clog = Bytes.make 1024 clog_aborted;
    next_xid = 1;
    open_txns = [];
    locking = serializable_locking;
    lock_wait_ns = Atomic.make 0;
  }

let wal t = t.the_wal
let group_commit t = t.gc
let lock_wait_ns t = Atomic.get t.lock_wait_ns

let flush_wal t = Group_commit.flush t.gc

let status_of t xid =
  let log = t.clog in
  if xid < 0 || xid >= Bytes.length log then Aborted
  else
    match Bytes.unsafe_get log xid with
    | '\001' -> In_progress
    | '\002' -> Committed
    | _ -> Aborted

(* Caller holds [mu], so a begin that grows the log cannot replace the
   array under a concurrent commit's write. *)
let set_status t xid c =
  let len = Bytes.length t.clog in
  if xid >= len then begin
    let bigger = Bytes.make (max (2 * len) (xid + 1)) clog_aborted in
    Bytes.blit t.clog 0 bigger 0 len;
    t.clog <- bigger
  end;
  Bytes.set t.clog xid c

let live_xids t =
  List.filter_map
    (fun txn -> if txn.t_state = In_progress then Some txn.t_xid else None)
    t.open_txns

let begin_txn t =
  Mutex.protect t.mu @@ fun () ->
  let xid = t.next_xid in
  t.next_xid <- xid + 1;
  set_status t xid clog_running;
  let txn =
    {
      t_xid = xid;
      snapshot = Snapshot.make ~snap_xmax:xid ~in_progress:(live_xids t);
      t_writes = [];
      t_state = In_progress;
      t_logged = false;
      t_read_tables = [];
      t_write_tables = [];
      t_lock_t0 = 0;
    }
  in
  t.open_txns <- txn :: t.open_txns;
  txn

let xid txn = txn.t_xid
let state txn = txn.t_state

(* The Begin record is logged lazily, on the transaction's first write:
   a read-only transaction therefore never touches the WAL — not at
   begin, not at commit, not at abort. *)
let log_begin t txn =
  if not txn.t_logged then begin
    txn.t_logged <- true;
    Ifdb_storage.Wal.append t.the_wal (Ifdb_storage.Wal.Begin txn.t_xid)
  end

let require_open txn what =
  if txn.t_state <> In_progress then
    raise
      (Not_in_progress
         (Printf.sprintf "%s: transaction %d is not in progress" what txn.t_xid))

(* Did [other_xid]'s effects land, from [txn]'s point of view?  True
   when it committed within the snapshot horizon. *)
let committed_for t txn other_xid =
  status_of t other_xid = Committed && Snapshot.sees_xid txn.snapshot other_xid

let visible t txn (v : Ifdb_storage.Heap.version) =
  let created_visible =
    v.xmin = txn.t_xid || committed_for t txn v.xmin
  in
  if not created_visible then false
  else if v.xmax = 0 then true
  else if v.xmax = txn.t_xid then false (* deleted by self *)
  else if committed_for t txn v.xmax then false
  else if status_of t v.xmax = Aborted then true
  else true (* deleter is concurrent: still visible to us *)

(* Strict 2PL over string lock keys (no-wait: a conflict with another
   open transaction raises immediately — blocking cannot work in a
   single-threaded interleaving).  Locks die with the transaction.

   Heaps lock at {e label-partition} granularity — "table#lid" — so
   differently labeled writers and readers never conflict; a per-table
   directory key "table@dir" closes the phantom-partition window: every
   full scan read-locks it, and an insert that creates a brand-new
   partition write-locks it (a partition born after a scan decided its
   pruning could otherwise carry a label the scan should have
   conflicted with). *)
let partition_key table lid = table ^ "#" ^ string_of_int lid
let directory_key table = table ^ "@dir"

(* Lock keys for a write of label id [lid] into [heap]; computed
   {e before} the insert so a new partition is still observable. *)
let write_lock_keys heap lid =
  let name = Ifdb_storage.Heap.name heap in
  if Ifdb_storage.Heap.has_partition heap lid then [ partition_key name lid ]
  else [ partition_key name lid; directory_key name ]

(* A lock key shown to the span layer: the partition suffix is an
   interned label id, so it is masked — exports must not let lock
   traffic identify a label partition (tag names stay placeholders). *)
let redact_key key =
  match String.index_opt key '#' with
  | Some i -> String.sub key 0 i ^ "#?"
  | None -> key

(* Time one no-wait acquisition check.  Locking here never blocks —
   conflicts raise immediately — so the "wait" is the check itself;
   it still accumulates into [lock_wait_ns] (conflict or not) and
   becomes a "lock.wait" span under a sampled context.  Only ever
   called in serializable mode, so the snapshot-isolation default
   reads no clock. *)
let timed_acquire t txn key check =
  let t0 = Span.now_ns () in
  if txn.t_lock_t0 = 0 then txn.t_lock_t0 <- t0;
  Fun.protect
    ~finally:(fun () ->
      let t1 = Span.now_ns () in
      ignore (Atomic.fetch_and_add t.lock_wait_ns (t1 - t0));
      match Span.current () with
      | Some ctx ->
          Span.emit ctx "lock.wait"
            ~args:[ ("lock", "s2pl"); ("key", redact_key key) ]
            ~t0 ~t1
      | None -> ())
    check

(* [note_read] and [note_write] run only under [locking]: every caller
   checks it before building a key. *)
let note_read t txn table =
  if not (List.mem table txn.t_read_tables) then
    timed_acquire t txn table (fun () ->
        List.iter
          (fun other ->
            if other != txn && other.t_state = In_progress
               && List.mem table other.t_write_tables
            then
              raise
                (Serialization_failure
                   (Printf.sprintf
                      "serializable: table %s is write-locked by transaction %d"
                      table other.t_xid)))
          t.open_txns;
        txn.t_read_tables <- table :: txn.t_read_tables)

let note_write t txn table =
  if not (List.mem table txn.t_write_tables) then
    timed_acquire t txn table (fun () ->
        List.iter
          (fun other ->
            if other != txn && other.t_state = In_progress
               && (List.mem table other.t_write_tables
                  || List.mem table other.t_read_tables)
            then
              raise
                (Serialization_failure
                   (Printf.sprintf
                      "serializable: table %s is locked by transaction %d" table
                      other.t_xid)))
          t.open_txns;
        txn.t_write_tables <- table :: txn.t_write_tables)

(* The serializability footprint of a pruned scan: the directory key (a
   partition created later might carry a label this scan should have
   conflicted with) plus each kept partition.  Pruned partitions stay
   out — a write under a label that provably does not flow to the reader
   cannot change what the scan returned. *)
let note_scan t txn heap ~kept =
  if t.locking then begin
    let name = Ifdb_storage.Heap.name heap in
    note_read t txn (directory_key name);
    Array.iter (fun lid -> note_read t txn (partition_key name lid)) kept
  end

let record_insert t txn heap tuple =
  require_open txn "record_insert";
  if t.locking then
    List.iter (note_write t txn)
      (write_lock_keys heap (Ifdb_rel.Tuple.label_id tuple));
  log_begin t txn;
  let v = Ifdb_storage.Heap.insert heap ~xmin:txn.t_xid tuple in
  Ifdb_storage.Wal.append t.the_wal
    (Ifdb_storage.Wal.Insert
       (Ifdb_storage.Heap.name heap, v.vid,
        Ifdb_storage.Heap.tuple_bytes heap tuple));
  txn.t_writes <-
    { w_heap = heap; w_vid = v.vid; w_kind = `Insert;
      w_label = Ifdb_rel.Tuple.label tuple;
      w_label_id = Ifdb_rel.Tuple.label_id tuple }
    :: txn.t_writes;
  v

(* Batched variant of [record_insert]: one heap pass, then the WAL
   records of the whole run through a single buffered batch append.
   Returns the new versions in tuple order. *)
let record_inserts t txn heap tuples =
  require_open txn "record_inserts";
  (if t.locking then
     (* one key set per distinct label in the run, computed before any
        insert lands *)
     let seen = Hashtbl.create 4 in
     List.iter
       (fun tuple ->
         let lid = Ifdb_rel.Tuple.label_id tuple in
         if not (Hashtbl.mem seen lid) then begin
           Hashtbl.add seen lid ();
           List.iter (note_write t txn) (write_lock_keys heap lid)
         end)
       tuples);
  log_begin t txn;
  let name = Ifdb_storage.Heap.name heap in
  let versions =
    List.map (fun tuple -> Ifdb_storage.Heap.insert heap ~xmin:txn.t_xid tuple)
      tuples
  in
  let records =
    List.map2
      (fun tuple (v : Ifdb_storage.Heap.version) ->
        Ifdb_storage.Wal.Insert
          (name, v.vid, Ifdb_storage.Heap.tuple_bytes heap tuple))
      tuples versions
  in
  Ifdb_storage.Wal.append_batch t.the_wal records;
  let ws =
    List.map2
      (fun tuple (v : Ifdb_storage.Heap.version) ->
        { w_heap = heap; w_vid = v.vid; w_kind = `Insert;
          w_label = Ifdb_rel.Tuple.label tuple;
          w_label_id = Ifdb_rel.Tuple.label_id tuple })
      tuples versions
  in
  (* [t_writes] is newest-first: prepending the reversed run keeps the
     overall order identical to per-tuple [record_insert] calls *)
  txn.t_writes <- List.rev_append ws txn.t_writes;
  versions

let record_delete t txn heap (v : Ifdb_storage.Heap.version) =
  require_open txn "record_delete";
  if t.locking then
    note_write t txn
      (partition_key (Ifdb_storage.Heap.name heap)
         (Ifdb_rel.Tuple.label_id v.tuple));
  log_begin t txn;
  if not (visible t txn v) then
    invalid_arg "record_delete: version not visible to this transaction";
  (match v.xmax with
  | 0 -> ()
  | other when other = txn.t_xid -> ()
  | other -> (
      match status_of t other with
      | Aborted -> () (* stale stamp from an aborted deleter *)
      | In_progress ->
          raise
            (Serialization_failure
               (Printf.sprintf
                  "tuple in %s is being updated by concurrent transaction %d"
                  (Ifdb_storage.Heap.name heap) other))
      | Committed ->
          raise
            (Serialization_failure
               (Printf.sprintf
                  "tuple in %s was updated by transaction %d after our snapshot"
                  (Ifdb_storage.Heap.name heap) other))));
  Ifdb_storage.Heap.set_xmax heap ~vid:v.vid ~xid:txn.t_xid;
  Ifdb_storage.Wal.append t.the_wal
    (Ifdb_storage.Wal.Delete (Ifdb_storage.Heap.name heap, v.vid));
  txn.t_writes <-
    { w_heap = heap; w_vid = v.vid; w_kind = `Delete;
      w_label = Ifdb_rel.Tuple.label v.tuple;
      w_label_id = Ifdb_rel.Tuple.label_id v.tuple }
    :: txn.t_writes

let writes txn = List.rev txn.t_writes

let close t txn =
  t.open_txns <- List.filter (fun o -> o.t_xid <> txn.t_xid) t.open_txns

let commit t txn =
  require_open txn "commit";
  let mark_committed () =
    txn.t_state <- Committed;
    set_status t txn.t_xid clog_committed;
    close t txn
  in
  (match Span.current () with
  | None -> Mutex.protect t.mu mark_committed
  | Some ctx ->
      (* commit-path lock attribution: how long acquiring the
         manager's commit mutex took (wait — real contention with
         concurrent committers on the domain pool) vs how long the
         critical section held it (hold).  If serializable locking
         acquired S2PL locks, their hold — first acquisition to
         commit, clipped to this statement — is recorded too. *)
      let t0 = Span.now_ns () in
      Mutex.lock t.mu;
      let t1 = Span.now_ns () in
      Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) mark_committed;
      let t2 = Span.now_ns () in
      ignore (Atomic.fetch_and_add t.lock_wait_ns (t1 - t0));
      Span.emit ctx "lock.wait" ~args:[ ("lock", "manager") ] ~t0 ~t1;
      Span.emit ctx "lock.hold" ~args:[ ("lock", "manager") ] ~t0:t1 ~t1:t2;
      if txn.t_lock_t0 > 0 then
        Span.emit ctx "lock.hold"
          ~args:[ ("lock", "s2pl") ]
          ~t0:txn.t_lock_t0 ~t1:t2);
  (* committed deletes retire their versions: out of the partition
     live counts (directory stats; scan pruning keys on the
     non-vacuumed counts, which only vacuum shrinks) and onto the
     heap's vacuum queue *)
  List.iter
    (fun w ->
      match w.w_kind with
      | `Delete ->
          Ifdb_storage.Heap.retire_version w.w_heap ~vid:w.w_vid
            ~lid:w.w_label_id
      | `Insert -> ())
    txn.t_writes;
  (* Read-only transactions never logged a Begin, so there is nothing
     to make durable: skip the WAL (and its fsync) entirely. *)
  if txn.t_logged then Group_commit.submit t.gc ~xid:txn.t_xid

let abort t txn =
  if txn.t_state = In_progress then begin
    Mutex.protect t.mu (fun () ->
        txn.t_state <- Aborted;
        set_status t txn.t_xid clog_aborted;
        close t txn);
    (* Undo delete stamps so later writers are not blocked by a ghost;
       inserted versions die via their aborted xmin (and retire now,
       like a committed delete). *)
    List.iter
      (fun w ->
        match w.w_kind with
        | `Delete -> Ifdb_storage.Heap.clear_xmax w.w_heap ~vid:w.w_vid ~xid:txn.t_xid
        | `Insert ->
            Ifdb_storage.Heap.retire_version w.w_heap ~vid:w.w_vid
              ~lid:w.w_label_id)
      txn.t_writes;
    if txn.t_logged then
      Ifdb_storage.Wal.append t.the_wal (Ifdb_storage.Wal.Abort txn.t_xid)
  end

let with_txn t f =
  let txn = begin_txn t in
  match f txn with
  | result ->
      if txn.t_state = In_progress then commit t txn;
      result
  | exception e ->
      abort t txn;
      raise e

let oldest_visible_xid t =
  Mutex.protect t.mu @@ fun () ->
  List.fold_left
    (fun acc txn -> min acc txn.snapshot.Snapshot.snap_xmin)
    t.next_xid t.open_txns
