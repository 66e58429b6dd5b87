(** The transaction manager: snapshot-isolation MVCC over {!Ifdb_storage.Heap}.

    Responsibilities:
    - assign xids and snapshots;
    - decide version visibility (standard MVCC rules, plus
      own-writes-visible);
    - detect write-write conflicts with the first-updater-wins rule
      (attempting to update or delete a version already stamped by a
      concurrent transaction — in progress or committed after our
      snapshot — raises {!Serialization_failure});
    - keep per-transaction write sets for rollback and for the IFDB
      commit-label rule (each write remembers the tuple's label so the
      rule in section 5.1 can be checked without touching pages);
    - drive the {!Ifdb_storage.Wal}: the [Begin] record is logged
      lazily on the transaction's first write, so read-only
      transactions never touch the WAL (no records, no commit fsync);
      write transactions commit through {!Group_commit}, which can
      coalesce several commit records into one fsync.

    Transaction status lives in a commit log of one byte per xid
    (PostgreSQL's clog): {!status_of} is a bounds check and a load.

    Interleaving model: the record_* paths run on the session thread,
    but {!begin_txn}, {!commit} and {!abort} are safe to call from
    concurrent domains (e.g. tasks on a domain pool): their
    bookkeeping — the commit log, the next xid and the open-transaction
    list — is mutex-guarded, and the WAL serializes internally. *)

exception Serialization_failure of string
(** A write-write conflict under snapshot isolation. *)

exception Not_in_progress of string
(** Operation on a transaction that is no longer open. *)

type status = In_progress | Committed | Aborted

type write = {
  w_heap : Ifdb_storage.Heap.t;
  w_vid : int;
  w_kind : [ `Insert | `Delete ];
  w_label : Ifdb_difc.Label.t;  (** label of the tuple written *)
  w_label_id : int;
      (** the tuple's interned label id, never [-1] (the heap stores
          only interned tuples), so the commit-label rule compares ids
          through the flow cache *)
}

type txn

type t

val create :
  ?wal:Ifdb_storage.Wal.t ->
  ?serializable_locking:bool ->
  ?commit_batch:int ->
  ?sync_commit:bool ->
  unit ->
  t
(** With [serializable_locking:true] the manager additionally enforces
    strict two-phase locking with no-wait conflict handling — a
    conservative but sound implementation of serializable isolation
    (the paper's prototype instead runs snapshot isolation plus the
    clearance rule; section 5.1).  Locks are taken per label partition
    of a table, so differently labeled transactions never conflict,
    plus one per-table partition-directory lock (see {!note_scan}).
    Scans must be reported via {!note_scan}; writes lock
    automatically.

    [commit_batch] (default 1) and [sync_commit] (default false)
    configure the {!Group_commit} queue: commit fsyncs are coalesced so
    one flush covers up to [commit_batch] transactions — see
    {!Group_commit} for the deterministic vs leader/follower modes. *)

val wal : t -> Ifdb_storage.Wal.t

val group_commit : t -> Group_commit.t
(** The commit queue in front of the WAL. *)

val flush_wal : t -> unit
(** Force an fsync over any commit records still buffered by the group
    commit queue (deterministic mode leaves up to [commit_batch - 1]
    pending). *)

val begin_txn : t -> txn
(** Assign the next xid, mark it in progress in the commit log
    (growing the log if needed) and take a snapshot of the transactions
    still open. *)

val xid : txn -> int
val state : txn -> status

val status_of : t -> int -> status
(** The xid's commit-log entry.  An xid never begun — negative, zero,
    or past the log's end — reads [Aborted]: never committed. *)

val visible : t -> txn -> Ifdb_storage.Heap.version -> bool
(** MVCC visibility of a heap version to this transaction. *)

val note_scan : t -> txn -> Ifdb_storage.Heap.t -> kept:int array -> unit
(** Report a scan of [heap] that read the label partitions [kept] (a
    confinement verdict's): under [serializable_locking], acquires the
    shared lock on each kept partition and on the heap's partition
    directory, and raises {!Serialization_failure} if another open
    transaction holds one of them exclusively.  A pruned partition
    stays unlocked: a write under a label that does not flow to the
    reader cannot change what the scan returned.  The directory lock
    closes the phantom-partition window — an insert that creates a new
    partition write-locks it, since that partition could carry a label
    the scan should have conflicted with.  Builds no lock key and does
    nothing otherwise.

    Writes lock their own partition in {!record_insert},
    {!record_inserts} and {!record_delete}.  Locking is no-wait, so
    "lock wait" here means the acquisition check itself: its duration
    accumulates into {!lock_wait_ns} and, under a sampled
    {!Ifdb_obs.Span} context, becomes a ["lock.wait"] span whose [key]
    argument masks the partition's label id (["table#?"]). *)

val lock_wait_ns : t -> int
(** Cumulative nanoseconds spent acquiring locks: every S2PL
    acquisition check (serializable mode only — the snapshot-isolation
    default contributes nothing from statements) plus the commit-path
    wait for the manager's own mutex when the committing statement is
    under a sampled span context.  Exported as the
    [ifdb_lock_wait_ns_total] counter.  Coarse by design: it
    aggregates across all transactions and labels, so it reveals only
    whole-system contention, not per-label activity (see DESIGN.md
    §6.10 for the covert-channel audit). *)

val record_insert :
  t -> txn -> Ifdb_storage.Heap.t -> Ifdb_rel.Tuple.t -> Ifdb_storage.Heap.version
(** Insert a new version stamped with this xid; logs to the WAL and
    adds to the write set. *)

val record_inserts :
  t ->
  txn ->
  Ifdb_storage.Heap.t ->
  Ifdb_rel.Tuple.t list ->
  Ifdb_storage.Heap.version list
(** Batched {!record_insert}: one heap pass for the run, WAL records
    through a single buffered batch append.  Equivalent to calling
    {!record_insert} per tuple (same versions, same write-set order,
    same WAL accounting) with less per-row overhead. *)

val record_delete :
  t -> txn -> Ifdb_storage.Heap.t -> Ifdb_storage.Heap.version -> unit
(** Stamp a version as deleted by this transaction.  Raises
    {!Serialization_failure} if a concurrent transaction already
    stamped it (first-updater-wins), and [Invalid_argument] if the
    version is not visible to the caller. *)

val writes : txn -> write list
(** The write set, oldest first. *)

val commit : t -> txn -> unit
(** Commit: mark committed, then submit the commit record to the group
    commit queue (which decides when the fsync happens).  Read-only
    transactions skip the WAL entirely — no record, no fsync.

    Under a sampled span context the commit path additionally records
    ["lock.wait"]/["lock.hold"] spans for the manager mutex (real
    contention between concurrent committers) and, if serializable
    locking acquired any S2PL locks, a ["lock.hold"] span covering
    first acquisition to commit (clipped to the statement window). *)

val abort : t -> txn -> unit
(** Abort: mark aborted and undo xmax stamps (inserted versions become
    invisible through their aborted xmin).  Logs an [Abort] record only
    if the transaction ever wrote. *)

val with_txn : t -> (txn -> 'a) -> 'a
(** Run [f] in a transaction; commit on return, abort on exception. *)

val live_xids : t -> int list
(** Xids currently in progress. *)

val oldest_visible_xid : t -> int
(** The vacuum horizon: the smallest [snap_xmin] over open
    transactions, or the next xid when none is open (PostgreSQL's
    oldest xmin).  Every xid below it had finished before every open
    snapshot was taken, and so has every future snapshot's: a version
    whose deleter committed with an xid below the horizon is invisible
    to all of them, and vacuum may reclaim it.  (The smallest
    [snap_xmax] would not do: a deleter still running when an open
    snapshot was taken lies below that snapshot's [snap_xmax], yet the
    snapshot must keep seeing the version.) *)
