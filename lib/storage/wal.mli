(** Write-ahead log with group-commit accounting.

    The log is kept in memory; what matters to the benchmarks is the
    {e accounting}: bytes appended and fsyncs issued, each fsync
    charging a simulated latency.  CarTel batches 200 inserts per
    transaction "partly to compensate for the lack of group commit in
    PostgreSQL" (section 8.2.2) — with this model, larger transactions
    amortize the per-commit fsync exactly as they do there, and
    {!Ifdb_txn.Group_commit} coalesces the commit fsyncs of {e small}
    transactions the same way.

    All operations are thread-safe: appends, fsyncs and stats reads are
    serialized on an internal mutex, so concurrent committers (the
    group-commit leader/follower protocol) and aborting sessions may
    touch one log. *)

type record =
  | Begin of int                       (** xid *)
  | Insert of string * int * int      (** table, vid, payload bytes *)
  | Delete of string * int            (** table, vid *)
  | Commit of int
  | Abort of int
  | Audit of string                   (** rendered IFC audit event *)

type stats = {
  records : int;
  bytes : int;
  fsyncs : int;
  io_ns : int;
}

type t

val create : ?fsync_cost_ns:int -> unit -> t
(** Default fsync cost: 200 µs (battery-backed-cache ballpark). *)

val append : t -> record -> unit

val append_batch : t -> record list -> unit
(** Append a run of records under one lock acquisition — the buffered
    batch append used by bulk inserts.  Record and byte accounting is
    identical to appending each record individually. *)

val fsync : t -> unit
(** Force the log; called at commit (possibly once for a whole batch of
    coalesced commits).  When the calling domain carries a sampled
    {!Ifdb_obs.Span} context, the fsync is recorded as a ["wal.fsync"]
    span and reported to the observer below; otherwise no clock is
    read. *)

val set_fsync_observer : t -> (float -> unit) -> unit
(** Observer for fsync stalls, in seconds (wall time plus the modeled
    cost).  Only invoked for fsyncs issued under a sampled span
    context — a sampled view, like the span ring itself.  The database
    points this at its [ifdb_fsync_stall_seconds] histogram. *)

val stats : t -> stats
val reset_stats : t -> unit
val io_ns : t -> int

val recent : t -> int -> record list
(** The last [n] records, newest first (debugging and tests). *)
