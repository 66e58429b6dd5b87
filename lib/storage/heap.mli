(** MVCC heap storage for one table.

    Every update creates a new tuple version rather than overwriting
    (PostgreSQL-style multi-version concurrency control, which the
    paper leans on in section 7.1).  A version records [xmin], the
    transaction that created it, and [xmax], the transaction that
    deleted/superseded it (0 when live).  Visibility is decided above,
    by the transaction manager; the heap is policy-free.

    Versions are packed into {!Page}-sized pages; every access charges
    the owning page to the {!Buffer_pool}, which is how label bytes
    translate into extra I/O in the disk-bound benchmarks.

    {b Label partitions.}  The heap is label-sharded: a partition
    directory keyed by interned label id records each partition's slice
    of the vid space in ascending order, maintained incrementally on
    insert and vacuum — never rebuilt by scanning the heap.  A vacuum
    pass compacts a partition's slice once vacuumed versions make up
    more than half of it, so a merged scan costs what the partition
    holds, not what it ever held.  Each partition owns its
    page run, so tuples under different labels never share a page and
    label confinement prunes whole page runs by construction.  The
    merged-scan primitives
    enumerate only the partitions a caller keeps, in global vid order —
    the same versions, in the same order, as {!iter} plus a per-tuple
    label filter.  Which partitions a scan keeps is decided by the
    caller and cached here per destination label ({!confine}).

    {b Vacuum.}  Vacuum is driven the same way: a version is queued
    when it dies ({!retire_version}), and a pass visits only the queue
    ({!vacuum_retired}).

    {b Slots.}  The vid-indexed slot array holds versions unboxed.  A
    vacuumed or not-yet-used slot holds one shared sentinel, a hole,
    which no function here returns: scans skip it, and {!get_opt}
    answers [None] for it. *)

type version = {
  vid : int;                (** stable version id within this heap *)
  tuple : Ifdb_rel.Tuple.t;
  mutable xmin : int;       (** creating transaction *)
  mutable xmax : int;       (** deleting transaction, 0 if none *)
  page : int;               (** buffer-pool page holding this version *)
}

type t

val create :
  name:string ->
  labeled:bool ->
  pool:Buffer_pool.t ->
  unit ->
  t
(** [labeled] selects the tuple size model: with IFC on, labels cost
    4 bytes per tag on the page; the baseline stores no label bytes. *)

val name : t -> string
val pool : t -> Buffer_pool.t

val epoch : t -> int
(** The partition epoch (see {!confine}): it moves exactly when the set
    of non-empty partitions changes, so a caller holding a verdict can
    tell whether a new partition may have appeared since. *)

val insert : t -> xmin:int -> Ifdb_rel.Tuple.t -> version
(** Append a new version (dirties its page).  The tuple's label must be
    interned: a stored tuple carries its {!Ifdb_difc.Label_store} id,
    the paper's 4-byte label reference (section 7.1), and that id names
    its partition.  Raises [Invalid_argument] on a tuple whose
    [label_id] is negative (a derived row built by {!Ifdb_rel.Tuple.make}
    under a non-empty label). *)

val get : t -> int -> version
(** Fetch by version id (touches the page).  Raises [Invalid_argument]
    for dead or out-of-range ids. *)

val get_opt : t -> int -> version option
(** {!get} that answers [None] for a hole or an out-of-range id. *)

val set_xmax : t -> vid:int -> xid:int -> unit
(** Stamp a deleter (dirties the page). *)

val clear_xmax : t -> vid:int -> xid:int -> unit
(** Undo a deleter stamp if it is [xid] (abort path). *)

val iter : t -> (version -> unit) -> unit
(** Sequential scan in version order; charges each distinct page once
    per scan run. *)

val slot_count : t -> int
(** Upper bound of the version-id space: the partition domain for
    morsel-parallel scans (includes vacuumed holes, which scan as
    empty). *)

val version_count : t -> int
(** Number of versions ever created and not vacuumed. *)

val page_count : t -> int

val reclaim : t -> int -> unit
(** Drop the version at this vid: its slot becomes a hole that scans
    skip, and its partition's non-vacuumed count shrinks.  A no-op on
    a hole or an out-of-range vid. *)

val vacuum_retired :
  t -> dead:(version -> bool) -> on_reclaim:(version -> unit) -> int
(** One vacuum pass over the versions queued by {!retire_version} —
    never over the whole heap, so its cost follows the garbage made
    since the last pass, not the heap's history.  Each queued version
    satisfying [dead] is passed to [on_reclaim] (to drop its index
    entries) and then {!reclaim}ed; the others stay queued for the next
    pass.  Charges one buffer-pool touch per distinct page visited.
    After a pass that removed versions, each partition whose directory
    holds more than twice its non-vacuumed versions (and more than 16
    entries) is rebuilt to hold exactly those, in vid order — amortized
    O(1) per reclaimed version.  A merge open across the pass neither
    skips nor repeats a version (see {!seq_merge}).
    Returns how many versions were removed.  The garbage collector is
    exempt from information flow rules (section 7.1) — it never
    inspects labels. *)

val tuple_bytes : t -> Ifdb_rel.Tuple.t -> int
(** Size of a tuple under this heap's size model. *)

val to_seq : t -> version Seq.t
(** Lazy sequential scan in version order; like {!iter}, charges each
    distinct page once per scan run. *)

(** {1 The label-partition directory} *)

val iter_label_counts : t -> (int -> int -> unit) -> unit
(** [iter_label_counts t f] calls [f label_id count] for each label-id
    partition with live (non-vacuumed) versions.  Counts include
    versions awaiting vacuum, so the partition set is a superset of the
    visible labels — safe for pruning.  Scans decide their partitions
    through {!confine}; this serves reports, the analyzer's
    diagnostics and EXPLAIN ANALYZE's pruned-tuple tally. *)

val distinct_label_count : t -> int
(** Number of distinct label-id partitions currently present. *)

val has_partition : t -> int -> bool
(** Does a partition with non-vacuumed versions exist for this label
    id?  Writers consult this {e before} inserting to decide whether
    the insert creates a new partition (which must conflict with
    concurrent full-table scans under serializable locking). *)

val retire_version : t -> vid:int -> lid:int -> unit
(** The version [vid] under [lid] stopped being live (its deleter
    committed, or its creating transaction aborted) — the only two ways
    a version can die.  Decrements the partition's live count (stats
    only: scan pruning keys on the non-vacuumed count, which stays a
    sound superset for every open snapshot) and queues [vid] for
    {!vacuum_retired}.  Safe to call from concurrent committers. *)

type partition_stats = {
  ps_lid : int;
  ps_versions : int; (** non-vacuumed versions *)
  ps_live : int;     (** versions not deleted-and-committed *)
  ps_pages : int;    (** pages owned; they sum to {!page_count} *)
  ps_directory : int;
      (** entries in the partition's vid directory: its non-vacuumed
          versions plus those vacuumed since the last compaction *)
}

val partition_stats : t -> partition_stats list
(** Per-partition stats, sorted by label id; partitions whose versions
    were all vacuumed are omitted. *)

(** {1 Confinement verdicts} *)

type verdict = {
  kept : int array;
      (** label ids of the non-empty partitions the decision accepted,
          ascending *)
  pruned : int;  (** non-empty partitions it rejected *)
}

val confine :
  t -> dst:int -> generation:int -> decide:(int -> bool) -> verdict
(** [confine t ~dst ~generation ~decide] is the verdict for a scan
    under destination label id [dst]: every non-empty partition whose
    label id [decide] accepts is kept, every other one is pruned.  The
    heap stays policy-free — the caller passes the decision — and it
    caches the verdict per [dst], stamped with [generation] (the
    authority state [decide] reads) and this heap's partition epoch.
    The epoch moves only when the set of non-empty partitions changes:
    a partition's first non-vacuumed version ({!insert}) or vacuum
    reclaiming its last ({!reclaim}).  While both stamps match, a call
    returns the cached verdict without calling [decide] at all; when
    either moved, [decide] runs once per non-empty partition.

    Sound only for a [decide] that is a pure function of the label id,
    [dst] and the state [generation] pins: then a stale entry could at
    most miss a partition born after it, and the epoch rules that out.
    The cache holds at most 256 destinations and is dropped wholesale
    when full.  Thread-safe. *)

val kept_versions : t -> int array -> int
(** Non-vacuumed versions in the given partitions: the work a merged
    scan over them will see. *)

(** {1 Merged scans over selected partitions} *)

val iter_merge : t -> kept:int array -> (version -> unit) -> unit
(** Scan only the partitions whose label ids are in [kept] (distinct
    ids; ids without a non-empty partition are skipped), merged into
    global vid order — the same versions, in the same order, as {!iter}
    followed by a per-tuple label filter, but without ever touching a
    pruned partition's directory, slots or pages.

    Cost: the merge keeps one cursor per kept partition in a binary
    min-heap keyed by its next vid and gallops — the top cursor emits
    while its vids stay below every other cursor's head.  A version
    costs O(1) inside a partition's vid run and O(log k) at the end of
    one, so O(log k) over k partitions that interleave row by row, plus
    O(k log p) to position the k cursors over directories of p
    entries. *)

val iter_merge_range :
  t -> kept:int array -> lo:int -> hi:int -> (version -> unit) -> unit
(** {!iter_merge} restricted to vids in [\[lo, hi)] — one morsel of a
    pruned parallel scan.  Same merge and cost.  Charges one buffer-pool
    touch per page change, as {!iter} does.
    Morsels run concurrently on worker domains, which is safe because
    {!Buffer_pool} touches are thread-safe and the [version] fields read
    here ([vid], [tuple], [page]) are immutable after insert; [xmin] and
    [xmax] are mutated only by writer transactions, which never run
    concurrently with a read-only parallel scan. *)

val seq_merge : t -> kept:int array -> version Seq.t
(** Lazy {!iter_merge}, on the same merge core and at the same cost.  It
    stays element-at-a-time lazy: pulling one version advances the merge
    by one version and touches at most that version's page, so [LIMIT]
    and probe joins stop early.  Versions a kept partition appends
    while the sequence is being consumed are seen if that partition's
    cursor has not run out yet.  A vacuum pass may run while the
    sequence is open (a user function can call it mid-scan): a cursor
    keeps reading the directory array it started on, and when that runs
    out it re-reads its partition and, if the array was replaced, finds
    the first vid past the last one it emitted, so the merge neither
    skips nor repeats a version.  The sequence is ephemeral: consume it
    once. *)
