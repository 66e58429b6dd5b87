(** Transaction snapshots for snapshot isolation.

    A snapshot captures, at BEGIN time, the set of transactions whose
    effects are invisible: everything not yet committed then.  The
    prototype in the paper runs PostgreSQL's MVCC under snapshot
    isolation (section 5.1); we reproduce that choice, including
    PostgreSQL's snapshot bounds: every xid below [snap_xmin] finished
    before the snapshot, so {!sees_xid} answers it with one comparison
    before any search. *)

type t = {
  snap_xmin : int;
  (** The smallest xid still running at snapshot time, or [snap_xmax]
      when none was: every xid below it had finished.  The vacuum
      horizon is the minimum of this bound over open transactions. *)
  snap_xmax : int;
  (** First xid invisible to this snapshot: every xid >= this started
      after the snapshot was taken. *)
  in_progress : int array;
  (** Xids below [snap_xmax] that were still running at snapshot
      time, ascending.  Empty under a single session. *)
}

val make : snap_xmax:int -> in_progress:int list -> t
(** [in_progress] in any order; each must be below [snap_xmax]. *)

val sees_xid : t -> int -> bool
(** [sees_xid s xid]: did [xid] finish before this snapshot was taken,
    as far as timing is concerned?  (The caller must additionally check
    that [xid] actually committed.)  One comparison below [snap_xmin],
    a binary search over [in_progress] between the bounds. *)
