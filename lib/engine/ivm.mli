(** Incremental maintenance of (declassifying) materialized views.

    The registry compiles each [CREATE MATERIALIZED VIEW] plan to
    delta form and keeps a materialized result {e keyed by interned
    label id}: every label partition of the base data is maintained
    separately, so polyinstantiated duplicates stay separate entries
    and declassification can be applied per partition at read time.
    The state itself is label-blind (it holds all partitions); a read
    consults only the partitions whose label flows to the reader's
    destination label — the same check a table scan would make per
    tuple group — and puts each emitted row through the view's
    Declassify boundary.

    Maintenance runs inside the commit path from the transaction's
    write set (insert [+1] / delete [−1]); two-table joins use the
    bilinear delta rule against committed-now base state.  Shapes the
    delta compiler does not support fall back to per-read
    recomputation through the view's ordinary plan, and a view whose
    state cannot absorb a change (e.g. a delete under MIN/MAX) is
    marked stale and fully refreshed on its next read.

    Reader-visible results are cached per destination-label id,
    stamped with the authority generation: any delegation, revocation
    or tag creation moves the generation and silently invalidates the
    cache — the {!Ifdb_difc.Label_store} invalidation discipline.

    All entry points are mutex-guarded; maintenance and reads may be
    driven from concurrent sessions.  Join-shaped delta application
    assumes commits apply in order (see DESIGN.md 6.6). *)

module Expr = Ifdb_rel.Expr
module Tuple = Ifdb_rel.Tuple
module Label = Ifdb_difc.Label
module Label_store = Ifdb_difc.Label_store

type t

val create :
  lstore:Label_store.t ->
  strip:
    (Label.t -> (Ifdb_difc.Tag.t * Ifdb_difc.Tag.t) list -> Label.t -> Label.t) ->
  scan:(string -> Tuple.t Seq.t) ->
  unit ->
  t
(** [strip] is the core's compound-aware declassify+relabel (the same
    function the executor's Declassify uses); [scan] must yield the
    committed-now stored rows of a base table, each carrying its
    interned label id ({!Tuple.label_id}), with {e no} label filtering
    — the state holds every partition. *)

val register :
  t ->
  name:string ->
  plan:Plan.t ->
  declassify:Label.t ->
  relabel:(Ifdb_difc.Tag.t * Ifdb_difc.Tag.t) list ->
  unit
(** Register a materialized view.  [plan] is the planner's expansion
    of the view body {e without} the Declassify boundary.  If the
    shape is supported, the state is built eagerly (a full refresh);
    otherwise the view is registered as recompute-only. *)

val register_unsupported : t -> name:string -> reason:string -> unit
(** Register a materialized view as permanently recompute-only — used
    when even planning its body failed at definition time — so it
    still shows up in {!stats} with the reason. *)

val set_affects : t -> view:string -> (string -> int -> bool) option -> unit
(** Install (or clear) the view's write-relevance predicate:
    [f table lid] must return [false] only when a committed write to
    [table] under interned label id [lid] {e provably} cannot change
    the view's state — e.g. the view body pins [_label] to a single
    literal, so only that label's partition feeds the state.  [apply]
    drops pruned writes before delta evaluation and counts a commit
    whose base-table writes are all pruned as a skip
    ({!view_stats.vs_skipped}) rather than a delta.  Unsound predicates
    corrupt the state; callers must derive them from a conservative
    analysis. *)

val unregister : t -> string -> unit

val base_tables : t -> string -> string list
(** The base tables a supported view's state covers; [[]] when the
    view is unknown or recompute-only.  The core uses this to record
    the reads a served result replaced in the transaction's
    serializable footprint. *)

val invalidate_table : t -> string -> unit
(** A base table was dropped or reshaped: drop the state of every view
    over it (they refresh on next read, or fail back to recompute). *)

val interested : t -> string -> bool
(** Does any supported view maintain state over this table?  The
    commit path's fast-path check. *)

val apply : t -> (string * int * Tuple.t) list -> unit
(** Apply one committed transaction's write set, oldest first:
    [(table, sign, tuple)] with [+1] per inserted and [−1] per deleted
    stored version (an UPDATE contributes both); each tuple carries its
    interned label id.  Never raises: a change the state cannot absorb
    marks the view stale instead. *)

val read : t -> view:string -> dst:int -> Tuple.t list option
(** The served rows for a reader whose scan destination label
    (session label ∪ all extra readable tags at the reference,
    including the view's own declassification) interns to [dst].
    [None] when the view is unregistered or recompute-only — the
    caller must then execute the view's plan (and that fallback is
    counted here).  A stale view is refreshed first. *)

val note_recompute : t -> string -> unit
(** Count a read of [view] that was answered by recomputation for a
    reason the registry could not see (e.g. an explicit transaction
    pinning an older snapshot). *)

type view_stats = {
  vs_name : string;
  vs_supported : bool;
  vs_reason : string;  (** why delta maintenance is off; [""] when on *)
  vs_rows : int;       (** entries currently materialized *)
  vs_partitions : int; (** distinct label partitions in the state *)
  vs_stale : bool;
  vs_deltas : int;     (** commit-time delta applications *)
  vs_refreshes : int;  (** full recomputations of the state *)
  vs_served : int;     (** reads answered from the state *)
  vs_recomputes : int; (** reads that fell back to the plan *)
  vs_skipped : int;
      (** commit deltas skipped because the view's [_label] pin
          proved no write in the commit could affect the view *)
}

val stats : t -> view_stats list
(** Per-view statistics, sorted by name. *)

val count : t -> int

val plan_supported : Plan.t -> (unit, string) result
(** Static shape check for the lint/analysis layer: would this view
    body (planned, Declassify excluded) be maintained incrementally?
    [Error reason] explains the recompute fallback. *)
