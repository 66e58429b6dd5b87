(** The label store: hash-consed labels and memoized flow checks.

    The paper's prototype does not store a label on every tuple; it
    stores a 4-byte reference into a deduplicated label table
    (section 7.1), because distinct labels are few while tuples are
    many.  This module is that table: {!intern} maps a label to a
    dense non-negative integer id, identical labels always map to the
    same id, and {!label_of} resolves an id back to a canonical
    (shared) label value.  Id 0 is always the empty (public) label.

    On top of the table sits a {b flow cache}: {!flows_id} memoizes
    compound-aware {!Authority.flows} verdicts keyed on
    [(src_id, dst_id)].  Like {!Ifdb_platform.Auth_cache}, entries are
    stamped with the authority state's generation counter and
    wholesale-invalidated whenever it moves — any tag or principal
    creation, delegation, or revocation drops every cached verdict, so
    a stale "visible" answer can never outlive the authority change
    that would retract it.  This is deliberately conservative:
    compound links are immutable after tag creation, but the cache
    must stay sound even if that invariant is ever relaxed.

    {!flows_id} and {!intern} are thread-safe and may be called from
    worker domains during morsel-parallel scans: the global table and
    verdict cache are mutex-guarded, statistics are atomic, and each
    domain keeps one {e domain-local} verdict memo, stamped with the
    store and generation it serves, so steady-state probes are
    lock-free.  The memo is reset when a probe comes from another store,
    so a dropped store's verdicts do not accumulate in long-lived
    domains.  Authority-state mutations and
    {!label_of} remain single-writer (the main thread). *)

type t

type id = int
(** A dense label id: non-negative, allocated in interning order.
    Negative values are never allocated; callers use [-1] as the
    "not interned" sentinel (see {!Ifdb_rel.Tuple.label_id}). *)

val empty_id : id
(** The id of {!Label.empty}; always [0] in every store. *)

type stats = {
  interned : int;      (** distinct labels in the table *)
  flow_hits : int;     (** flow checks answered from the cache *)
  flow_misses : int;   (** flow checks that ran {!Authority.flows} *)
  invalidations : int; (** wholesale cache drops (generation moved) *)
}

val create : ?flow_cache:bool -> Authority.t -> t
(** A store bound to one authority state.  [flow_cache:false] disables
    verdict memoization ({!flows_id} recomputes every time) while
    keeping interning — the [labelcache] ablation's off switch. *)

val authority : t -> Authority.t

val intern : t -> Label.t -> id
(** The id for this label, allocating one on first sight.  O(label
    size) hash + one table probe; the empty label short-circuits to
    {!empty_id}. *)

val label_of : t -> id -> Label.t
(** The canonical label for an id.  All callers interning an equal
    label receive physically this value, so downstream
    {!Label.equal}/{!Label.union} hit their pointer fast paths.
    Raises [Invalid_argument] for ids never returned by {!intern}. *)

val size : t -> int
(** Distinct labels interned so far. *)

val flows_id : t -> src:id -> dst:id -> bool
(** Memoized [Authority.flows ~src:(label_of src) ~dst:(label_of dst)]:
    may information labeled [src] flow to a destination labeled [dst]?
    [src = dst] and [src = empty_id] short-circuit to [true] without
    touching the cache.  The first call after an authority-state
    generation bump always recomputes. *)

val union_id : t -> id -> id -> id
(** The id of the union of two interned labels.  Equal or empty
    operands short-circuit without touching the table; otherwise one
    union + {!intern}.  Used by incremental view maintenance to key
    joined delta rows by partition. *)

val stats : t -> stats

val take_stats : t -> stats
(** Read and zero the counters as one atomic pair per counter
    ([Atomic.exchange]): an increment racing the call is charged to
    exactly one epoch — the returned snapshot or the fresh counts —
    never lost and never double-counted.  Use this (not {!stats}
    followed by {!reset_stats}) when sampling deltas concurrently with
    running queries. *)

val reset_stats : t -> unit
(** [reset_stats t = ignore (take_stats t)]. *)
