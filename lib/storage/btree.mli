(** An in-memory B+tree index mapping composite keys to tuple-version
    ids.

    Keys are value vectors ([Value.t array]) compared lexicographically.
    A key maps to a {e set} of version ids: MVCC keeps superseded
    versions indexed until vacuum, and polyinstantiation (section
    5.2.1) deliberately stores several tuples under one user-visible
    key, distinguished only by label.  Uniqueness is therefore enforced
    above this layer, where visibility and labels are known — exactly
    as in PostgreSQL, whose unique indexes "already had to be prepared
    to deal with multiple versions" (section 7.1).

    Deletion is lazy (empty postings stay until overwritten); leaves
    are chained for range scans. *)

type key = Ifdb_rel.Value.t array

type t

val create : ?order:int -> unit -> t
(** [order] is the maximum number of keys per node (default 32). *)

val compare_key : key -> key -> int
(** Lexicographic over {!Ifdb_rel.Value.compare}; shorter prefixes sort
    before their extensions. *)

val insert : t -> key -> int -> unit
(** Add a (key, vid) posting.  Duplicate postings are ignored. *)

val insert_many : t -> (key * int) list -> unit
(** Sorted bulk load: sort the run once, group postings per key, and
    descend each subtree once instead of once per pair, rebuilding
    leaves by sorted merge and splitting overfull nodes into several
    siblings in one pass.  Observably equivalent to {!insert} applied
    to each pair in run order (same postings, same iteration order,
    same {!entry_count}); duplicates are ignored likewise.  A one-pair
    run is {!insert} itself: it changes the leaf in place and rebuilds
    no node, where a longer run rebuilds every node on its paths. *)

val remove : t -> key -> int -> unit
(** Remove one posting (no-op if absent). *)

val find : t -> key -> int list
(** All vids posted under exactly this key. *)

type bound =
  | Unbounded
  | Incl of key
  | Excl of key

val iter_range : t -> lo:bound -> hi:bound -> (key -> int -> unit) -> unit
(** In-order iteration over postings with keys in the given range. *)

val iter_prefix : t -> prefix:key -> (key -> int -> unit) -> unit
(** Postings whose key starts with [prefix] (component-wise equality
    over the prefix length). *)

val iter_all : t -> (key -> int -> unit) -> unit

val entry_count : t -> int
(** Number of live (key, vid) postings. *)

val depth : t -> int

val check_invariants : t -> (unit, string) result
(** Structural validation for tests: sortedness, separator bounds,
    balanced depth, node fill. *)

val iter_prefix_range :
  t ->
  prefix:key ->
  lo:(Ifdb_rel.Value.t * bool) option ->
  hi:(Ifdb_rel.Value.t * bool) option ->
  (key -> int -> unit) ->
  unit
(** Postings whose key starts with [prefix] and whose next component
    falls within the given bounds (each [(v, incl)] pair is a bound and
    whether it is inclusive).  With both bounds [None] this is
    {!iter_prefix}. *)

val seq_prefix : t -> prefix:key -> (key * int) Seq.t
(** Lazy {!iter_prefix}: postings are produced on demand, so consumers
    that stop early (LIMIT, probe joins) never walk the rest of the
    leaf chain and nothing is materialized per scan.  The sequence
    reads the live tree; restart it rather than reusing it across
    mutations. *)

val seq_prefix_range :
  t ->
  prefix:key ->
  lo:(Ifdb_rel.Value.t * bool) option ->
  hi:(Ifdb_rel.Value.t * bool) option ->
  (key * int) Seq.t
(** Lazy {!iter_prefix_range}. *)
