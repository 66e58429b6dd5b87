(** The catalog: tables, indexes, views and label constraints.

    Names are case-insensitive.  The catalog is mechanism only — the
    information-flow semantics of declassifying views and label
    constraints are enforced by [Ifdb_core], which drives this layer.
    (Triggers and stored procedures live in the core too: their bodies
    are closures over sessions.) *)

module Label = Ifdb_difc.Label
module Principal = Ifdb_difc.Principal
module Schema = Ifdb_rel.Schema
module Tuple = Ifdb_rel.Tuple
module Value = Ifdb_rel.Value

exception Catalog_error of string

type index = {
  idx_name : string;
  idx_table : string;
  idx_cols : int array;       (** column positions in the table schema *)
  idx_unique : bool;
  idx_segs : (int, Ifdb_storage.Btree.t) Hashtbl.t;
      (** one B-tree segment per interned label id of a stored tuple,
          created by the first insert under that id; a lookup never
          creates one.  Go through {!index_find} / {!seq_segments}
          rather than reading it directly. *)
}

type table = {
  tbl_schema : Schema.t;
  tbl_heap : Ifdb_storage.Heap.t;
  mutable tbl_indexes : index list;
}

(** A view definition.  [vw_declassify] is the label the view is
    authorized to strip from result tuples (empty for ordinary views) —
    the paper's declassifying views, section 4.3.  [vw_relabel] holds
    (from, to) replacements for the more sophisticated views of that
    section: e.g. a billing view that replaces [p_medical] with
    [p_billing] for each patient. *)
type view = {
  vw_name : string;
  vw_query : Ifdb_sql.Ast.select;
  vw_declassify : Label.t;
  vw_relabel : (Ifdb_difc.Tag.t * Ifdb_difc.Tag.t) list;
  vw_materialized : bool;
      (** registered for incremental maintenance; the IVM registry in
          the core owns the materialized state *)
}

(** Label constraints (section 5.2.4): given a candidate tuple, return
    the rule its label must satisfy (or [None] when the constraint does
    not apply to this tuple). *)
type label_rule =
  | Exactly of Label.t
  | Superset of Label.t

type label_constraint = {
  lc_name : string;
  lc_table : string;
  lc_fn : Tuple.t -> label_rule option;
}

type t

val create :
  pool:Ifdb_storage.Buffer_pool.t ->
  labeled:bool ->
  unit ->
  t
(** [labeled] selects the storage size model (see
    {!Ifdb_storage.Heap.create}).  Every table is label-sharded:
    per-partition heap page runs and per-partition index segments. *)

val pool : t -> Ifdb_storage.Buffer_pool.t
val labeled : t -> bool

val version : t -> int
(** Monotone counter bumped by every DDL mutation (table/view/index
    create and drop, label-constraint registration).  Plan-cache
    entries stamp the version they were planned under and re-plan when
    it moves. *)

(** {1 Tables} *)

val create_table : t -> Schema.t -> table
(** Creates the heap and one index per unique constraint (including
    the primary key).  Raises {!Catalog_error} if the name is taken by
    a table or view. *)

val drop_table : t -> string -> unit
val find_table : t -> string -> table option
val table : t -> string -> table
(** Like {!find_table} but raises {!Catalog_error}. *)

val all_tables : t -> table list

(** {1 Confinement} *)

val confine :
  Ifdb_difc.Label_store.t -> Ifdb_storage.Heap.t -> dst:int ->
  Ifdb_storage.Heap.verdict
(** The Query by Label rule's partition decision for a scan of this
    heap under interned destination label [dst]: a partition is kept iff
    its label flows to [dst] ({!Ifdb_difc.Label_store.flows_id}), so a
    kept partition's tuples need no per-tuple label check.  The one
    place the decision is made: the executor's scans and index probes
    and the analyzer's vacuous-scan check all read it.  The verdict is
    cached in the heap ({!Ifdb_storage.Heap.confine}) under the
    authority generation, so repeated statements by one reader make no
    flow check until the authority state or the heap's set of non-empty
    partitions changes.  A negative [dst] asks for the unconfined
    verdict (IFC off): every non-empty partition kept. *)

(** {1 Indexes} *)

val create_index :
  t -> name:string -> table:string -> cols:string list -> unique:bool -> index
(** Builds the index over existing heap versions too. *)

val index_key : index -> Value.t array -> Value.t array
(** Extract the index key from a row of table values. *)

val insert_into_indexes : t -> table -> Value.t array -> lid:int -> int -> unit
(** Post a new heap version id under every index of the table; [lid]
    is the tuple's interned label id, selecting the segment. *)

val bulk_insert_into_indexes :
  t -> table -> (Value.t array * int * int) list -> unit
(** Post a whole run of (row values, label id, vid) triples: each index
    is loaded via {!Btree.insert_many} (sort once, one descent per
    subtree) instead of one root-to-leaf walk per row.  Equivalent to
    calling {!insert_into_indexes} per row. *)

val remove_from_indexes : t -> table -> Value.t array -> lid:int -> int -> unit

(** {2 Lookups}

    Readers go through these rather than touching [idx_segs] directly.
    Ordered scans merge per-segment streams into global (key, vid)
    order, so the output does not depend on how labels are spread over
    segments. *)

val index_find : index -> Value.t array -> int list
(** Every vid posted under exactly this key, across all segments (the
    label-blind probe: foreign-key checks reason about tuples the
    process may not see). *)

val index_find_label : index -> Value.t array -> lid:int -> int list
(** Candidates for a uniqueness probe under interned label id [lid]:
    only [lid]'s segment is consulted — the (key, label) identity of
    polyinstantiation confines the probe by construction — and [[]]
    when no tuple under [lid] was ever indexed.  The probe creates no
    segment. *)

val kept_segments : index -> int array -> Ifdb_storage.Btree.t array
(** The segments of the label ids in [kept] (a confinement verdict's,
    see {!confine}), in [kept]'s order; ids without a segment are
    skipped.  An index probe resolves them once per verdict. *)

val seq_segments :
  Ifdb_storage.Btree.t array ->
  prefix:Value.t array ->
  lo:(Value.t * bool) option ->
  hi:(Value.t * bool) option ->
  (Value.t array * int) Seq.t
(** Lazy prefix/range scan in (key, vid) order over the given segments:
    one B-tree seek per segment, whatever the number of segments the
    index holds, then a merge of the per-segment streams. *)

val iter_index_entries : index -> (Value.t array -> int -> unit) -> unit
(** Every posting in (key, vid) order, across all segments. *)

val index_entry_count : index -> int

(** {1 Views} *)

val create_view :
  t ->
  name:string ->
  query:Ifdb_sql.Ast.select ->
  declassify:Label.t ->
  ?relabel:(Ifdb_difc.Tag.t * Ifdb_difc.Tag.t) list ->
  ?materialized:bool ->
  unit ->
  view
val drop_view : t -> string -> unit
val find_view : t -> string -> view option

val all_views : t -> view list
(** Every view definition, sorted by name. *)

(** {1 Label constraints} *)

val add_label_constraint : t -> label_constraint -> unit
val label_constraints_for : t -> string -> label_constraint list

val drop_index : t -> string -> unit
(** Remove an index by name from whichever table holds it; raises
    {!Catalog_error} if absent. *)
