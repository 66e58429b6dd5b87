(** Plan evaluation.

    The executor is deliberately ignorant of visibility and
    information-flow policy: it obtains rows only through the
    [scan_table]/[open_index] callbacks of its context, which the core
    implements with MVCC visibility {e and} the Label Confinement Rule
    applied.  This mirrors the paper's placement of enforcement at the
    tuple access layer (section 7.1): bugs in planning or execution
    cannot widen what a query can observe. *)

module Tuple = Ifdb_rel.Tuple
module Expr = Ifdb_rel.Expr
module Label = Ifdb_difc.Label
module Value = Ifdb_rel.Value

type morsel_source = {
  ms_morsels : int;
      (** number of morsels; the executor schedules task ids
          [0 .. ms_morsels - 1] over the domain pool *)
  ms_run : int -> (Tuple.t -> unit) -> unit;
      (** [ms_run i emit]: push every row of morsel [i] through [emit].
          Called concurrently from worker domains, so the
          implementation must apply visibility and the Label
          Confinement Rule with thread-safe machinery only. *)
}
(** One table scan cut into independently runnable row ranges
    (morsel-driven parallelism).  Morsel order concatenated equals the
    serial scan order.  A scan that provably sees nothing has no
    morsels. *)

type par = {
  par_pool : Domain_pool.t;
  par_width : int;  (** domains to use, including the caller *)
  par_scan : table:string -> extra:Label.t -> morsel_source option;
      (** morsel-cut counterpart of [scan_table]; [None] when the table
          is too small to be worth cutting (the executor then falls
          back to the serial path), otherwise at least two morsels, or
          none for a label-empty scan *)
}
(** Parallel-execution hooks.  Parallelism is read-only within the
    session's snapshot: the core only installs [par] for plans that
    cannot write, and all writes stay single-threaded. *)

type index_probe =
  prefix:Value.t array ->
  lo:(Value.t * bool) option ->
  hi:(Value.t * bool) option ->
  Tuple.t Seq.t
(** One lookup through an opened index: the rows whose index key starts
    with [prefix], optionally range-bounded on the next key component
    ([(value, inclusive)]). *)

type ctx = {
  fenv : Expr.env;
  scan_table : string -> extra:Label.t -> Tuple.t Seq.t;
      (** all rows of a table the current process may see, given
          [extra] additional readable tags (from declassifying views) *)
  scan_push : table:string -> extra:Label.t -> morsel_source;
      (** the rows of [scan_table] as a push source over the whole table
          (one morsel, none when label-empty), for fused pipelines run on
          the caller's domain: a serial aggregate over a
          scan/filter/project/declassify source folds rows inside the
          scan's callback instead of pulling them through a lazy
          sequence *)
  open_index : table:string -> index:string -> extra:Label.t -> index_probe;
      (** the index-assisted counterpart of [scan_table]: opens [index]
          of [table] for one operator execution and returns its lookup,
          which a probe join calls once per outer row and a plain index
          scan once.  Opening resolves the table and index; the first
          lookup decides confinement, takes the serializable read locks
          and resolves the kept segments and the visibility test, and
          later lookups reuse them until the session label, the
          authority generation or the heap's partition epoch moves.
          Every lookup counts its pruned partitions.  The lookup must
          not outlive the statement. *)
  strip :
    Label.t -> (Ifdb_difc.Tag.t * Ifdb_difc.Tag.t) list -> Label.t -> Label.t;
      (** [strip declassified relabel row_label]: remove tags covered by
          the declassified label (compound-aware), then apply the
          relabeling view's (from, to) replacements *)
  mv_read : view:string -> extra:Label.t -> Tuple.t list option;
      (** [mv_read ~view ~extra]: the rows of a materialized view as the
          core's IVM registry would serve them to the current session
          ([extra] being the enclosing declassification context of the
          reference), or [None] to force recomputation through the
          view's expansion.  Like [scan_table], the implementation is
          responsible for visibility and declassification — the
          executor emits whatever it returns. *)
  par : par option;
      (** when set, scan/filter/project/declassify pipelines,
          aggregations over them, and hash-join probes run
          morsel-parallel on the domain pool.  [None] reproduces the
          single-domain executor exactly. *)
  trace : Ifdb_obs.Trace.t option;
      (** when set (EXPLAIN ANALYZE), every operator gets a trace node
          recording rows yielded and inclusive wall time, and parallel
          fan-outs record per-worker morsel attribution.  [None] (the
          default for every other statement) adds no per-row work. *)
}

exception Exec_error of string

val run : ctx -> Plan.t -> Tuple.t Seq.t
(** Lazily evaluate a plan. *)

val run_list : ctx -> Plan.t -> Tuple.t list
(** Materialize the whole result. *)
