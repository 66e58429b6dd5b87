(** Per-query execution tracing: the machinery behind [EXPLAIN ANALYZE]
    and the slow-query log.

    A trace is built alongside normal execution.  The executor's plan
    translation is {e eager} (each operator's [run] recurses into its
    children while constructing the lazy [Seq.t]), so operator nodes
    are created with a parent stack during translation; the returned
    sequences are then wrapped so every pull is timed (on
    {!Span.now_ns}) and every yielded row counted.  Times are
    {b inclusive} of children, like Postgres' [EXPLAIN ANALYZE] actual
    times.

    Tuples pruned by label confinement are attributed {e per table}
    (not per operator): the access-layer read filter increments the
    table's scan entry, which survives lazy pulls and parallel morsel
    workers (all fields are [Atomic]).

    A trace object is owned by one session for one statement; node
    mutation during serial consumption is single-threaded, while scan
    entries and morsel attribution may be hit from worker domains. *)

type t

type node = {
  n_id : int;
  n_label : string;  (** one-line operator description *)
  n_depth : int;
  mutable n_rows : int;  (** rows yielded *)
  mutable n_ns : int;  (** inclusive wall time, nanoseconds *)
  mutable n_morsels : int;  (** parallel tasks executed under this node *)
  mutable n_by_worker : int array;  (** tasks per worker id *)
}

(** Per-table label-confinement accounting, shared with scan filters. *)
type scan = {
  sc_scanned : int Atomic.t;  (** visible tuples the read filter examined *)
  sc_pruned : int Atomic.t;  (** of those, rejected by label confinement *)
  sc_skipped : int Atomic.t;  (** whole scans skipped: proven label-empty *)
}

val create : unit -> t

val enter : t -> string -> node
(** Open an operator node as a child of the innermost open node. *)

val exit_node : t -> node -> unit
(** Close [node]; must pair with the matching {!enter}. *)

val nodes : t -> node list
(** Every operator node in enter (depth-first) order — the tree is
    recoverable from [n_depth].  How the span recorder attaches an
    [EXPLAIN ANALYZE] operator tree as child spans. *)

val wrap_seq : node -> 'a Seq.t -> 'a Seq.t
(** Time every pull of the sequence into [node.n_ns] and count yielded
    elements into [node.n_rows]. *)

val add_ns : node -> int -> unit
val add_rows : node -> int -> unit

val add_morsels : node -> per_worker:int array -> unit
(** Record one parallel fan-out under [node]: [per_worker.(w)] tasks
    ran on worker [w]. *)

val scan_entry : t -> string -> scan
(** The accounting entry for table [name], created on first use.
    Called from session code before workers launch; the returned
    record's atomics may then be hit concurrently. *)

val report :
  ?notes:string list ->
  t ->
  total_ns:int ->
  rows:int ->
  flow_checks:int ->
  flow_hits:int ->
  string list
(** Render the trace: indented operator tree with per-node rows/time
    and morsel attribution, per-table label-confinement lines, any
    caller [notes] (e.g. the plan-cache verdict), the flow-check/memo
    summary, and a total line. *)

(** {1 Slow-query log} *)

type slow_entry = {
  sq_seq : int;  (** monotonically increasing statement number *)
  sq_sql : string;
  sq_ns : int;
  sq_rows : int;
  sq_trace : int;
      (** span trace id when the statement was also sampled by the
          span recorder ([Span.find] resolves it while it stays in the
          ring); [-1] otherwise *)
}

type slow_log

val slow_log_create : unit -> slow_log
(** Ring buffer of the 128 most recent slow statements. *)

val slow_log_add :
  ?trace:int -> slow_log -> sql:string -> ns:int -> rows:int -> unit
val slow_log_recent : slow_log -> int -> slow_entry list
(** The last [n] entries, newest first; [[]] for a negative [n]. *)

val slow_log_count : slow_log -> int
(** Total entries ever logged (not bounded by capacity). *)
