(** The IFDB database facade: Query by Label over the engine.

    This module is the paper's contribution.  It owns the catalog, the
    transaction manager and the authority state, and enforces, at the
    tuple access layer:

    - the {b Label Confinement Rule}: a query by a process with label
      [Lp] sees exactly the tuples [T] with [L_T ⊆ Lp] (compound-aware;
      section 4.2);
    - the {b Write Rule}: inserts are labeled exactly [Lp]; updates and
      deletes may touch only tuples labeled exactly [Lp] — touching a
      visible lower-labeled tuple is an error (section 4.2);
    - the {b transaction commit-label rule}: at commit, the process
      label must be no more contaminated than any tuple in the write
      set (section 5.1);
    - the {b clearance rule} under [`Serializable] isolation: raising
      the label inside a transaction requires authority for the added
      tag (section 5.1; snapshot isolation does not need it);
    - {b polyinstantiation} for uniqueness constraints (section 5.2.1);
    - the {b Foreign Key Rule} with explicit [DECLASSIFYING] clauses
      (section 5.2.2);
    - {b declassifying views} and {b stored authority closures}
      (section 4.3), {b triggers} — ordinary and authority-bound,
      immediate and deferred (deferred ones run at commit with the
      label captured when the triggering statement ran; section 5.2.3);
    - {b label constraints} (section 5.2.4).

    Opening the database with [~ifc:false] produces the baseline
    ("vanilla PostgreSQL") engine used by the benchmarks: no label
    storage, no label checks. *)

module Label = Ifdb_difc.Label
module Tag = Ifdb_difc.Tag
module Principal = Ifdb_difc.Principal
module Authority = Ifdb_difc.Authority
module Value = Ifdb_rel.Value
module Tuple = Ifdb_rel.Tuple

type t
(** A database instance. *)

type session
(** A client process connection: a principal, a mutable label, and at
    most one open transaction.  Sessions model the per-process
    granularity of the application platform (section 2). *)

type isolation = Snapshot | Serializable

val create :
  ?ifc:bool ->
  ?isolation:isolation ->
  ?capacity_pages:int option ->
  ?miss_cost_ns:int ->
  ?seed:int ->
  ?parallelism:int ->
  ?morsel_size:int ->
  ?commit_batch:int ->
  ?sync_commit:bool ->
  ?strict_analysis:bool ->
  ?slow_query_ms:float ->
  ?audit_wal:bool ->
  ?trace_sample:int ->
  unit ->
  t
(** Defaults: [ifc:true], [Snapshot] isolation (what the paper's
    PostgreSQL-based prototype runs), unbounded buffer pool with a
    modeled 100 µs miss cost ([miss_cost_ns]).  Labels are always
    interned and flow checks always memoized ({!label_store}).  The
    modeled write and fsync costs are {!Ifdb_storage.Buffer_pool}'s and
    {!Ifdb_storage.Wal}'s defaults (60 µs and 200 µs).

    [parallelism] (default 1) sets how many OCaml domains a query may
    use: sequential scans, scan-shaped pipelines, aggregations and
    hash-join probes over them run morsel-parallel on a process-wide
    shared worker pool.  Parallelism is read-only within the session's
    snapshot — writes stay single-threaded — and the Label Confinement
    Rule is still applied at the access layer, by the same code path
    as a serial scan.  [morsel_size] (default 1024 slots, floor 16) sets the
    scan partition grain; tables under two morsels run serially.

    [commit_batch] (default 1) sets the group-commit coalescing degree:
    one WAL fsync covers up to that many write-transaction commits.
    With [sync_commit:false] (default) coalescing is deterministic —
    every [commit_batch]-th commit flushes, earlier ones become durable
    with the batch (asynchronous-commit semantics; call {!flush_wal} to
    force the remainder).  With [sync_commit:true] committers use the
    blocking leader/follower protocol instead: each commit returns only
    once an fsync covers it, but concurrent committers (sessions driven
    from {!Ifdb_engine.Domain_pool} tasks) share one flush.  See
    {!Ifdb_txn.Group_commit}.

    [strict_analysis] (default off) makes the prepare-time static
    analyzer ({!analyze_stmt}) reject statements it proves doomed:
    [Error]-severity diagnostics raise the exception the predicted
    runtime failure would have raised, before any effect.  With it off,
    analyzer output is still attached to the session
    ({!session_warnings}).

    The metrics registry is always on: the statement path maintains
    counters and a latency histogram and the registry exports
    component stats (label store, buffer pool, WAL, group commit,
    domain pool, audit log) as pull gauges ({!metrics_snapshot}).

    [slow_query_ms] (default unset) enables the slow-query ring buffer:
    statements at or above the threshold are recorded with their SQL,
    duration and row count ({!slow_queries}).  Unset, the statement
    path never reads a clock for it.

    [audit_wal] (default off) additionally appends every IFC audit
    event to the WAL as an [Audit] record, making the security stream
    durable alongside the data it concerns.  The in-memory audit ring
    keeps the last 4096 events.

    Storage is label-sharded: each table's heap pages and index
    entries are physically grouped by interned label id, and scans
    enumerate only the partitions whose label flows to the session —
    the confinement verdict is decided once per partition, not per
    tuple.

    The generation-stamped plan cache is always on: [PREPARE]d
    statements keep their parsed body, prepare-time diagnostics and one
    parameterized plan per session-label id, and {!exec} maintains an
    implicit database-wide cache keyed on statement shape (the tokens
    with each literal's value masked, {!Ifdb_sql.Shape}): the literals
    of a SELECT, INSERT, UPDATE or DELETE that all sit in WHERE or ON
    predicates, SET right-hand sides or VALUES items bind as parameters
    of one [$k] template per shape; a SELECT with a literal elsewhere
    keeps an entry of its own text.  Every cached plan is stamped with the
    catalog version and authority generation it was planned under and
    silently re-planned when either moves, and scan-time label
    confinement is always re-derived per execution — results, labels,
    audit events and errors are identical to the uncached path
    ({!exec_stmt} on a parsed statement).

    [trace_sample] (default 0 = off) samples every [n]th statement
    into the span recorder ({!spans}): the sampled statement's full
    lifecycle — parse, analyze, plan (with the plan-cache verdict),
    execute, commit with lock wait/hold, group-commit wait, WAL fsync,
    morsel scheduling and IVM delta application — is recorded as a
    span tree, exportable as Chrome trace-event JSON.  Unsampled
    statements pay one atomic fetch-and-add and no clock reads; see
    DESIGN.md §6.10. *)

val authority : t -> Authority.t

val label_store : t -> Ifdb_difc.Label_store.t
(** The database's label store: every stored tuple's label is interned
    here, and all enforcement-point flow checks go through its memoized
    cache (invalidated wholesale when the authority state's generation
    moves).  Exposed for stats and tests. *)

val catalog : t -> Ifdb_engine.Catalog.t
val manager : t -> Ifdb_txn.Manager.t
val pool : t -> Ifdb_storage.Buffer_pool.t
val wal : t -> Ifdb_storage.Wal.t

val group_commit : t -> Ifdb_txn.Group_commit.t
(** The commit coalescer sitting between {!commit} and the WAL, for
    inspecting its batching statistics. *)

val flush_wal : t -> unit
(** Force an fsync over commit records still buffered by group commit
    (deterministic mode leaves up to [commit_batch - 1] pending). *)

val ifc_enabled : t -> bool
val isolation : t -> isolation

val admin : t -> Principal.t
(** The administrator principal: may define schema but owns no tags,
    so it cannot declassify anything (section 3.3). *)

(** {1 Sessions and labels} *)

val connect : t -> principal:Principal.t -> session
val connect_admin : t -> session
val database : session -> t

val session_principal : session -> Principal.t
val session_label : session -> Label.t

val add_secrecy : session -> Tag.t -> unit
(** Raise the session label.  Under [Serializable] isolation, inside a
    transaction, this requires authority for the tag (the clearance
    rule). *)

val declassify : session -> Tag.t -> unit
(** Remove a tag from the session label; requires authority for it (or
    a compound containing it). *)

val set_label : session -> Label.t -> unit
(** Jump to an arbitrary label: added tags as {!add_secrecy}, removed
    tags as {!declassify}. *)

val with_label : session -> Label.t -> (unit -> 'a) -> 'a
(** Run with a temporary label; restores the previous label after
    (raising back is always allowed, so restore performs the
    appropriate declassifications/raises with the same checks). *)

val with_principal : session -> Principal.t -> (unit -> 'a) -> 'a
(** Run with a different acting principal (the primitive underlying
    authority closures and reduced-authority calls). *)

val with_reduced_authority : session -> (unit -> 'a) -> 'a
(** Run with a fresh principal that holds no authority at all
    (section 3.3's reduced authority calls). *)

(** {1 Principals, tags, authority}

    Thin wrappers over {!Ifdb_difc.Authority} that pass the session's
    label, so every authority-state mutation is rejected unless the
    process is uncontaminated. *)

val create_principal : session -> name:string -> Principal.t
val create_tag : session -> name:string -> ?compounds:Tag.t list -> unit -> Tag.t
(** The session's principal becomes the owner. *)

val delegate : session -> tag:Tag.t -> grantee:Principal.t -> unit
val revoke : session -> tag:Tag.t -> grantee:Principal.t -> unit
val find_tag : t -> string -> Tag.t
val find_principal : t -> string -> Principal.t

val closure_principal :
  session -> name:string -> tags:Tag.t list -> Principal.t
(** Create a principal for an authority closure: the caller delegates
    each of [tags] to it (so the caller must hold that authority).
    Bind it to code with {!register_procedure}, {!create_trigger} or
    {!with_principal}. *)

(** {1 SQL} *)

type result =
  | Rows of { columns : string list; tuples : Tuple.t list }
  | Affected of int
  | Done of string  (** DDL / transaction control / PERFORM *)

val exec : session -> string -> result
(** Execute one SQL statement (lexical and parse errors raise
    {!Errors.Sql_error}), served from the implicit plan cache when its
    shape is cached.  Statements outside BEGIN/COMMIT run in an
    implicit transaction. *)

val exec_script : session -> string -> result list
(** Execute a semicolon-separated script, statement by statement. *)

val exec_stmt : session -> Ifdb_sql.Ast.stmt -> result
(** Execute one pre-parsed statement (same guarding and error
    normalization as {!exec}).  It never consults the plan cache: every
    call analyzes, plans and executes afresh, the uncached reference
    path. *)

val query : session -> string -> Tuple.t list
(** {!exec} restricted to row-returning statements. *)

val query_one : session -> string -> Tuple.t
(** First row of {!query}; raises {!Errors.Sql_error} if empty. *)

val insert_returning_count : session -> string -> int
(** {!exec} restricted to DML; returns the affected-row count. *)

(** {2 Prepared statements}

    [PREPARE name AS <stmt>] parses, analyzes and registers a statement
    once per session; [$n] placeholders (1-based) mark parameter slots.
    [EXECUTE name (args…)] binds arguments positionally and runs it —
    SELECT, INSERT, UPDATE and DELETE bodies without expression-position
    subqueries execute from a cached parameterized plan (one per
    session-label id, stamped with the catalog version and authority
    generation).  [DEALLOCATE name] /
    [DEALLOCATE ALL] drop registrations.  The audit log and slow-query
    log render executions as [EXECUTE name AS <body>] with the
    placeholders intact — bound values never appear there. *)

val execute_prepared : session -> string -> Value.t list -> result
(** Programmatic [EXECUTE]: bind [args] (positionally, as values) and
    run the named prepared statement.  The values bind as they are, and
    a body with a cached plan is neither lowered nor planned again: a
    DML plan keeps its lowered expressions, column positions, access
    path and (for INSERT) resolved target table.  The Write Rule,
    DECLASSIFYING authority, label constraints, uniqueness, Foreign Key
    checks and the insert-trigger lookup still run on every call; an
    UPDATE whose new version keeps every unique-indexed column and its
    label id skips only the uniqueness probe, since it takes over the
    old version's (key, label) identity. *)

type prepared_info = {
  pi_name : string;
  pi_text : string;  (** statement body, placeholders intact *)
  pi_nparams : int;
  pi_hits : int;  (** executions served by a cached plan *)
  pi_plans : int;  (** plan entries cached (one per session-label id) *)
  pi_cat_version : int;  (** catalog stamp of the prepare-time analysis *)
  pi_generation : int;  (** authority stamp of the prepare-time analysis *)
}

val prepared_statements : session -> prepared_info list
(** This session's prepared statements, sorted by name (the shell's
    [\prepared] listing). *)

val insert_many : session -> table:string -> Value.t array list -> int
(** Programmatic bulk insert: every row is labeled with the session's
    current label (the Write Rule), validated, then written through the
    batched path — Write Rule and commit-label verdicts once per
    distinct interned label id, WAL records through one buffered batch
    append, secondary indexes maintained by sorted bulk load.
    Equivalent to one [INSERT] per row (same visible tuples, labels,
    index contents and polyinstantiation behavior); tables with insert
    triggers or self-referencing foreign keys fall back to the per-row
    path.  Runs in the session's open transaction, or an implicit one.
    Returns the row count. *)

(** {1 Triggers, procedures, scalar functions, label constraints} *)

type trigger_event = {
  ev_table : string;
  ev_kind : [ `Insert | `Update | `Delete ];
  ev_old : Tuple.t option;
  ev_new : Tuple.t option;
}

val create_trigger :
  session ->
  name:string ->
  table:string ->
  kinds:[ `Insert | `Update | `Delete ] list ->
  ?timing:[ `Immediate | `Deferred ] ->
  ?authority:Principal.t ->
  (session -> trigger_event -> unit) ->
  unit
(** [authority] makes it a stored authority closure (runs with that
    principal); creation requires an uncontaminated session.  The body
    runs with the label of the triggering statement, also for
    [`Deferred] triggers at commit (section 5.2.3). *)

val drop_trigger : t -> string -> unit

val register_procedure :
  session ->
  name:string ->
  ?authority:Principal.t ->
  (session -> Value.t list -> Value.t) ->
  unit
(** Stored procedures, callable via [PERFORM name(args)].  With
    [authority], a stored authority closure (section 4.3). *)

val create_relabeling_view :
  ?materialized:bool ->
  session ->
  name:string ->
  query:string ->
  replace:(Tag.t * Tag.t) list ->
  unit
(** The sophisticated declassifying views of section 4.3: the view
    replaces each [from] tag with its [to] tag at its boundary (e.g. a
    billing view swapping [p_medical] for [p_billing]).  Requires an
    uncontaminated session with authority for every [from] tag.
    [materialized] (default false) additionally registers it for
    incremental maintenance, like [CREATE MATERIALIZED VIEW]. *)

val query_each :
  session ->
  ?extra:Label.t ->
  string ->
  (session -> Tuple.t -> unit) ->
  int
(** The per-tuple iterator from the paper's future work (section 10):
    run the SELECT with [extra] additional readable tags and hand each
    tuple to [f] in a fresh sub-session whose label joins the caller's
    with that tuple's — per-tuple contamination, confined as if each
    tuple were handled by its own forked process.  Returns the row
    count.  The caller's own label is unchanged. *)

val register_scalar :
  t -> name:string -> ?authority:Principal.t -> (session -> Value.t list -> Value.t) -> unit
(** Scalar functions usable inside SQL expressions (e.g. the
    [IsPCMember] call in HotCRP's declassifying view). *)

val add_label_constraint :
  t ->
  name:string ->
  table:string ->
  (Tuple.t -> Ifdb_engine.Catalog.label_rule option) ->
  unit

(** {1 Static analysis}

    The prepare-time label-flow analyzer ({!Ifdb_analysis.Analysis})
    wired to a session: every statement executed through {!exec},
    {!exec_script} or {!exec_stmt} is analyzed against the current
    catalog, live label partitions and authority state before it runs.
    Diagnostics are attached to the session; with [strict_analysis]
    they also reject provably-failing statements at prepare time. *)

val analyze : session -> string -> Ifdb_analysis.Diag.t list
(** Analyze a statement (or script) without executing it.  Parse
    failures come back as [parse-error] diagnostics, not exceptions.
    Returns [] when the database runs with [~ifc:false]. *)

val analyze_stmt : session -> Ifdb_sql.Ast.stmt -> Ifdb_analysis.Diag.t list
(** Analyze one pre-parsed statement without executing it. *)

val session_warnings : session -> Ifdb_analysis.Diag.t list
(** The diagnostics the analyzer attached to the most recent statement
    executed on this session (empty for clean statements). *)

(** {2 Trace-level analysis}

    Whole-script abstract interpretation ({!Ifdb_analysis.Analysis}'s
    [trace_] entry points) wired to a session: the symbolic trace is
    seeded from the session's live state — principal, label, an
    already-open transaction's write set, prepared templates — and each
    item of the script is analyzed against the state the script itself
    has built up.  Nothing is executed. *)

val trace_begin : session -> Ifdb_analysis.Trace_state.t
(** A fresh symbolic trace seeded from the session. *)

val trace_stmt :
  session ->
  Ifdb_analysis.Trace_state.t ->
  Ifdb_sql.Ast.stmt ->
  Ifdb_analysis.Diag.t list
(** Analyze the next statement of the script and apply its symbolic
    effects.  [[]] when the database runs with [~ifc:false]. *)

val trace_meta :
  session ->
  Ifdb_analysis.Trace_state.t ->
  name:string ->
  args:string list ->
  Ifdb_analysis.Diag.t list
(** Analyze a shell meta command ([\principal], [\newtag],
    [\addsecrecy], [\declassify], [\delegate], [\revoke]) symbolically. *)

val trace_finish :
  session ->
  Ifdb_analysis.Trace_state.t ->
  (int * Ifdb_analysis.Diag.t list) list
(** Whole-script diagnostics (dead-write, stale-prepare), grouped by
    the 1-based item index they attach to. *)

type check_item = {
  ck_index : int;  (** 1-based item index within the script *)
  ck_line : int;  (** source line of the item *)
  ck_text : string;
  ck_diags : Ifdb_analysis.Diag.t list;
}

val check_script : session -> string -> check_item list
(** The shell's [\check]: split [text] with {!Ifdb_analysis.Sqlscript},
    thread one symbolic trace through every statement and meta command,
    and return per-item diagnostics with the whole-script passes folded
    back in.  Parse failures become [parse-error] diagnostics on the
    offending item.  Nothing is executed and the session is left
    untouched. *)

(** {1 Maintenance} *)

val vacuum : t -> int
(** Remove dead tuple versions (exempt from flow rules, section 7.1);
    returns the number removed. *)

val checkpoint : t -> unit
(** Flush dirty pages (charges simulated write I/O). *)

val table_names : t -> string list

(** {1 Observability}

    One registry per database instance unifies the engine's scattered
    statistics (label store, buffer pool, WAL, group commit, domain
    pool, audit log) behind stable [ifdb_*] metric names, plus counters
    and a latency histogram maintained by the statement path itself.
    Every instrument update is one atomic operation. *)

val metrics : t -> Ifdb_obs.Metrics.t
(** The instance's metrics registry, for registering extra instruments
    (e.g. the platform's authority cache). *)

val metrics_snapshot : t -> (string * float) list
(** Current value of every metric, in registration order.  Histograms
    contribute [name_count] and [name_sum]. *)

val metrics_prometheus : t -> string
(** The registry in Prometheus text exposition format ([# HELP] /
    [# TYPE] / samples; histograms with cumulative [_bucket\{le=…\}]
    series). *)

val reset_stats : t -> unit
(** Zero the registry's counters and histograms {e and} the component
    stat blocks behind the pull gauges (label store, buffer pool, WAL,
    group commit) in one sweep, using their atomic take-and-reset
    entry points.  Gauges of current state (e.g. interned labels,
    pending commits) are unaffected. *)

val explain_analyze : session -> string -> string list * result
(** Execute a SELECT with per-operator tracing and return the rendered
    report (one line per string) alongside the ordinary result.  The
    report shows each operator's rows and inclusive wall time, morsel
    and per-worker attribution for parallel fan-outs, per-table label
    confinement counts (tuples scanned, pruned, whole scans skipped as
    label-empty), and the flow-check count and memo hit rate for
    exactly this execution.  Tracing is per-session and per-query:
    concurrent untraced statements pay nothing.  SQL-level access:
    [EXPLAIN ANALYZE SELECT …] (and [EXPLAIN SELECT …] for the plan
    tree alone), returning the report as [QUERY PLAN] rows. *)

val slow_queries : ?n:int -> t -> Ifdb_obs.Trace.slow_entry list
(** Most recent slow-query entries, newest first (default 20; none for
    a negative [n]).  Only
    populated when {!create} was given [slow_query_ms].  When the
    statement was also span-sampled, the entry's [sq_trace] links to
    its record in {!spans}. *)

val spans : t -> Ifdb_obs.Span.t
(** The statement-lifecycle span recorder: a ring of the last 256
    sampled statements' span trees.  Empty unless {!create} was given
    [trace_sample > 0].  Render with {!Ifdb_obs.Span.render} or export
    with {!Ifdb_obs.Span.to_chrome_json}. *)

val view_stats : t -> Ifdb_engine.Ivm.view_stats list
(** Per-materialized-view maintenance statistics from the IVM
    registry, sorted by name: whether delta maintenance is on (and the
    reason when it is not), materialized entry and label-partition
    counts, staleness, and the delta-applied / refreshed / served /
    recomputed counters.  The same counters back the registry's
    [ifdb_mat_view_*] gauges.  Views created without [MATERIALIZED]
    never appear here. *)

val audit_log : t -> Ifdb_obs.Audit.t
(** The instance's IFC audit stream: declassifications (view and
    session), authority closure invocations, delegations/revocations,
    Write-Rule and commit-label rejections, and clearance raises, each
    stamped with the acting principal, the tags involved and the
    originating statement.  Always on — security events are rare enough
    that recording them is free relative to executing them. *)

(** {1 Label partitions}

    Introspection over the label-sharded storage layout. *)

val partitions_pruned : t -> int
(** Total partitions skipped by label confinement across all scans
    since startup — the counter behind [ifdb_partition_pruned_total].
    Zero under a scan-everything workload or with IFC off. *)

type table_partitions = {
  tp_table : string;
  tp_stats : Ifdb_storage.Heap.partition_stats list;
}

val partition_report : t -> table_partitions list
(** Per-table partition directory, tables sorted by name, partitions by
    interned label id: version count, live (uncommitted-delete) count
    and page count per partition.  Tables that never held a row are
    omitted. *)
