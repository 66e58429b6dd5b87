(** The static label-flow analyzer (prepare-time Query-by-Label lint).

    Runs over the SQL AST, the catalog (schemas, views, live label
    partitions via {!Ifdb_storage.Heap.iter_label_counts}), and the
    authority state — {e without executing anything} — and produces
    {!Diag.t} diagnostics:

    - {b doomed writes}: UPDATE/DELETE whose target labels can never
      equal the session label under the Write Rule;
    - {b vacuous queries}: scans or [_label = {…}] predicates
      restricted to partitions that cannot flow to the session label;
    - {b over-broad declassification}: [DECLASSIFYING] clauses the
      acting principal lacks authority for (including via the
      delegation graph), or that declassify tags absent from the base
      tables' label partitions;
    - {b commit-label traps}: a COMMIT whose write-set labels make the
      commit-label rule unsatisfiable for the current session label;
    - {b FK leak patterns}: foreign keys whose referenced rows sit
      under labels the referencing side cannot bridge.

    Precision contract: [Error]-severity diagnostics are decided
    against the {e exact} live partition sets and authority state, so
    a clean verdict is never produced for a statement that must fail,
    and an [Error] means the statement cannot succeed under the
    current committed data (partition counts include versions awaiting
    vacuum, so "current data" is read conservatively).  A live scan's
    partitions are decided by {!Ifdb_engine.Catalog.confine}, the same
    cached verdict the executor's scans read, so the analyzer's
    vacuous-scan warning and the executor's pruning cannot disagree. *)

module A := Ifdb_sql.Ast
module Label := Ifdb_difc.Label

type ctx = {
  an_catalog : Ifdb_engine.Catalog.t;
  an_auth : Ifdb_difc.Authority.t;
  an_store : Ifdb_difc.Label_store.t;
  an_principal : Ifdb_difc.Principal.t;
  an_label : Label.t;  (** the session label the statement would run under *)
  an_write_labels : Label.t list Lazy.t;
      (** labels already in the open transaction's write set (for
          COMMIT analysis and a trace seeded mid-transaction); empty
          outside a transaction.  Lazy: only those two read it, so
          every other statement's analysis does not copy a write set
          that grows with the transaction *)
  an_clearance : bool;
      (** the clearance rule is active (serializable isolation):
          [addsecrecy] inside an explicit transaction requires
          authority for the tag *)
  an_in_txn : bool;
      (** an explicit transaction is open at analysis time *)
  an_trace : Trace_state.t option;
      (** trace-level state.  A {e symbolic} trace (lint [--trace],
          shell [\check]) overlays the catalog, label partitions and
          authority graph with the script's own effects; a
          non-symbolic trace is the thin shadow a live session keeps
          for its open transaction, used only to attribute COMMIT
          diagnostics to the statement that wrote the offending
          label. *)
}

val analyze_stmt : ctx -> A.stmt -> Diag.t list
(** Diagnostics for one statement, errors first.  Never raises on
    malformed input — unknown names come back as [Name_error]
    diagnostics. *)

val referenced_tags : A.stmt -> string list
(** Every tag name the statement mentions ([{…}] label literals,
    [DECLASSIFYING] clauses, [PERFORM addsecrecy/declassify]
    arguments), deduplicated — the lint driver uses this to
    pre-create tags when linting scripts against a fresh database. *)

val subst_params :
  Ifdb_rel.Value.t array -> A.stmt -> A.stmt
(** Replace every [$n] with [bindings.(n-1)] as a constant; out-of-range
    placeholders are left intact.  Powers [ifdb_lint --bind] and the
    trace interpreter's analysis of [EXECUTE] with constant
    arguments. *)

(** {1 Trace-level abstract interpretation}

    The [trace_] entry points thread one {!Trace_state.t} through a
    whole script: [trace_begin] seeds it from the session context (an
    already-open transaction's write set included), then each statement
    goes through {!analyze_trace_stmt} (and each meta command through
    {!trace_meta}), and {!trace_finish} runs the whole-script passes
    (dead-write, stale-prepare) once the end of the script is known.

    Statement indices are 1-based and every item — statement or meta —
    consumes one, so index [i] always names the [i]-th item. *)

val trace_begin : ctx -> Trace_state.t
val analyze_trace_stmt : ctx -> Trace_state.t -> A.stmt -> Diag.t list
(** Diagnostics for the next statement of the script, under the
    symbolic state accumulated so far; applies the statement's state
    effects unless it is certain to fail.  Adds the cross-statement
    verdicts per-statement linting cannot see: guaranteed
    transaction-control failures ([Runtime_error]),
    [Declassify_after_revoke], [Txn_commit_trap], [Unreachable_stmt],
    and EXECUTE-of-doomed-template ([EXECUTE] with constant arguments
    analyzes as the fully bound statement). *)

val trace_meta :
  ctx -> Trace_state.t -> name:string -> args:string list -> Diag.t list
(** A shell/lint meta command ([principal], [newtag], [addsecrecy],
    [declassify], [delegate], [revoke]); unrecognized names are
    ignored. *)

val trace_finish : ctx -> Trace_state.t -> (int * Diag.t list) list
(** Whole-script diagnostics, grouped by the 1-based item index they
    attach to, in index order: [Dead_write] (a labeled write no later
    statement reads and no principal can ever declassify) and
    [Stale_prepare] (a catalog/authority change between PREPARE and
    its first EXECUTE). *)
