module Label = Ifdb_difc.Label
module Label_store = Ifdb_difc.Label_store
module Tag = Ifdb_difc.Tag
module Principal = Ifdb_difc.Principal
module Authority = Ifdb_difc.Authority
module Value = Ifdb_rel.Value
module Tuple = Ifdb_rel.Tuple
module Schema = Ifdb_rel.Schema
module Expr = Ifdb_rel.Expr
module Datatype = Ifdb_rel.Datatype
module Heap = Ifdb_storage.Heap
module Buffer_pool = Ifdb_storage.Buffer_pool
module Wal = Ifdb_storage.Wal
module Manager = Ifdb_txn.Manager
module Catalog = Ifdb_engine.Catalog
module Planner = Ifdb_engine.Planner
module Plan = Ifdb_engine.Plan
module Executor = Ifdb_engine.Executor
module Ivm = Ifdb_engine.Ivm
module Domain_pool = Ifdb_engine.Domain_pool
module A = Ifdb_sql.Ast
module Parser = Ifdb_sql.Parser
module Printer = Ifdb_sql.Printer
module Analysis = Ifdb_analysis.Analysis
module Trace_state = Ifdb_analysis.Trace_state
module Interval = Ifdb_analysis.Interval
module Diag = Ifdb_analysis.Diag
module Metrics = Ifdb_obs.Metrics
module Trace = Ifdb_obs.Trace
module Span = Ifdb_obs.Span
module Audit = Ifdb_obs.Audit
module Group_commit = Ifdb_txn.Group_commit

open Errors

type isolation = Snapshot | Serializable

(* Instruments the statement path updates directly.  Everything else in
   the registry is a pull gauge over component stats, so the hot path
   pays nothing for it. *)
type mx = {
  mx_statements : Metrics.counter;
  mx_errors : Metrics.counter;
  mx_commits : Metrics.counter;
  mx_aborts : Metrics.counter;
  mx_slow : Metrics.counter;
  mx_latency : Metrics.histogram;
  mx_pc_hits : Metrics.counter;
  mx_pc_misses : Metrics.counter;
  mx_pc_invalidations : Metrics.counter;
}

(* ------------------------------------------------------------------ *)
(* Plan cache                                                          *)
(* ------------------------------------------------------------------ *)

(* One cached plan.  Plans are name-based (scans resolve tables through
   the executor context at run time) and parameter slots are [Expr.Param]
   leaves, so a single plan serves every binding — but view expansion,
   declassify labels and index choice were all resolved against a
   specific catalog and authority state, so every entry is stamped with
   the versions it was planned under and discarded when either moves.
   Scan-time confinement ([partition_scan_filter]) is re-derived per
   execution from the session, never baked into the plan. *)
type plan_entry = {
  pe_plan : Plan.t;
  pe_columns : string list;
  pe_cat_version : int;
  pe_generation : int;  (* Authority.generation at plan time *)
}

(* A prepared statement's cached artifacts: the parsed body ($n
   placeholders intact), its prepare-time diagnostics, and plans keyed
   by the interned session-label id — sessions under different labels
   may see different view expansions, so they never share an entry
   (mirroring the IVM reader cache).  [sc_lock] is set only for entries
   in the database-wide implicit cache, which sessions on other domains
   may touch concurrently; per-session prepared statements need none. *)
type stmt_cache = {
  sc_stmt : A.stmt;
  sc_text : string;  (* canonical rendering, placeholders intact *)
  sc_nparams : int;
  sc_cacheable : bool;
      (* SELECT without expression-position subqueries: those lower to
         memoizing [Expr.Lazy_const] thunks capturing one execution's
         context, so such plans must be rebuilt every execution *)
  mutable sc_diags : Diag.t list;
  mutable sc_stamp : int * int * int;
      (* (catalog version, authority generation, session-label id) the
         diagnostics were computed under *)
  sc_plans : (int, plan_entry) Hashtbl.t;  (* session-label id → plan *)
  mutable sc_hits : int;
  sc_lock : Mutex.t option;
}

type trigger_event = {
  ev_table : string;
  ev_kind : [ `Insert | `Update | `Delete ];
  ev_old : Tuple.t option;
  ev_new : Tuple.t option;
}

type trigger = {
  trg_name : string;
  trg_table : string; (* normalized *)
  trg_kinds : [ `Insert | `Update | `Delete ] list;
  trg_timing : [ `Immediate | `Deferred ];
  trg_authority : Principal.t option;
  trg_fn : session -> trigger_event -> unit;
}

and callable = {
  c_authority : Principal.t option;
  c_fn : session -> Value.t list -> Value.t;
}

and t = {
  auth : Authority.t;
  lstore : Label_store.t;
  cat : Catalog.t;
  mgr : Manager.t;
  bp : Buffer_pool.t;
  ivm : Ivm.t;
      (* incrementally maintained materialized views; fed from the
         commit path, served from the executor's view hook *)
  ifc : bool;
  iso : isolation;
  strict : bool; (* static-analysis errors reject statements at prepare *)
  admin_p : Principal.t;
  scalars : (string, callable) Hashtbl.t;
  procedures : (string, callable) Hashtbl.t;
  mutable triggers : trigger list;
  mutable commits_since_vacuum : int;
  autovacuum_every : int;
  parallelism : int;
      (* domains used per query (caller included); 1 = serial *)
  morsel : int; (* slots per morsel for parallel sequential scans *)
  pruned_parts : int Atomic.t;
      (* partitions pruned from scans by label confinement (atomic:
         bumped from parallel scan setup too) *)
  dpool : Domain_pool.t option; (* Some iff parallelism > 1 *)
  metrics : Metrics.t;
  mx : mx;
  audit : Audit.t;
  slow : Trace.slow_log;
  slow_ns : int;
      (* statements at/above this duration land in the slow-query log;
         [max_int] disables the log (and its clock reads) entirely *)
  spans : Span.t;
      (* statement-lifecycle span recorder; sampling off by default
         ([trace_sample = 0]), in which case the statement path costs
         one atomic read and no clock *)
  pc_mu : Mutex.t;
  pc_alias : (string, string) Hashtbl.t;
      (* trimmed raw statement text → canonical printed text, so the
         implicit cache is keyed on what applications actually send *)
  pc_stmts : (string, stmt_cache) Hashtbl.t;
      (* canonical text → cached statement (implicit, database-wide) *)
}

and session = {
  sdb : t;
  mutable s_principal : Principal.t;
  mutable s_label : Label.t;
  mutable s_txn : Manager.txn option;
  mutable s_implicit : bool;
  mutable s_deferred : (trigger * trigger_event * Label.t * Principal.t) list;
      (* queued newest-first; each entry captured the statement's label
         and principal, per section 5.2.3 *)
  mutable s_warnings : Diag.t list;
      (* diagnostics the prepare-time analyzer attached to the most
         recently executed statement *)
  mutable s_stmt : A.stmt option;
      (* statement being executed, so audit events can name their
         originating SQL without rendering it unless an event fires *)
  mutable s_trace : Trace.t option;
      (* active EXPLAIN ANALYZE trace; threaded into the executor ctx
         and the label-confinement scan filters *)
  mutable s_params : Value.t array;
      (* the current EXECUTE's bindings, frozen before execution starts;
         [Expr.Param n] reads slot n-1.  Empty outside EXECUTE. *)
  s_prepared : (string, stmt_cache) Hashtbl.t;
      (* session-local prepared statements, keyed by normalized name *)
  mutable s_flow : Trace_state.t option;
      (* non-symbolic trace shadowing the open explicit transaction:
         statement indices and per-statement write records, so COMMIT
         diagnostics can cite the statement that trapped the
         transaction.  None outside an explicit transaction. *)
}

type result =
  | Rows of { columns : string list; tuples : Tuple.t list }
  | Affected of int
  | Done of string

let norm = String.lowercase_ascii

let authority t = t.auth
let label_store t = t.lstore
let catalog t = t.cat
let manager t = t.mgr
let pool t = t.bp
let wal t = Manager.wal t.mgr
let group_commit t = Manager.group_commit t.mgr
let flush_wal t = Manager.flush_wal t.mgr
let ifc_enabled t = t.ifc
let isolation t = t.iso
let admin t = t.admin_p
let metrics t = t.metrics
let metrics_snapshot t = Metrics.snapshot t.metrics
let metrics_prometheus t = Metrics.to_prometheus t.metrics
let audit_log t = t.audit
let view_stats t = Ivm.stats t.ivm
let slow_queries ?(n = 20) t = Trace.slow_log_recent t.slow n
let spans t = t.spans
let partitions_pruned t = Atomic.get t.pruned_parts

type table_partitions = {
  tp_table : string;
  tp_stats : Heap.partition_stats list;
}

let partition_report t =
  List.sort
    (fun a b -> String.compare a.tp_table b.tp_table)
    (List.filter_map
       (fun tbl ->
         let heap = tbl.Catalog.tbl_heap in
         match Heap.partition_stats heap with
         | [] -> None
         | stats -> Some { tp_table = Heap.name heap; tp_stats = stats })
       (Catalog.all_tables t.cat))

let reset_stats t =
  Metrics.reset t.metrics;
  ignore (Label_store.take_stats t.lstore);
  ignore (Buffer_pool.take_stats t.bp);
  Wal.reset_stats (wal t);
  Group_commit.reset_stats (group_commit t)

let connect t ~principal =
  {
    sdb = t;
    s_principal = principal;
    s_label = Label.empty;
    s_txn = None;
    s_implicit = false;
    s_deferred = [];
    s_warnings = [];
    s_stmt = None;
    s_trace = None;
    s_params = [||];
    s_prepared = Hashtbl.create 8;
    s_flow = None;
  }

let connect_admin t = connect t ~principal:t.admin_p
let database s = s.sdb
let session_principal s = s.s_principal
let session_label s = s.s_label
let session_warnings s = s.s_warnings

(* Shared label renderer for IFC error messages and lint diagnostics:
   tag names instead of raw ids. *)
let label_string db l = Authority.label_to_string db.auth l

(* ------------------------------------------------------------------ *)
(* Audit helpers                                                       *)
(* ------------------------------------------------------------------ *)

let tag_string db tag =
  match Authority.tag_name db.auth tag with
  | "" -> Format.asprintf "%a" Tag.pp tag
  | name -> name
  | exception _ -> Format.asprintf "%a" Tag.pp tag

let principal_string db p =
  match Authority.principal_name db.auth p with
  | "" -> Format.asprintf "%a" Principal.pp p
  | name -> name
  | exception _ -> Format.asprintf "%a" Principal.pp p

(* How a statement appears in the audit trail and the slow-query log.
   EXECUTE renders as its prepared body with the [$n] placeholders
   intact — never the bound values: both logs outlive the session's
   label, so leaking a parameter there would bypass confinement. *)
let stmt_display s (st : A.stmt) =
  match st with
  | A.S_execute { ex_name; _ } -> (
      match Hashtbl.find_opt s.s_prepared (norm ex_name) with
      | Some sc -> Printf.sprintf "EXECUTE %s AS %s" ex_name sc.sc_text
      | None -> "EXECUTE " ^ ex_name)
  | _ -> Printer.stmt_to_string st

(* What a span may say about a statement: the head keyword only.
   Statement text never enters a span — a label literal can embed tag
   names, and span exports must stay label-clean (DESIGN.md §6.10). *)
let stmt_kind (st : A.stmt) =
  match st with
  | A.S_select _ -> "select"
  | A.S_insert _ -> "insert"
  | A.S_update _ -> "update"
  | A.S_delete _ -> "delete"
  | A.S_begin -> "begin"
  | A.S_commit -> "commit"
  | A.S_rollback -> "rollback"
  | A.S_explain _ -> "explain"
  | A.S_prepare _ -> "prepare"
  | A.S_execute _ -> "execute"
  | A.S_deallocate _ -> "deallocate"
  | _ -> "ddl"

(* Root-span arguments: statement kind, plus — for EXECUTE — the
   prepared name and its arguments as [$n] placeholders (never the
   bound values, same policy as the slow-query log above). *)
let span_root_args (st : A.stmt) =
  match st with
  | A.S_execute { ex_name; ex_args } ->
      let params =
        String.concat ","
          (List.mapi (fun i _ -> "$" ^ string_of_int (i + 1)) ex_args)
      in
      [ ("stmt", "execute"); ("prepared", ex_name); ("params", params) ]
  | _ -> [ ("stmt", stmt_kind st) ]

(* The statement text is rendered only when an event actually fires;
   stamping [s_stmt] per statement is just a pointer write. *)
let audit_emit s ~kind ?(tags = []) ?(detail = "") () =
  let db = s.sdb in
  let stmt =
    match s.s_stmt with Some st -> stmt_display s st | None -> ""
  in
  Audit.emit db.audit ~kind
    ~principal:(principal_string db s.s_principal)
    ~tags:(List.map (tag_string db) tags)
    ~stmt ~detail ()

(* ------------------------------------------------------------------ *)
(* Label manipulation                                                  *)
(* ------------------------------------------------------------------ *)

let add_secrecy s tag =
  let db = s.sdb in
  if db.ifc then begin
    (* clearance rule: under serializability, raising the label inside
       a transaction requires authority for the tag (section 5.1) *)
    if db.iso = Serializable && s.s_txn <> None
       && not (Authority.has_authority db.auth s.s_principal tag)
    then
      Errors.authority
        "clearance rule: adding tag %s to the label of a serializable \
         transaction requires authority for it (session label %s)"
        (label_string db (Label.singleton tag))
        (label_string db s.s_label)
  end;
  if db.ifc && not (Label.mem tag s.s_label) then
    audit_emit s ~kind:Audit.Clearance_raise ~tags:[ tag ] ();
  s.s_label <- Label.add tag s.s_label

let declassify s tag =
  let db = s.sdb in
  if db.ifc then Authority.check_authority db.auth s.s_principal tag;
  if db.ifc && Label.mem tag s.s_label then
    audit_emit s ~kind:Audit.Session_declassify ~tags:[ tag ] ();
  s.s_label <- Label.remove tag s.s_label

let set_label s target =
  let added = Label.diff target s.s_label in
  let removed = Label.diff s.s_label target in
  Label.iter (fun tag -> add_secrecy s tag) added;
  Label.iter (fun tag -> declassify s tag) removed

let with_label s target f =
  let saved = s.s_label in
  set_label s target;
  match f () with
  | r ->
      set_label s saved;
      r
  | exception e ->
      (* restore raises only; dropping tags would need authority we may
         not hold on the error path *)
      s.s_label <- Label.union s.s_label saved;
      raise e

let with_principal s p f =
  let saved = s.s_principal in
  s.s_principal <- p;
  Fun.protect ~finally:(fun () -> s.s_principal <- saved) f

let with_reduced_authority s f =
  let db = s.sdb in
  let nobody =
    Authority.create_principal db.auth ~actor_label:Label.empty ~name:""
  in
  with_principal s nobody f

(* ------------------------------------------------------------------ *)
(* Principals, tags, authority                                         *)
(* ------------------------------------------------------------------ *)

let create_principal s ~name =
  Authority.create_principal s.sdb.auth ~actor_label:s.s_label ~name

let create_tag s ~name ?compounds () =
  Authority.create_tag s.sdb.auth ~actor_label:s.s_label ~owner:s.s_principal
    ~name ?compounds ()

let delegate s ~tag ~grantee =
  Authority.delegate s.sdb.auth ~actor:s.s_principal ~actor_label:s.s_label ~tag
    ~grantee;
  audit_emit s ~kind:Audit.Delegate ~tags:[ tag ]
    ~detail:("grantee=" ^ principal_string s.sdb grantee)
    ()

let revoke s ~tag ~grantee =
  Authority.revoke s.sdb.auth ~actor:s.s_principal ~actor_label:s.s_label ~tag
    ~grantee;
  audit_emit s ~kind:Audit.Revoke ~tags:[ tag ]
    ~detail:("grantee=" ^ principal_string s.sdb grantee)
    ()

let find_tag t name = Authority.find_tag t.auth name
let find_principal t name = Authority.find_principal t.auth name

let closure_principal s ~name ~tags =
  let p = create_principal s ~name in
  List.iter (fun tag -> delegate s ~tag ~grantee:p) tags;
  p

(* ------------------------------------------------------------------ *)
(* Query-by-Label row access                                           *)
(* ------------------------------------------------------------------ *)

let current_txn s what =
  match s.s_txn with
  | Some txn -> txn
  | None -> Errors.sql "%s outside a transaction" what

(* When an EXPLAIN ANALYZE trace is active, wrap a scan's label filter
   so every confinement decision is tallied per table.  Atomic counters
   make one wrapper safe for both the serial and the morsel-parallel
   paths; untraced statements never reach this closure. *)
let trace_scan_filter s ~heap readable =
  match s.s_trace with
  | None -> readable
  | Some tr ->
      let sc = Trace.scan_entry tr (Heap.name heap) in
      fun v ->
        let ok = readable v in
        Atomic.incr sc.Trace.sc_scanned;
        if not ok then Atomic.incr sc.Trace.sc_pruned;
        ok

let trace_scan_skipped s ~heap =
  match s.s_trace with
  | None -> ()
  | Some tr ->
      Atomic.incr (Trace.scan_entry tr (Heap.name heap)).Trace.sc_skipped

(* The single enforcement point for reads: the Label Confinement Rule
   (section 4.2).  Every scan — sequential, morsel-parallel or
   index-assisted, direct or through views — obtains its label filter
   here.

   The destination label [s_label ∪ extra] is invariant over a scan, so
   it is unioned and interned once.  Every label partition of the heap
   is then decided once against it, and the keep-set a merged scan will
   enumerate is frozen: a pruned partition's slots and pages are never
   visited, so a scan over k distinct labels performs k flow
   derivations (or k flow-cache probes) and no per-tuple verdict.  The
   returned residual filter only re-derives flows for uninterned tuples
   (label id -1, built outside the statement path).  It keeps no
   per-call mutable state, so one closure serves the serial and the
   morsel-parallel paths alike.

   Returns (keep, residual, any_visible, visited): [keep] is frozen
   membership for the merged-scan primitives; [any_visible] is [false]
   when no live partition can flow to the destination, so the scan
   provably returns nothing and the caller may skip it without touching
   a page; [visited] lists the label ids whose partitions the scan will
   read (its serializability footprint). *)
let partition_scan_filter s ~heap ~extra :
    (int -> bool) * (Heap.version -> bool) * bool * int list =
  let db = s.sdb in
  if not db.ifc then begin
    (* no confinement: every partition is kept, and the footprint still
       names them so partition-level write locks conflict correctly *)
    let visited = ref [] in
    Heap.iter_label_counts heap (fun lid _ -> visited := lid :: !visited);
    ((fun _ -> true), trace_scan_filter s ~heap (fun _ -> true), true, !visited)
  end
  else begin
    let store = db.lstore in
    let dst = Label.union s.s_label extra in
    let dst_id = Label_store.intern store dst in
    let kept : (int, unit) Hashtbl.t = Hashtbl.create 8 in
    let visited = ref [] in
    let pruned = ref 0 and pruned_tuples = ref 0 in
    Heap.iter_label_counts heap (fun lid count ->
        if lid < 0 || Label_store.flows_id store ~src:lid ~dst:dst_id then begin
          Hashtbl.replace kept lid ();
          visited := lid :: !visited
        end
        else begin
          incr pruned;
          pruned_tuples := !pruned_tuples + count
        end);
    if !pruned > 0 then
      ignore (Atomic.fetch_and_add db.pruned_parts !pruned);
    (* an EXPLAIN ANALYZE trace still reports the tuples confinement
       kept from this statement, even though they were pruned without
       being scanned *)
    (match s.s_trace with
    | Some tr when !pruned_tuples > 0 ->
        ignore
          (Atomic.fetch_and_add
             (Trace.scan_entry tr (Heap.name heap)).Trace.sc_pruned
             !pruned_tuples)
    | Some _ | None -> ());
    let residual =
      trace_scan_filter s ~heap (fun (v : Heap.version) ->
          Tuple.label_id v.Heap.tuple >= 0
          || Authority.flows db.auth ~src:(Tuple.label v.Heap.tuple) ~dst)
    in
    ((fun lid -> Hashtbl.mem kept lid), residual, !visited <> [], !visited)
  end

(* The serializability footprint of a pruned scan: the directory key
   (a partition created later might carry a label this scan should
   have conflicted with) plus each visited partition.  Pruned
   partitions stay out — a write under a label that provably does not
   flow to this session cannot change what the scan returned. *)
let note_partition_reads s txn heap visited =
  let mgr = s.sdb.mgr in
  let name = Heap.name heap in
  Manager.note_read mgr txn (Manager.directory_key name);
  List.iter
    (fun lid -> Manager.note_read mgr txn (Manager.partition_key name lid))
    visited

(* Open a sequential scan of [heap]: decide its partitions and record
   its footprint.  [None] when no partition can flow to the session: the
   scan provably returns nothing and touches no page. *)
let open_scan s ~heap ~extra =
  let txn = current_txn s "scan" in
  let keep, residual, any_visible, visited =
    partition_scan_filter s ~heap ~extra
  in
  note_partition_reads s txn heap visited;
  if any_visible then Some (txn, keep, residual)
  else begin
    trace_scan_skipped s ~heap;
    None
  end

let table_heap s table = (Catalog.table s.sdb.cat table).Catalog.tbl_heap

let scan_versions s ~table ~extra : Heap.version Seq.t =
  let heap = table_heap s table in
  match open_scan s ~heap ~extra with
  | None -> Seq.empty
  | Some (txn, keep, residual) ->
      let mgr = s.sdb.mgr in
      Seq.filter
        (fun v -> Manager.visible mgr txn v && residual v)
        (Heap.seq_merge heap ~keep)

(* A sequential scan as a push source cut into vid ranges of [morsel]
   slots: the same confinement, visibility and footprint as
   [scan_versions], but each range is one [Heap.iter_merge_range]
   pushing visible tuples into the executor's fused pipeline, with no
   per-row closure chain.  Ranges stay global vid ranges: each
   merge-scans only the kept partitions' slice of its range, and
   concatenated in order they give the serial merged scan's output.
   [keep] and [residual] are frozen before any range runs, so worker
   domains read them lock-free; the snapshots and status table that
   visibility reads are read-only while a read-only parallel section
   runs.  A label-empty scan has no ranges. *)
let merge_source s ~heap ~extra ~morsel : Executor.morsel_source =
  match open_scan s ~heap ~extra with
  | None -> { Executor.ms_morsels = 0; ms_run = (fun _ _ -> ()) }
  | Some (txn, keep, residual) ->
      let mgr = s.sdb.mgr in
      let slots = Heap.slot_count heap in
      {
        Executor.ms_morsels =
          (if slots = 0 then 0 else ((slots - 1) / morsel) + 1);
        ms_run =
          (fun i emit ->
            Heap.iter_merge_range heap ~keep ~lo:(i * morsel)
              ~hi:((i + 1) * morsel)
              (fun v ->
                if Manager.visible mgr txn v && residual v then
                  emit v.Heap.tuple));
      }

(* Cut a table into morsels for the parallel executor.  Returns [None]
   for tables too small to amortize the fork/join barrier — the
   executor then runs the serial path. *)
let morsel_scan s ~table ~extra : Executor.morsel_source option =
  let heap = table_heap s table and morsel = s.sdb.morsel in
  if Heap.slot_count heap < 2 * morsel then None
  else Some (merge_source s ~heap ~extra ~morsel)

let scan_prefix_versions s ~table ~index ~prefix ?(lo = None) ?(hi = None)
    ~extra () : Heap.version Seq.t =
  let txn = current_txn s "scan" in
  let tbl = Catalog.table s.sdb.cat table in
  let heap = tbl.Catalog.tbl_heap in
  let idx =
    match
      List.find_opt
        (fun i -> norm i.Catalog.idx_name = norm index)
        tbl.Catalog.tbl_indexes
    with
    | Some i -> i
    | None -> Errors.sql "no such index: %s" index
  in
  (* enumerate only the index segments whose label flows to the
     session: pruning applies to index scans exactly as to heap scans,
     and the per-segment streams merge into global (key, vid) order.
     Lazy: postings stream straight off the leaf chains, so a consumer
     that stops early (LIMIT, probe join) walks only what it needs. *)
  let keep, residual, any_visible, visited =
    partition_scan_filter s ~heap ~extra
  in
  note_partition_reads s txn heap visited;
  if not any_visible then Seq.empty
  else
    Catalog.seq_index_prefix idx ~keep ~prefix ~lo ~hi
    |> Seq.filter_map (fun (_key, vid) -> Heap.get_opt heap vid)
    |> Seq.filter (fun v -> Manager.visible s.sdb.mgr txn v && residual v)

(* The declassifying-view label transform: strip tags covered by the
   view's declassify label, then apply a relabeling view's (from, to)
   replacements — each matching [from] is removed and its [to] added
   (the paper's billing-view pattern, section 4.3). *)
let strip_label_with auth declassified relabel l =
  let after_strip =
    List.filter
      (fun tag -> not (Authority.covers auth declassified tag))
      (Label.to_list l)
  in
  let replaced =
    List.concat_map
      (fun tag ->
        match List.assoc_opt tag relabel with
        | Some to_tag -> [ to_tag ]
        | None -> [ tag ])
      after_strip
  in
  let additions =
    List.filter_map
      (fun (from_tag, to_tag) ->
        if Label.mem from_tag l then Some to_tag else None)
      relabel
  in
  Label.of_list (replaced @ additions)

let strip_label db = strip_label_with db.auth

let builtin_scalar name (args : Value.t list) : Value.t option =
  match (name, args) with
  | "abs", [ Value.Int i ] -> Some (Value.Int (abs i))
  | "abs", [ Value.Float f ] -> Some (Value.Float (Float.abs f))
  | "lower", [ Value.Text x ] -> Some (Value.Text (String.lowercase_ascii x))
  | "upper", [ Value.Text x ] -> Some (Value.Text (String.uppercase_ascii x))
  | "length", [ Value.Text x ] -> Some (Value.Int (String.length x))
  | "coalesce", args ->
      Some
        (match List.find_opt (fun v -> not (Value.is_null v)) args with
        | Some v -> v
        | None -> Value.Null)
  | _ -> None

let fenv s : Expr.env =
  {
    Expr.fn =
      (fun name args ->
        match builtin_scalar name args with
        | Some v -> v
        | None -> (
            match Hashtbl.find_opt s.sdb.scalars (norm name) with
            | Some c -> (
                match c.c_authority with
                | Some p -> with_principal s p (fun () -> c.c_fn s args)
                | None -> c.c_fn s args)
            | None -> Errors.sql "unknown function %s" name));
    params = s.s_params;
  }

let exec_ctx s : Executor.ctx =
  {
    Executor.fenv = fenv s;
    scan_table =
      (fun table ~extra ->
        Seq.map (fun v -> v.Heap.tuple) (scan_versions s ~table ~extra));
    (* the whole table as one range *)
    scan_push =
      (fun ~table ~extra ->
        merge_source s ~heap:(table_heap s table) ~extra ~morsel:max_int);
    scan_prefix =
      (fun ~table ~index ~prefix ~lo ~hi ~extra ->
        Seq.map (fun v -> v.Heap.tuple)
          (scan_prefix_versions s ~table ~index ~prefix ~lo ~hi ~extra ()));
    strip = (fun d relabel l -> strip_label s.sdb d relabel l);
    mv_read =
      (fun ~view ~extra ->
        let db = s.sdb in
        (* serve only implicit single-statement transactions: their
           snapshot is exactly the committed-now state the registry
           maintains.  An explicit transaction may pin an older
           snapshot, so it recomputes through the view's plan. *)
        if not s.s_implicit then begin
          Ivm.note_recompute db.ivm view;
          None
        end
        else
          match Catalog.find_view db.cat view with
          | None -> None
          | Some vw -> (
              (* the reader's scan destination label, exactly as the
                 base scans under the view boundary would compute it:
                 session label ∪ outer extra ∪ the view's declassify
                 label ∪ a relabeling view's [from] tags *)
              let dst =
                if not db.ifc then Label_store.empty_id
                else
                  Label_store.intern db.lstore
                    (Label.union s.s_label
                       (Label.union extra
                          (Label.union vw.Catalog.vw_declassify
                             (Label.of_list
                                (List.map fst vw.Catalog.vw_relabel)))))
              in
              match Ivm.read db.ivm ~view ~dst with
              | None -> None
              | Some rows ->
                  (* under serializable locking the conflict check
                     needs the base reads this serve replaced in the
                     transaction footprint *)
                  (match s.s_txn with
                  | Some txn ->
                      List.iter
                        (fun tbl ->
                          match Catalog.find_table db.cat tbl with
                          | Some t ->
                              (* the view read logically covers every
                                 partition the base scan could have
                                 visited, so lock at the same
                                 granularity writers use *)
                              let heap = t.Catalog.tbl_heap in
                              let visited = ref [] in
                              Heap.iter_label_counts heap (fun lid _ ->
                                  visited := lid :: !visited);
                              note_partition_reads s txn heap !visited
                          | None -> ())
                        (Ivm.base_tables db.ivm view)
                  | None -> ());
                  Some rows));
    par =
      (match s.sdb.dpool with
      | None -> None
      | Some pool ->
          Some
            {
              Executor.par_pool = pool;
              par_width = s.sdb.parallelism;
              par_scan = (fun ~table ~extra -> morsel_scan s ~table ~extra);
            });
    trace = s.s_trace;
  }

let pctx s =
  { Planner.pc_catalog = s.sdb.cat; pc_auth = s.sdb.auth;
    pc_exec = Some (exec_ctx s) }

(* One audit event per declassifying-view boundary a statement can
   exercise: planning resolved each view reference to a [Declassify]
   node, so walking the finished plan finds exactly the
   declassifications this execution performs (section 4.3). *)
let rec audit_plan_declassify s plan =
  (match plan with
  | Plan.Declassify (_, lbl, relabel) ->
      let tags =
        Label.to_list lbl @ List.concat_map (fun (f, t) -> [ f; t ]) relabel
      in
      audit_emit s ~kind:Audit.View_declassify ~tags
        ~detail:
          (if relabel = [] then "declassifying view" else "relabeling view")
        ()
  | _ -> ());
  List.iter (audit_plan_declassify s) (Plan.children plan)

let audit_declassify s plan = if s.sdb.ifc then audit_plan_declassify s plan

(* Register a freshly created materialized view with the IVM registry:
   plan its body (without the Declassify boundary — the registry
   applies [strip] itself, per partition, at read time) and hand the
   plan over.  The planning extra mirrors [plan_table_ref]'s inner
   extra: the view's declassify label plus a relabeling view's [from]
   tags.  A body that cannot even be planned outside a statement
   (e.g. it needs an executable subquery) registers as permanently
   recompute-only — CREATE VIEW has never validated the body. *)
(* Derive the view's write-relevance predicate from its plan: when
   every scan of a base table sits directly under a filter whose
   conjuncts pin [_label] to one literal, only that label's partition
   can feed the view's state, so commit deltas under any other label
   are provably no-ops (satellite of the partition-pruning work;
   intervals from the PR 4 analysis carry the pin).  Conservative by
   construction: a table scanned anywhere without such a pin — or with
   two different pins — stays fully relevant, and uninterned writes
   (lid < 0) are never pruned. *)
let derive_view_affects db plan =
  let pins : (string, Interval.t option) Hashtbl.t = Hashtbl.create 4 in
  let note table iv =
    let key = norm table in
    let merged =
      match (Hashtbl.find_opt pins key, iv) with
      | None, _ -> iv
      | Some None, _ | Some _, None -> None
      | Some (Some prev), Some cur ->
          if Interval.equal prev cur then Some prev else None
    in
    Hashtbl.replace pins key merged
  in
  (* the exact-label interval a filter predicate pins rows to: a
     top-level conjunct [_label = {…}] (either operand order) *)
  let rec exact_of_pred (e : Expr.t) : Interval.t option =
    match e with
    | Expr.Binop (Expr.And, a, b) -> (
        match exact_of_pred a with Some _ as r -> r | None -> exact_of_pred b)
    | Expr.Binop (Expr.Eq, Expr.Row_label, Expr.Const (Value.Ints ints))
    | Expr.Binop (Expr.Eq, Expr.Const (Value.Ints ints), Expr.Row_label) ->
        Some (Interval.exact (Label.of_ints ints))
    | _ -> None
  in
  let rec walk (p : Plan.t) =
    match p with
    | Plan.Filter (Plan.Scan { sc_table; _ }, pred) ->
        note sc_table (exact_of_pred pred)
    | Plan.Scan { sc_table; _ } -> note sc_table None
    | _ -> List.iter walk (Plan.children p)
  in
  walk plan;
  let pinned =
    Hashtbl.fold
      (fun table iv acc ->
        match iv with
        | Some iv -> (
            match Interval.exact_label iv with
            | Some l -> (table, l) :: acc
            | None -> acc)
        | None -> acc)
      pins []
  in
  if pinned = [] then None
  else
    Some
      (fun table lid ->
        match List.assoc_opt (norm table) pinned with
        | None -> true
        | Some pin ->
            lid < 0
            || Label.equal pin (Label_store.label_of db.lstore lid))

let register_materialized s name =
  let db = s.sdb in
  match Catalog.find_view db.cat name with
  | None -> ()
  | Some vw -> (
      let extra =
        Label.union vw.Catalog.vw_declassify
          (Label.of_list (List.map fst vw.Catalog.vw_relabel))
      in
      match Planner.plan_select (pctx s) ~extra vw.Catalog.vw_query with
      | plan, _columns ->
          Ivm.register db.ivm ~name ~plan ~declassify:vw.Catalog.vw_declassify
            ~relabel:vw.Catalog.vw_relabel;
          Ivm.set_affects db.ivm ~view:name (derive_view_affects db plan)
      | exception _ ->
          Ivm.register_unsupported db.ivm ~name
            ~reason:"body could not be planned at definition time")

(* ------------------------------------------------------------------ *)
(* Triggers                                                            *)
(* ------------------------------------------------------------------ *)

let run_trigger s trg ev =
  let invoke () = trg.trg_fn s ev in
  match trg.trg_authority with
  | Some p ->
      audit_emit s ~kind:Audit.Closure_call
        ~detail:("trigger " ^ trg.trg_name)
        ();
      with_principal s p invoke
  | None -> invoke ()

(* Run a deferred trigger with the label captured when the triggering
   statement executed (section 5.2.3).  At exit, tags the body added
   are auto-declassified when its authority permits — the closure
   boundary — and otherwise contaminate the session. *)
let run_deferred s (trg, ev, captured_label, captured_principal) =
  let outer_label = s.s_label in
  let outer_principal = s.s_principal in
  s.s_label <- captured_label;
  s.s_principal <- captured_principal;
  let finish () =
    let gained = Label.diff s.s_label captured_label in
    let residue =
      if not s.sdb.ifc then Label.empty
      else
        Label.of_list
          (List.filter
             (fun tag ->
               not
                 (match trg.trg_authority with
                 | Some p -> Authority.has_authority s.sdb.auth p tag
                 | None -> false))
             (Label.to_list gained))
    in
    s.s_principal <- outer_principal;
    s.s_label <- Label.union outer_label residue
  in
  match run_trigger s trg ev with
  | () -> finish ()
  | exception e ->
      finish ();
      raise e

let fire_triggers s ~table ~kind ~old_ ~new_ =
  let ev = { ev_table = norm table; ev_kind = kind; ev_old = old_; ev_new = new_ } in
  List.iter
    (fun trg ->
      if trg.trg_table = norm table && List.mem kind trg.trg_kinds then
        match trg.trg_timing with
        | `Immediate -> run_trigger s trg ev
        | `Deferred ->
            s.s_deferred <- (trg, ev, s.s_label, s.s_principal) :: s.s_deferred)
    s.sdb.triggers


(* Dead-version reclamation.  PostgreSQL's (auto)vacuum equivalent: a
   version is dead once its deleter committed before every live
   snapshot, or its creator aborted.  Exempt from flow rules (paper
   section 7.1).  Without this, hot MVCC chains (TPC-C's district and
   stock rows) grow without bound and every index probe wades through
   dead versions. *)
let vacuum t =
  let horizon = Manager.oldest_visible_xid t.mgr in
  let removed = ref 0 in
  List.iter
    (fun (tbl : Catalog.table) ->
      let dead_vids = Hashtbl.create 16 in
      Heap.iter tbl.Catalog.tbl_heap (fun v ->
          let dead =
            (match Manager.status_of t.mgr v.Heap.xmin with
            | Manager.Aborted -> true
            | Manager.Committed | Manager.In_progress -> false)
            || (v.Heap.xmax <> 0
               && Manager.status_of t.mgr v.Heap.xmax = Manager.Committed
               && v.Heap.xmax < horizon)
          in
          if dead then begin
            Hashtbl.replace dead_vids v.Heap.vid ();
            Catalog.remove_from_indexes t.cat tbl (Tuple.values v.Heap.tuple)
              ~lid:(Tuple.label_id v.Heap.tuple) v.Heap.vid
          end);
      removed :=
        !removed
        + Heap.vacuum tbl.Catalog.tbl_heap ~dead:(fun v ->
              Hashtbl.mem dead_vids v.Heap.vid))
    (Catalog.all_tables t.cat);
  !removed

(* ------------------------------------------------------------------ *)
(* Transaction control                                                 *)
(* ------------------------------------------------------------------ *)

let do_abort s txn =
  Manager.abort s.sdb.mgr txn;
  Metrics.incr s.sdb.mx.mx_aborts;
  s.s_txn <- None;
  s.s_implicit <- false;
  s.s_flow <- None;
  s.s_deferred <- []

let do_commit s txn =
  (* under a sampled span context the whole commit path is one
     "commit" span; the manager's lock spans, the group-commit wait,
     the WAL fsync and the IVM delta application all record themselves
     while it is open, so they land as its children *)
  Span.timed "commit" @@ fun () ->
  (* deferred triggers and constraints run first, with their captured
     labels, and may extend the write set *)
  let queued = List.rev s.s_deferred in
  s.s_deferred <- [];
  (try List.iter (run_deferred s) queued
   with e ->
     do_abort s txn;
     raise e);
  (* transaction commit-label rule (section 5.1): the commit label must
     be no more contaminated than any tuple in the write set *)
  if s.sdb.ifc then begin
    let store = s.sdb.lstore in
    let commit_lid = Label_store.intern store s.s_label in
    (* label-grouped check: a bulk write set of N tuples under K
       distinct labels costs K flow-cache probes, not N — the verdict
       per interned label id is memoized for the duration of this
       commit.  Raw derivation only for tuples that never passed
       through the statement path. *)
    let verdicts : (int, bool) Hashtbl.t = Hashtbl.create 8 in
    let commit_flows (w : Manager.write) =
      if w.Manager.w_label_id >= 0 then
        match Hashtbl.find_opt verdicts w.Manager.w_label_id with
        | Some ok -> ok
        | None ->
            let ok =
              Label_store.flows_id store ~src:commit_lid
                ~dst:w.Manager.w_label_id
            in
            Hashtbl.add verdicts w.Manager.w_label_id ok;
            ok
      else Authority.flows s.sdb.auth ~src:s.s_label ~dst:w.Manager.w_label
    in
    let violating =
      List.find_opt (fun w -> not (commit_flows w)) (Manager.writes txn)
    in
    match violating with
    | Some w ->
        audit_emit s ~kind:Audit.Commit_rejection
          ~tags:(Label.to_list s.s_label)
          ~detail:
            ("written tuple label " ^ label_string s.sdb w.Manager.w_label)
          ();
        do_abort s txn;
        flow
          "commit label %s is more contaminated than written tuple label %s: \
           committing would leak through the abort/commit channel"
          (label_string s.sdb s.s_label)
          (label_string s.sdb w.Manager.w_label)
    | None -> ()
  end;
  Manager.commit s.sdb.mgr txn;
  Metrics.incr s.sdb.mx.mx_commits;
  s.s_txn <- None;
  s.s_implicit <- false;
  s.s_flow <- None;
  let db = s.sdb in
  (* incremental view maintenance: fold this transaction's write set
     into every materialized view over the written tables (insert +1,
     delete −1; an UPDATE contributes both and the signs compose).
     After [Manager.commit] so the registry's committed-now scans see
     the new state, before autovacuum so every written version is
     still resolvable. *)
  (if Ivm.count db.ivm > 0 then
     let ws = Manager.writes txn in
     let table_of (w : Manager.write) = norm (Heap.name w.Manager.w_heap) in
     if List.exists (fun w -> Ivm.interested db.ivm (table_of w)) ws then begin
       let deltas =
         List.filter_map
           (fun (w : Manager.write) ->
             let table = table_of w in
             if not (Ivm.interested db.ivm table) then None
             else
               match Heap.get_opt w.Manager.w_heap w.Manager.w_vid with
               | Some v ->
                   let sign =
                     match w.Manager.w_kind with `Insert -> 1 | `Delete -> -1
                   in
                   let lid =
                     if w.Manager.w_label_id >= 0 then w.Manager.w_label_id
                     else Label_store.intern db.lstore w.Manager.w_label
                   in
                   Some (table, sign, v.Heap.tuple, lid)
               | None ->
                   (* version reclaimed under us: this delta is
                      unrecoverable, so force a refresh instead *)
                   Ivm.invalidate_table db.ivm table;
                   None)
           ws
       in
       Ivm.apply db.ivm deltas
     end);
  db.commits_since_vacuum <- db.commits_since_vacuum + 1;
  if db.commits_since_vacuum >= db.autovacuum_every then begin
    db.commits_since_vacuum <- 0;
    ignore (vacuum db)
  end

let in_statement_txn s f =
  match s.s_txn with
  | Some txn -> f txn
  | None ->
      let txn = Manager.begin_txn s.sdb.mgr in
      s.s_txn <- Some txn;
      s.s_implicit <- true;
      (match f txn with
      | r ->
          do_commit s txn;
          r
      | exception e ->
          do_abort s txn;
          raise e)

(* ------------------------------------------------------------------ *)
(* DML                                                                 *)
(* ------------------------------------------------------------------ *)

let session_write_label s = if s.sdb.ifc then s.s_label else Label.empty

(* Intern a write label and return its canonical representative: all
   stored tuples carrying the same label share one physical array plus
   a dense id — the in-memory analogue of the paper's 4-byte [_label]
   column backed by a label table (section 7.1).  Interned per row, not
   per statement, because triggers may raise the session label
   mid-statement. *)
let interned_label s label =
  if not s.sdb.ifc then (Label.empty, Label_store.empty_id)
  else
    let id = Label_store.intern s.sdb.lstore label in
    (Label_store.label_of s.sdb.lstore id, id)

(* Compare a stored tuple's label with [label] (whose interned id is
   [lid]); id equality when both sides are interned, raw equality
   otherwise. *)
let tuple_label_matches (v : Heap.version) label lid =
  let tl = Tuple.label_id v.Heap.tuple in
  if tl >= 0 && lid >= 0 then tl = lid
  else Label.equal (Tuple.label v.Heap.tuple) label

let check_schema tbl values =
  match Schema.check_values tbl.Catalog.tbl_schema values with
  | Ok () -> ()
  | Error msg -> constraint_ "%s" msg

let check_label_constraints s tbl tuple =
  if s.sdb.ifc then
    List.iter
      (fun lc ->
        match lc.Catalog.lc_fn tuple with
        | None -> ()
        | Some (Catalog.Exactly required) ->
            if not (Label.equal (Tuple.label tuple) required) then
              constraint_
                "label constraint %s: tuple label %s must be exactly %s"
                lc.Catalog.lc_name
                (label_string s.sdb (Tuple.label tuple))
                (label_string s.sdb required)
        | Some (Catalog.Superset required) ->
            if not (Label.subset required (Tuple.label tuple)) then
              constraint_
                "label constraint %s: tuple label %s must include %s"
                lc.Catalog.lc_name
                (label_string s.sdb (Tuple.label tuple))
                (label_string s.sdb required))
      (Catalog.label_constraints_for s.sdb.cat
         tbl.Catalog.tbl_schema.Schema.table_name)

(* Uniqueness with polyinstantiation (section 5.2.1): polyinstantiated
   tuples are "distinguished only by their labels", so the identity a
   unique constraint protects is (key, label).  An insert conflicts
   exactly with a live tuple bearing the same key AND the same label
   (such a tuple is always visible to the inserter, so refusing reveals
   nothing); a same-key tuple under any other label — hidden or not —
   polyinstantiates instead.  Label constraints (section 5.2.4) are the
   tool for applications that want to forbid that. *)
let check_uniques s txn tbl values label lid =
  List.iter
    (fun idx ->
      if idx.Catalog.idx_unique then begin
        let key = Catalog.index_key idx values in
        if not (Array.exists Value.is_null key) then
          List.iter
            (fun vid ->
              match Heap.get_opt tbl.Catalog.tbl_heap vid with
              | None -> ()
              | Some v ->
                  if
                    Manager.visible s.sdb.mgr txn v
                    && ((not s.sdb.ifc) || tuple_label_matches v label lid)
                  then
                    constraint_
                      "duplicate key value violates unique constraint %s"
                      idx.Catalog.idx_name)
            (Catalog.index_find_label idx key ~lid:(if s.sdb.ifc then lid else 0))
      end)
    tbl.Catalog.tbl_indexes

(* Find MVCC-visible tuples in [table] matching [key] on [cols],
   regardless of label — the Foreign Key Rule reasons about tuples the
   process may not see. *)
let visible_matches s txn (tbl : Catalog.table) (cols : int array) key =
  let idx =
    List.find_opt
      (fun i ->
        Array.length i.Catalog.idx_cols >= Array.length cols
        && Array.for_all2 Int.equal
             (Array.sub i.Catalog.idx_cols 0 (Array.length cols))
             cols)
      tbl.Catalog.tbl_indexes
  in
  let candidates =
    match idx with
    | Some idx when Array.length idx.Catalog.idx_cols = Array.length cols ->
        List.filter_map
          (fun vid -> Heap.get_opt tbl.Catalog.tbl_heap vid)
          (Catalog.index_find idx key)
    | _ ->
        List.of_seq
          (Seq.filter
             (fun v ->
               let values = Tuple.values v.Heap.tuple in
               Array.for_all2
                 (fun c k -> Value.compare values.(c) k = 0)
                 cols key)
             (Heap.to_seq tbl.Catalog.tbl_heap))
  in
  List.filter (fun v -> Manager.visible s.sdb.mgr txn v) candidates

(* The Foreign Key Rule (section 5.2.2): inserting a tuple A that
   references B requires authority for every tag in L_A △ L_B, and
   those tags must be named in the DECLASSIFYING clause. *)
let check_foreign_keys s txn tbl tuple ~declared =
  let schema = tbl.Catalog.tbl_schema in
  List.iter
    (fun fk ->
      let cols =
        Array.of_list (List.map (Schema.col_index schema) fk.Schema.fk_cols)
      in
      let key = Array.map (fun c -> (Tuple.values tuple).(c)) cols in
      if not (Array.exists Value.is_null key) then begin
        let ref_tbl = Catalog.table s.sdb.cat fk.Schema.fk_ref_table in
        let ref_cols =
          Array.of_list
            (List.map
               (Schema.col_index ref_tbl.Catalog.tbl_schema)
               fk.Schema.fk_ref_cols)
        in
        let targets = visible_matches s txn ref_tbl ref_cols key in
        if targets = [] then
          constraint_
            "insert into %s violates foreign key constraint %s: no row in %s"
            schema.Schema.table_name fk.Schema.fk_name fk.Schema.fk_ref_table;
        if s.sdb.ifc then begin
          let la = Tuple.label tuple in
          let satisfied =
            List.exists
              (fun (v : Heap.version) ->
                let d = Label.symm_diff la (Tuple.label v.Heap.tuple) in
                Label.for_all (fun tag -> Label.mem tag declared) d)
              targets
          in
          if not satisfied then
            Errors.authority
              "foreign key %s: the referencing label %s differs from every \
               visible referenced row's label beyond DECLASSIFYING (%s); the \
               differing tags must be listed there (and the process must \
               have authority for them)"
              fk.Schema.fk_name (label_string s.sdb la)
              (label_string s.sdb declared)
        end
      end)
    schema.Schema.foreign_keys

(* Deleting from a referenced table is restricted while visible
   referencing tuples exist — unless another visible tuple with the
   same key still satisfies them (polyinstantiation). *)
let check_reverse_foreign_keys s txn tbl (victim : Heap.version) =
  let schema = tbl.Catalog.tbl_schema in
  let my_name = norm schema.Schema.table_name in
  List.iter
    (fun (other : Catalog.table) ->
      let oschema = other.Catalog.tbl_schema in
      List.iter
        (fun fk ->
          if norm fk.Schema.fk_ref_table = my_name then begin
            let ref_cols =
              Array.of_list (List.map (Schema.col_index schema) fk.Schema.fk_ref_cols)
            in
            let key =
              Array.map (fun c -> (Tuple.values victim.Heap.tuple).(c)) ref_cols
            in
            if not (Array.exists Value.is_null key) then begin
              let survivors =
                List.filter
                  (fun (v : Heap.version) -> v.Heap.vid <> victim.Heap.vid)
                  (visible_matches s txn tbl ref_cols key)
              in
              if survivors = [] then begin
                let referencing_cols =
                  Array.of_list
                    (List.map (Schema.col_index oschema) fk.Schema.fk_cols)
                in
                match visible_matches s txn other referencing_cols key with
                | [] -> ()
                | _ :: _ ->
                    constraint_
                      "delete from %s violates foreign key constraint %s on %s"
                      schema.Schema.table_name fk.Schema.fk_name
                      oschema.Schema.table_name
              end
            end
          end)
        oschema.Schema.foreign_keys)
    (Catalog.all_tables s.sdb.cat)

let resolve_declared_tags s names =
  let db = s.sdb in
  let tags = List.map (Authority.find_tag db.auth) names in
  if db.ifc then
    List.iter (fun tag -> Authority.check_authority db.auth s.s_principal tag) tags;
  Label.of_list tags

let insert_tuple s txn tbl tuple ~declared =
  check_schema tbl (Tuple.values tuple);
  check_label_constraints s tbl tuple;
  check_uniques s txn tbl (Tuple.values tuple) (Tuple.label tuple)
    (Tuple.label_id tuple);
  check_foreign_keys s txn tbl tuple ~declared;
  let v = Manager.record_insert s.sdb.mgr txn tbl.Catalog.tbl_heap tuple in
  Catalog.insert_into_indexes s.sdb.cat tbl (Tuple.values tuple)
    ~lid:(Tuple.label_id tuple) v.Heap.vid;
  fire_triggers s
    ~table:tbl.Catalog.tbl_schema.Schema.table_name
    ~kind:`Insert ~old_:None ~new_:(Some tuple)

(* --- the batched write path ----------------------------------------

   [insert_tuples_batch] inserts a whole run in three phases: validate
   every row, then one heap pass with the WAL records through a single
   buffered batch append, then one sorted bulk load per index.  It is
   taken only when batching cannot be observed mid-statement:

   - no insert trigger on the table (a trigger could read the table, or
     move the session label, between rows);
   - no self-referencing foreign key (row i's reference could be
     satisfied by row j < i of the same statement under sequential
     insertion);
   - (for SQL VALUES rows) no expression whose evaluation could observe
     database state — function calls and subqueries fall back.

   Under those conditions it is equivalent to inserting each row with
   {!insert_tuple} in order: identical heap versions, WAL accounting,
   index contents, uniqueness/polyinstantiation behavior and error
   outcomes (any failure aborts the statement's transaction either
   way, so partial sequential effects are never visible). *)

let has_insert_trigger s tbl =
  let table = norm tbl.Catalog.tbl_schema.Schema.table_name in
  List.exists
    (fun trg -> trg.trg_table = table && List.mem `Insert trg.trg_kinds)
    s.sdb.triggers

let self_referencing_fk (tbl : Catalog.table) =
  let my = norm tbl.Catalog.tbl_schema.Schema.table_name in
  List.exists
    (fun fk -> norm fk.Schema.fk_ref_table = my)
    tbl.Catalog.tbl_schema.Schema.foreign_keys

(* Could evaluating this VALUES expression observe database state (or
   otherwise care about evaluation order)?  Scalar/function calls and
   subqueries can; pure arithmetic over constants cannot. *)
let rec pure_values_expr (e : A.expr) =
  match e with
  | A.E_const _ | A.E_label_lit _ | A.E_count_star -> true
  | A.E_param _ -> true (* reads a frozen binding slot *)
  | A.E_col _ -> true (* VALUES rows cannot reference columns anyway *)
  | A.E_fn _ | A.E_scalar_subquery _ | A.E_exists _ -> false
  | A.E_binop (_, a, b) -> pure_values_expr a && pure_values_expr b
  | A.E_not a | A.E_neg a | A.E_is_null a | A.E_is_not_null a
  | A.E_count_distinct a ->
      pure_values_expr a
  | A.E_in (a, xs) -> pure_values_expr a && List.for_all pure_values_expr xs
  | A.E_like (a, _) -> pure_values_expr a
  | A.E_case (arms, else_) ->
      List.for_all (fun (c, r) -> pure_values_expr c && pure_values_expr r) arms
      && (match else_ with None -> true | Some e -> pure_values_expr e)

let insert_tuples_batch s txn tbl tuples ~declared =
  (* phase 1: validate every row before touching the heap.  Uniqueness
     against rows earlier in this batch is tracked on the side, since
     the index does not hold them yet; the conflict identity is
     (key, label) exactly as in [check_uniques]. *)
  let batch_keys : (string * Value.t array * int, unit) Hashtbl.t =
    Hashtbl.create 64
  in
  List.iter
    (fun tuple ->
      let values = Tuple.values tuple in
      check_schema tbl values;
      check_label_constraints s tbl tuple;
      check_uniques s txn tbl values (Tuple.label tuple) (Tuple.label_id tuple);
      List.iter
        (fun idx ->
          if idx.Catalog.idx_unique then begin
            let key = Catalog.index_key idx values in
            if not (Array.exists Value.is_null key) then begin
              let k =
                ( idx.Catalog.idx_name,
                  key,
                  if s.sdb.ifc then Tuple.label_id tuple else 0 )
              in
              if Hashtbl.mem batch_keys k then
                constraint_
                  "duplicate key value violates unique constraint %s"
                  idx.Catalog.idx_name;
              Hashtbl.add batch_keys k ()
            end
          end)
        tbl.Catalog.tbl_indexes;
      check_foreign_keys s txn tbl tuple ~declared)
    tuples;
  (* phase 2: heap + WAL in one run *)
  let versions =
    Manager.record_inserts s.sdb.mgr txn tbl.Catalog.tbl_heap tuples
  in
  (* phase 3: bulk index maintenance *)
  Catalog.bulk_insert_into_indexes s.sdb.cat tbl
    (List.map2
       (fun tuple (v : Heap.version) ->
         (Tuple.values tuple, Tuple.label_id tuple, v.Heap.vid))
       tuples versions)

(* Programmatic bulk insert: the batched path above when safe, the
   per-row path otherwise (insert triggers, self-referencing FK). *)
let insert_many s ~table rows =
  in_statement_txn s (fun txn ->
      let tbl = Catalog.table s.sdb.cat table in
      let label, label_id = interned_label s (session_write_label s) in
      let tuples =
        List.map (fun values -> Tuple.make_interned ~values ~label ~label_id)
          rows
      in
      if has_insert_trigger s tbl || self_referencing_fk tbl then
        List.iter
          (fun tuple -> insert_tuple s txn tbl tuple ~declared:Label.empty)
          tuples
      else if tuples <> [] then
        insert_tuples_batch s txn tbl tuples ~declared:Label.empty;
      List.length rows)

(* Shared write-target lookup for UPDATE/DELETE: visible, confined rows
   matching the predicate, via the best index prefix when one exists. *)
let dml_targets s txn tbl (pred : Expr.t option) =
  let table_name = tbl.Catalog.tbl_schema.Schema.table_name in
  let source =
    match Option.map (fun p -> Planner.best_prefix tbl p) pred with
    | Some (Some (index, prefix, range)) ->
        (* prefix keys and range bounds are expressions now (they may be
           [$n] parameters); evaluate them against the empty row.  A
           NULL key component matches nothing: the bound derives from an
           equality/comparison conjunct of the predicate. *)
        let env = fenv s in
        let one_row = Tuple.make ~values:[||] ~label:Label.empty in
        let key = Array.map (fun e -> Expr.eval env one_row e) prefix in
        let bound =
          Option.map (fun (e, incl) -> (Expr.eval env one_row e, incl))
        in
        let lo, hi =
          match range with
          | None -> (None, None)
          | Some (l, h) -> (bound l, bound h)
        in
        let null_bound = function
          | Some (v, _) -> Value.is_null v
          | None -> false
        in
        if Array.exists Value.is_null key || null_bound lo || null_bound hi
        then Seq.empty
        else
          scan_prefix_versions s ~table:table_name ~index ~prefix:key ~lo ~hi
            ~extra:Label.empty ()
    | Some None | None -> scan_versions s ~table:table_name ~extra:Label.empty
  in
  ignore txn;
  let env = fenv s in
  List.of_seq
    (Seq.filter
       (fun v ->
         match pred with
         | None -> true
         | Some p -> Expr.eval_pred env v.Heap.tuple p)
       source)

(* Write Rule (section 4.2): a process may modify only tuples labeled
   exactly its own label.  Lower-labeled tuples are visible but not
   writable; higher-labeled tuples were already filtered out.  The
   session label is re-interned per check (one hash probe) rather than
   hoisted, because triggers may raise it mid-statement; the comparison
   itself is two ints. *)
let check_write_rule s (v : Heap.version) action =
  let slid =
    if s.sdb.ifc && Tuple.label_id v.Heap.tuple >= 0 then
      Label_store.intern s.sdb.lstore s.s_label
    else -1
  in
  if s.sdb.ifc && not (tuple_label_matches v s.s_label slid) then begin
    audit_emit s ~kind:Audit.Write_rule_rejection
      ~tags:(Label.to_list (Tuple.label v.Heap.tuple))
      ~detail:
        (Printf.sprintf "%s of tuple labeled %s (session label %s)" action
           (label_string s.sdb (Tuple.label v.Heap.tuple))
           (label_string s.sdb s.s_label))
      ();
    flow
      "%s of tuple labeled %s by process labeled %s violates the Write Rule \
       (only exact-label tuples are writable)"
      action
      (label_string s.sdb (Tuple.label v.Heap.tuple))
      (label_string s.sdb s.s_label)
  end

(* Updatable declassifying views (paper section 4.3 mentions these via
   rewrite rules): an INSERT through a simple view — single base table,
   plain column projection — is rewritten against the base table.  The
   stored tuple's label is the session label joined with the view's
   declassify label, so reading the row back through the view yields
   the session label again; the write itself only ADDS tags, which is
   always safe. *)
let resolve_insert_target s i_table i_columns =
  match Catalog.find_table s.sdb.cat i_table with
  | Some tbl -> (tbl, i_columns, Label.empty)
  | None -> (
      match Catalog.find_view s.sdb.cat i_table with
      | None -> Errors.sql "no such table: %s" i_table
      | Some vw -> (
          if vw.Catalog.vw_relabel <> [] then
            Errors.sql "INSERT through a relabeling view is not supported";
          match vw.Catalog.vw_query with
          | { A.items; from = Some (A.T_table (base, _)); where = None;
              group_by = []; having = None; distinct = false; unions = []; _ } ->
              let base_tbl = Catalog.table s.sdb.cat base in
              let base_cols =
                List.map
                  (fun item ->
                    match item with
                    | A.Sel_expr (A.E_col (_, col), _) -> col
                    | A.Sel_star | A.Sel_table_star _ | A.Sel_expr _ ->
                        Errors.sql
                          "INSERT through view %s: only plain column                            projections are updatable"
                          i_table)
                  items
              in
              let view_name item alias =
                match alias with Some a -> a | None -> item
              in
              let out_names =
                List.map
                  (fun item ->
                    match item with
                    | A.Sel_expr (A.E_col (_, col), alias) -> view_name col alias
                    | A.Sel_star | A.Sel_table_star _ | A.Sel_expr _ ->
                        assert false)
                  items
              in
              let columns =
                match i_columns with
                | None -> base_cols
                | Some cs ->
                    List.map
                      (fun c ->
                        match
                          List.find_opt
                            (fun (o, _) -> norm o = norm c)
                            (List.combine out_names base_cols)
                        with
                        | Some (_, base_col) -> base_col
                        | None ->
                            Errors.sql "view %s has no column %s" i_table c)
                      cs
              in
              (base_tbl, Some columns, vw.Catalog.vw_declassify)
          | _ ->
              Errors.sql
                "view %s is not updatable (only simple projections of one                  table are)"
                i_table))

let exec_insert s txn (stmt : A.stmt) =
  match stmt with
  | A.S_insert { i_table; i_columns; i_rows; i_select; i_declassifying } ->
      let tbl, i_columns, view_label = resolve_insert_target s i_table i_columns in
      let schema = tbl.Catalog.tbl_schema in
      let declared = resolve_declared_tags s i_declassifying in
      let env = fenv s in
      let empty_row = Tuple.make ~values:[||] ~label:Label.empty in
      let positions =
        match i_columns with
        | None -> Array.init (Schema.arity schema) Fun.id
        | Some cols ->
            Array.of_list
              (List.map
                 (fun c ->
                   match Schema.col_index_opt schema c with
                   | Some i -> i
                   | None ->
                       Errors.sql "column %s of %s does not exist" c i_table)
                 cols)
      in
      let widen row_values =
        if Array.length row_values <> Array.length positions then
          Errors.sql "INSERT has %d expressions but %d target columns"
            (Array.length row_values) (Array.length positions);
        let values = Array.make (Schema.arity schema) Value.Null in
        Array.iteri (fun i v -> values.(positions.(i)) <- v) row_values;
        values
      in
      let eval_row row_exprs =
        Array.of_list
          (List.map
             (fun e ->
               let lowered = Planner.lower_expr_for_table (pctx s) schema e in
               (* VALUES rows cannot reference columns *)
               Expr.eval env empty_row lowered)
             row_exprs)
      in
      let batchable =
        (not (has_insert_trigger s tbl))
        && (not (self_referencing_fk tbl))
        && (match i_select with
           | Some _ ->
               (* the SELECT is fully materialized before any insert on
                  both paths, so batching cannot change what it reads *)
               true
           | None -> List.for_all (List.for_all pure_values_expr) i_rows)
      in
      if batchable then begin
        let rows =
          match i_select with
          | Some sel ->
              let plan, _names = Planner.plan_select (pctx s) sel in
              audit_declassify s plan;
              List.map
                (fun row -> widen (Tuple.values row))
                (Executor.run_list (exec_ctx s) plan)
          | None -> List.map (fun row_exprs -> widen (eval_row row_exprs)) i_rows
        in
        (* one interning per statement: no trigger can move the session
           label mid-statement on this path *)
        let label, label_id =
          interned_label s (Label.union (session_write_label s) view_label)
        in
        let tuples =
          List.map
            (fun values -> Tuple.make_interned ~values ~label ~label_id)
            rows
        in
        if tuples <> [] then insert_tuples_batch s txn tbl tuples ~declared;
        Affected (List.length tuples)
      end
      else begin
        let n = ref 0 in
        let insert_values row_values =
          let values = widen row_values in
          let label, label_id =
            interned_label s (Label.union (session_write_label s) view_label)
          in
          let tuple = Tuple.make_interned ~values ~label ~label_id in
          insert_tuple s txn tbl tuple ~declared;
          incr n
        in
        (match i_select with
        | Some sel ->
            (* INSERT … SELECT: rows are read under Query by Label, then
               written with the session's current label like any insert *)
            let plan, _names = Planner.plan_select (pctx s) sel in
            audit_declassify s plan;
            List.iter
              (fun row -> insert_values (Tuple.values row))
              (Executor.run_list (exec_ctx s) plan)
        | None ->
            List.iter
              (fun row_exprs -> insert_values (eval_row row_exprs))
              i_rows);
        Affected !n
      end
  | _ -> assert false

let exec_update s txn u_table u_sets u_where =
  let tbl = Catalog.table s.sdb.cat u_table in
  let schema = tbl.Catalog.tbl_schema in
  let pred = Option.map (Planner.lower_expr_for_table (pctx s) schema) u_where in
  let sets =
    List.map
      (fun (col, e) ->
        match Schema.col_index_opt schema col with
        | Some i -> (i, Planner.lower_expr_for_table (pctx s) schema e)
        | None -> Errors.sql "column %s of %s does not exist" col u_table)
      u_sets
  in
  let targets = dml_targets s txn tbl pred in
  let env = fenv s in
  List.iter
    (fun (v : Heap.version) ->
      check_write_rule s v "UPDATE";
      let old_tuple = v.Heap.tuple in
      let values = Array.copy (Tuple.values old_tuple) in
      List.iter (fun (i, e) -> values.(i) <- Expr.eval env old_tuple e) sets;
      let wlabel, wlid = interned_label s (session_write_label s) in
      let new_tuple = Tuple.make_interned ~values ~label:wlabel ~label_id:wlid in
      check_schema tbl values;
      check_label_constraints s tbl new_tuple;
      (* supersede the old version first so the uniqueness probe does
         not see it *)
      Manager.record_delete s.sdb.mgr txn tbl.Catalog.tbl_heap v;
      check_uniques s txn tbl values (Tuple.label new_tuple)
        (Tuple.label_id new_tuple);
      check_foreign_keys s txn tbl new_tuple ~declared:Label.empty;
      let nv = Manager.record_insert s.sdb.mgr txn tbl.Catalog.tbl_heap new_tuple in
      Catalog.insert_into_indexes s.sdb.cat tbl values
        ~lid:(Tuple.label_id new_tuple) nv.Heap.vid;
      fire_triggers s ~table:u_table ~kind:`Update ~old_:(Some old_tuple)
        ~new_:(Some new_tuple))
    targets;
  Affected (List.length targets)

let exec_delete s txn d_table d_where =
  let tbl = Catalog.table s.sdb.cat d_table in
  let schema = tbl.Catalog.tbl_schema in
  let pred = Option.map (Planner.lower_expr_for_table (pctx s) schema) d_where in
  let targets = dml_targets s txn tbl pred in
  List.iter
    (fun (v : Heap.version) ->
      check_write_rule s v "DELETE";
      check_reverse_foreign_keys s txn tbl v;
      Manager.record_delete s.sdb.mgr txn tbl.Catalog.tbl_heap v;
      fire_triggers s ~table:d_table ~kind:`Delete ~old_:(Some v.Heap.tuple)
        ~new_:None)
    targets;
  Affected (List.length targets)

(* ------------------------------------------------------------------ *)
(* DDL                                                                 *)
(* ------------------------------------------------------------------ *)

let schema_of_create (ct_name, ct_columns, ct_constraints) =
  let columns =
    List.map (fun (c : A.column_def) -> (c.A.cd_name, c.A.cd_type)) ct_columns
  in
  let col_pk =
    List.filter_map
      (fun (c : A.column_def) -> if c.A.cd_primary_key then Some c.A.cd_name else None)
      ct_columns
  in
  let table_pks =
    List.filter_map
      (function A.C_primary_key cols -> Some cols | _ -> None)
      ct_constraints
  in
  let primary_key =
    match (col_pk, table_pks) with
    | [], [] -> []
    | [], [ pk ] -> pk
    | pk, [] -> pk
    | _ -> Errors.sql "multiple primary keys for table %s" ct_name
  in
  let nullable =
    List.filter_map
      (fun (c : A.column_def) ->
        if c.A.cd_not_null || c.A.cd_primary_key || List.mem c.A.cd_name primary_key
        then None
        else Some c.A.cd_name)
      ct_columns
  in
  let uniques =
    List.filter_map
      (fun (c : A.column_def) ->
        if c.A.cd_unique then
          Some (Printf.sprintf "%s_%s_key" ct_name c.A.cd_name, [ c.A.cd_name ])
        else None)
      ct_columns
    @ List.filter_map
        (function
          | A.C_unique cols ->
              Some
                ( Printf.sprintf "%s_%s_key" ct_name (String.concat "_" cols),
                  cols )
          | _ -> None)
        ct_constraints
  in
  let foreign_keys =
    List.mapi
      (fun i -> function
        | A.C_foreign_key { c_cols; c_ref_table; c_ref_cols } ->
            Some
              {
                Schema.fk_name = Printf.sprintf "%s_fkey_%d" ct_name i;
                fk_cols = c_cols;
                fk_ref_table = c_ref_table;
                fk_ref_cols = c_ref_cols;
              }
        | A.C_primary_key _ | A.C_unique _ -> None)
      ct_constraints
    |> List.filter_map Fun.id
  in
  Schema.make ~name:ct_name ~columns ~nullable ~primary_key ~uniques
    ~foreign_keys ()

(* ------------------------------------------------------------------ *)
(* Statement dispatch                                                  *)
(* ------------------------------------------------------------------ *)

let perform_arg_value s (e : A.expr) : Value.t =
  match e with
  (* a bare identifier argument denotes a name (tag, principal, …),
     matching the paper's PERFORM addsecrecy(alice_medical) usage *)
  | A.E_col (None, name) -> Value.Text name
  | _ ->
      let lowered =
        Planner.lower_expr_for_table (pctx s)
          (Schema.make ~name:"_args" ~columns:[] ())
          e
      in
      Expr.eval (fenv s) (Tuple.make ~values:[||] ~label:Label.empty) lowered

let exec_perform s name args =
  match Hashtbl.find_opt s.sdb.procedures (norm name) with
  | None -> Errors.sql "unknown procedure %s" name
  | Some c ->
      let vargs = List.map (perform_arg_value s) args in
      let run () = ignore (c.c_fn s vargs) in
      (match c.c_authority with
      | Some p ->
          audit_emit s ~kind:Audit.Closure_call
            ~detail:("procedure " ^ norm name)
            ();
          with_principal s p run
      | None -> run ());
      Done "PERFORM"

(* ------------------------------------------------------------------ *)
(* Static analysis (prepare-time lint)                                 *)
(* ------------------------------------------------------------------ *)

let analysis_ctx s : Analysis.ctx =
  {
    Analysis.an_catalog = s.sdb.cat;
    an_auth = s.sdb.auth;
    an_store = s.sdb.lstore;
    an_principal = s.s_principal;
    an_label = s.s_label;
    an_write_labels =
      (match s.s_txn with
      | None -> []
      | Some txn ->
          List.map (fun w -> w.Manager.w_label) (Manager.writes txn));
    an_clearance = (s.sdb.iso = Serializable);
    an_in_txn = s.s_txn <> None;
    an_trace = s.s_flow;
  }

let analyze_stmt s stmt : Diag.t list =
  if not s.sdb.ifc then [] else Analysis.analyze_stmt (analysis_ctx s) stmt

let analyze s sql_text : Diag.t list =
  match Parser.parse sql_text with
  | stmts -> List.concat_map (analyze_stmt s) stmts
  | exception Ifdb_sql.Parser.Parse_error msg ->
      [ Diag.error Diag.Parse_error "%s" msg ]
  | exception Ifdb_sql.Lexer.Lex_error (msg, _) ->
      [ Diag.error Diag.Parse_error "%s" msg ]

(* Map an analyzer verdict onto the exception the runtime failure it
   predicts would raise, so [strict] mode is a drop-in early version of
   the runtime error. *)
let diag_exn (d : Diag.t) =
  let msg = "static analysis: " ^ Diag.to_string d in
  match d.Diag.d_code with
  | Diag.Overbroad_declassify | Diag.Declassify_after_revoke ->
      Errors.Authority_required msg
  | Diag.Name_error | Diag.Parse_error | Diag.Runtime_error
  | Diag.Recompute_fallback | Diag.Stale_prepare | Diag.Unreachable_stmt ->
      Errors.Sql_error msg
  | Diag.Doomed_write | Diag.Vacuous_query | Diag.Commit_trap
  | Diag.Txn_commit_trap | Diag.Dead_write | Diag.Fk_leak ->
      Errors.Flow_violation msg

(* ------------------------------------------------------------------ *)
(* Plan cache                                                          *)
(* ------------------------------------------------------------------ *)

let with_cache_lock sc f =
  match sc.sc_lock with
  | None -> f ()
  | Some mu ->
      Mutex.lock mu;
      Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

let session_label_id s =
  if s.sdb.ifc then Label_store.intern s.sdb.lstore s.s_label
  else Label_store.empty_id

let make_stmt_cache ?lock (stmt : A.stmt) ~diags ~stamp =
  {
    sc_stmt = stmt;
    sc_text = Printer.stmt_to_string stmt;
    sc_nparams = A.max_param stmt;
    sc_cacheable =
      (match stmt with
      | A.S_select _ -> not (A.has_expr_subquery stmt)
      | _ -> false);
    sc_diags = diags;
    sc_stamp = stamp;
    sc_plans = Hashtbl.create 4;
    sc_hits = 0;
    sc_lock = lock;
  }

(* Fetch (or build) the plan for a cached SELECT under the current
   session label.  A stale stamp — any DDL, or any authority mutation
   (delegation, revocation, tag mint) — discards the entry and re-plans:
   view expansion and label-literal resolution may have changed.
   Returns whether the plan came from the cache. *)
let cached_plan s sc (sel : A.select) : Plan.t * string list * bool =
  let db = s.sdb in
  let lid = session_label_id s in
  let cat_v = Catalog.version db.cat in
  let gen = Authority.generation db.auth in
  let hit =
    with_cache_lock sc (fun () ->
        match Hashtbl.find_opt sc.sc_plans lid with
        | Some pe when pe.pe_cat_version = cat_v && pe.pe_generation = gen ->
            sc.sc_hits <- sc.sc_hits + 1;
            Some pe
        | Some _ ->
            Metrics.incr db.mx.mx_pc_invalidations;
            Hashtbl.remove sc.sc_plans lid;
            None
        | None -> None)
  in
  match hit with
  | Some pe ->
      Metrics.incr db.mx.mx_pc_hits;
      Span.note "plan_cache" "hit";
      (pe.pe_plan, pe.pe_columns, true)
  | None ->
      Metrics.incr db.mx.mx_pc_misses;
      Span.note "plan_cache" "miss";
      let plan, columns = Planner.plan_select (pctx s) sel in
      with_cache_lock sc (fun () ->
          Hashtbl.replace sc.sc_plans lid
            {
              pe_plan = plan;
              pe_columns = columns;
              pe_cat_version = cat_v;
              pe_generation = gen;
            });
      (plan, columns, false)

(* The implicit cache: [exec] keys cached statements on the trimmed raw
   text clients send, with a bounded canonical-text table behind it.
   Only parameter-free SELECTs are admitted — their plans re-serve
   verbatim; everything else re-plans anyway, so caching the parse
   alone is not worth a shared-table entry. *)
let implicit_cache_cap = 512

let implicit_cache_find db key =
  Mutex.lock db.pc_mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock db.pc_mu)
    (fun () ->
      match Hashtbl.find_opt db.pc_alias key with
      | Some canon -> Hashtbl.find_opt db.pc_stmts canon
      | None -> None)

let implicit_cache_admit db key (stmt : A.stmt) =
  match stmt with
  | A.S_select _
    when (not (A.has_expr_subquery stmt)) && A.max_param stmt = 0 ->
      Mutex.lock db.pc_mu;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock db.pc_mu)
        (fun () ->
          if Hashtbl.length db.pc_stmts >= implicit_cache_cap then begin
            Hashtbl.reset db.pc_stmts;
            Hashtbl.reset db.pc_alias
          end;
          let canon = Printer.stmt_to_string stmt in
          let sc =
            match Hashtbl.find_opt db.pc_stmts canon with
            | Some sc -> sc
            | None ->
                let sc =
                  make_stmt_cache ~lock:db.pc_mu stmt ~diags:[]
                    ~stamp:(-1, -1, -1)
                in
                Hashtbl.add db.pc_stmts canon sc;
                sc
          in
          Hashtbl.replace db.pc_alias key canon;
          Some sc)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* EXPLAIN [ANALYZE]                                                   *)
(* ------------------------------------------------------------------ *)

let plan_lines plan =
  let rec go depth p acc =
    let line = String.make (2 * depth) ' ' ^ Plan.describe p in
    List.fold_left
      (fun acc c -> go (depth + 1) c acc)
      (line :: acc) (Plan.children p)
  in
  List.rev (go 0 plan [])

(* Run a SELECT with a trace installed and render the per-operator
   report.  The flow-check figures are the [Label_store] stats delta
   around the execution, so they count exactly this query's label
   machinery (memoized and missed alike). *)
let explain_analyze_select s sel : string list * result =
  in_statement_txn s (fun _txn ->
      let db = s.sdb in
      (* probe the implicit plan cache exactly as [exec] would, so the
         report shows what a real execution of this text pays *)
      let stmt = A.S_select sel in
      let plan, columns, notes =
        match implicit_cache_admit db (Printer.stmt_to_string stmt) stmt with
        | Some sc when sc.sc_cacheable ->
            let plan, columns, hit = cached_plan s sc sel in
            (plan, columns,
             [ Printf.sprintf "plan cache: %s" (if hit then "hit" else "miss") ])
        | _ ->
            let plan, columns = Planner.plan_select (pctx s) sel in
            (plan, columns, [])
      in
      audit_declassify s plan;
      let fs0 = Label_store.stats db.lstore in
      let tr = Trace.create () in
      s.s_trace <- Some tr;
      Fun.protect
        ~finally:(fun () -> s.s_trace <- None)
        (fun () ->
          let t0 = Span.now_ns () in
          let tuples = Executor.run_list (exec_ctx s) plan in
          let total_ns = Span.now_ns () - t0 in
          (* attach the operator tree as spans under an "execute"
             span: per-operator durations are the trace's real
             figures, but start offsets are synthetic — operators
             interleave in reality, spans must not overlap — so
             siblings are packed sequentially and clamped to the
             window.  Operator names are truncated at the argument
             list: a full describe can embed filter literals and label
             strings, which must not enter a span (DESIGN.md §6.10) —
             the span keeps only the fixed operator vocabulary
             ("Scan", "Filter", "HashJoin", …). *)
          (match Span.current () with
          | None -> ()
          | Some ctx ->
              Span.emit ctx "execute" ~t0 ~t1:(t0 + total_ns);
              let op_head label =
                match String.index_opt label '(' with
                | Some i -> String.sub label 0 i
                | None -> label
              in
              let rec place nodes ~depth ~cursor ~limit =
                match nodes with
                | [] -> []
                | n :: _ when n.Trace.n_depth < depth -> nodes
                | n :: rest when n.Trace.n_depth = depth ->
                    let s0 = !cursor in
                    let s1 = min limit (s0 + max 0 n.Trace.n_ns) in
                    let child_cursor = ref s0 in
                    let rest =
                      place rest ~depth:(depth + 1) ~cursor:child_cursor
                        ~limit:s1
                    in
                    Span.emit ctx
                      ("op:" ^ op_head n.Trace.n_label)
                      ~args:[ ("rows", string_of_int n.Trace.n_rows) ]
                      ~t0:s0 ~t1:s1;
                    cursor := s1;
                    place rest ~depth ~cursor ~limit
                | _ :: rest -> place rest ~depth ~cursor ~limit
              in
              ignore
                (place (Trace.nodes tr) ~depth:0 ~cursor:(ref t0)
                   ~limit:(t0 + total_ns)));
          let fs1 = Label_store.stats db.lstore in
          let hits = fs1.Label_store.flow_hits - fs0.Label_store.flow_hits in
          let misses =
            fs1.Label_store.flow_misses - fs0.Label_store.flow_misses
          in
          let report =
            Trace.report ~notes tr ~total_ns ~rows:(List.length tuples)
              ~flow_checks:(hits + misses) ~flow_hits:hits
          in
          (report, Rows { columns; tuples })))

let explain_rows lines =
  Rows
    {
      columns = [ "QUERY PLAN" ];
      tuples =
        List.map
          (fun l -> Tuple.make ~values:[| Value.Text l |] ~label:Label.empty)
          lines;
    }

let exec_explain s ~analyze stmt =
  match stmt with
  | A.S_select sel ->
      if analyze then explain_rows (fst (explain_analyze_select s sel))
      else
        in_statement_txn s (fun _txn ->
            let plan, _columns = Planner.plan_select (pctx s) sel in
            explain_rows (plan_lines plan))
  | _ -> Errors.sql "EXPLAIN supports only SELECT statements"

(* Evaluate an EXECUTE argument: a constant expression (label literals
   included), evaluated against the empty row.  Placeholders cannot
   appear in argument position. *)
let eval_param_arg s (e : A.expr) : Value.t =
  let lowered =
    Planner.lower_expr_for_table (pctx s)
      (Schema.make ~name:"_args" ~columns:[] ())
      e
  in
  Expr.eval (fenv s) (Tuple.make ~values:[||] ~label:Label.empty) lowered

let rec exec_stmt ?cache s (stmt : A.stmt) : result =
  match stmt with
  | A.S_begin ->
      if s.s_txn <> None then Errors.sql "already inside a transaction";
      s.s_txn <- Some (Manager.begin_txn s.sdb.mgr);
      s.s_implicit <- false;
      if s.sdb.ifc then begin
        (* shadow trace for the explicit transaction: statement indices
           and write records, so COMMIT diagnostics can cite the
           statement that trapped the transaction *)
        let ts =
          Trace_state.create ~symbolic:false ~principal:s.s_principal
            ~label:s.s_label ()
        in
        Trace_state.begin_txn ts ~index:0 ();
        s.s_flow <- Some ts
      end;
      Done "BEGIN"
  | A.S_commit -> (
      match s.s_txn with
      | None -> Errors.sql "COMMIT outside a transaction"
      | Some txn ->
          do_commit s txn;
          Done "COMMIT")
  | A.S_rollback -> (
      match s.s_txn with
      | None -> Errors.sql "ROLLBACK outside a transaction"
      | Some txn ->
          do_abort s txn;
          Done "ROLLBACK")
  | A.S_select sel ->
      in_statement_txn s (fun _txn ->
          let plan, columns =
            Span.timed "plan" (fun () ->
                match cache with
                | Some sc when sc.sc_cacheable ->
                    let plan, columns, _hit = cached_plan s sc sel in
                    (plan, columns)
                | _ -> Planner.plan_select (pctx s) sel)
          in
          audit_declassify s plan;
          let tuples =
            Span.timed "execute" (fun () -> Executor.run_list (exec_ctx s) plan)
          in
          Rows { columns; tuples })
  | A.S_explain { x_analyze; x_stmt } -> exec_explain s ~analyze:x_analyze x_stmt
  | A.S_insert _ ->
      in_statement_txn s (fun txn ->
          Span.timed "execute" (fun () -> exec_insert s txn stmt))
  | A.S_update { u_table; u_sets; u_where } ->
      in_statement_txn s (fun txn ->
          Span.timed "execute" (fun () -> exec_update s txn u_table u_sets u_where))
  | A.S_delete { d_table; d_where } ->
      in_statement_txn s (fun txn ->
          Span.timed "execute" (fun () -> exec_delete s txn d_table d_where))
  | A.S_create_table { ct_name; ct_columns; ct_constraints } ->
      let schema = schema_of_create (ct_name, ct_columns, ct_constraints) in
      (* referenced tables must exist *)
      List.iter
        (fun fk -> ignore (Catalog.table s.sdb.cat fk.Schema.fk_ref_table))
        schema.Schema.foreign_keys;
      ignore (Catalog.create_table s.sdb.cat schema);
      Done "CREATE TABLE"
  | A.S_create_view { cv_name; cv_query; cv_declassifying; cv_materialized } ->
      let declassify =
        if cv_declassifying = [] then Label.empty
        else begin
          (* the creator must hold the authority being bound to the
             view (section 4.3), and must be uncontaminated: the view
             definition is public state *)
          if s.sdb.ifc && not (Label.is_empty s.s_label) then
            flow "creating a declassifying view requires an empty label";
          resolve_declared_tags s cv_declassifying
        end
      in
      ignore
        (Catalog.create_view s.sdb.cat ~name:cv_name ~query:cv_query
           ~declassify ~materialized:cv_materialized ());
      if cv_materialized then register_materialized s cv_name;
      Done
        (if cv_materialized then "CREATE MATERIALIZED VIEW"
         else "CREATE VIEW")
  | A.S_create_index { ci_name; ci_table; ci_cols } ->
      ignore
        (Catalog.create_index s.sdb.cat ~name:ci_name ~table:ci_table
           ~cols:ci_cols ~unique:false);
      Done "CREATE INDEX"
  | A.S_drop (`Table, name) ->
      Catalog.drop_table s.sdb.cat name;
      Ivm.invalidate_table s.sdb.ivm (norm name);
      Done "DROP TABLE"
  | A.S_drop (`View, name) ->
      Catalog.drop_view s.sdb.cat name;
      Ivm.unregister s.sdb.ivm name;
      Done "DROP VIEW"
  | A.S_drop (`Index, name) ->
      Catalog.drop_index s.sdb.cat name;
      Done "DROP INDEX"
  | A.S_perform (name, args) -> exec_perform s name args
  | A.S_prepare { pr_name; pr_stmt } -> exec_prepare s pr_name pr_stmt
  | A.S_execute { ex_name; ex_args } -> exec_execute s ex_name ex_args
  | A.S_deallocate None ->
      Hashtbl.reset s.s_prepared;
      Done "DEALLOCATE ALL"
  | A.S_deallocate (Some name) ->
      if not (Hashtbl.mem s.s_prepared (norm name)) then
        Errors.sql "prepared statement %s does not exist" name;
      Hashtbl.remove s.s_prepared (norm name);
      Done "DEALLOCATE"

and exec_prepare s pr_name pr_stmt : result =
  (match pr_stmt with
  | A.S_prepare _ | A.S_execute _ | A.S_deallocate _ ->
      Errors.sql "cannot PREPARE a PREPARE, EXECUTE or DEALLOCATE"
  | _ -> ());
  let db = s.sdb in
  let key = norm pr_name in
  if Hashtbl.mem s.s_prepared key then
    Errors.sql "prepared statement %s already exists" pr_name;
  (* [exec_stmt_guarded] already ran the analyzer over this PREPARE
     (with parameter-dependent verdicts demoted); keep its diagnostics
     so later EXECUTEs can re-attach them without re-analyzing. *)
  Hashtbl.replace s.s_prepared key
    (make_stmt_cache pr_stmt ~diags:s.s_warnings
       ~stamp:
         (Catalog.version db.cat, Authority.generation db.auth,
          session_label_id s));
  Done "PREPARE"

and exec_execute s ex_name ex_args : result =
  let db = s.sdb in
  match Hashtbl.find_opt s.s_prepared (norm ex_name) with
  | None -> Errors.sql "prepared statement %s does not exist" ex_name
  | Some sc ->
      let given = List.length ex_args in
      if given <> sc.sc_nparams then
        Errors.sql "prepared statement %s expects %d parameter%s, got %d"
          ex_name sc.sc_nparams
          (if sc.sc_nparams = 1 then "" else "s")
          given;
      let bindings = Array.of_list (List.map (eval_param_arg s) ex_args) in
      (* prepare-time diagnostics stay valid while the catalog, the
         authority state and the session label all stand still; when
         any stamp moves, re-analyze the body (same demotions as at
         PREPARE) before trusting them again *)
      let stamp =
        (Catalog.version db.cat, Authority.generation db.auth,
         session_label_id s)
      in
      if stamp <> sc.sc_stamp then begin
        sc.sc_diags <-
          analyze_stmt s (A.S_prepare { pr_name = ex_name; pr_stmt = sc.sc_stmt });
        sc.sc_stamp <- stamp
      end;
      s.s_warnings <- sc.sc_diags;
      (if db.strict then
         match List.find_opt Diag.is_error sc.sc_diags with
         | Some d -> raise (diag_exn d)
         | None -> ());
      let saved = s.s_params in
      s.s_params <- bindings;
      Fun.protect
        ~finally:(fun () -> s.s_params <- saved)
        (fun () -> exec_stmt ~cache:sc s sc.sc_stmt)

(* A failed statement aborts the enclosing explicit transaction, like
   PostgreSQL's "current transaction is aborted" state with the forced
   rollback folded in.  (Implicit transactions already abort inside
   [in_statement_txn].) *)
let exec_stmt_guarded ?cache ?parse s stmt =
  let db = s.sdb in
  (* clock reads only when someone will consume them: the latency
     histogram (metrics on) or the slow-query log (threshold set) *)
  let timed = Metrics.enabled db.metrics || db.slow_ns <> max_int in
  let t0 = if timed then Span.now_ns () else 0 in
  (* span sampling: one atomic fetch-and-add; when it says no (or
     sampling is off), [sctx] is [None] and every instrumentation
     point below reduces to a domain-local load.  A sampled statement
     gets a "statement" root span — backdated to the start of parsing
     when [exec] measured it — installed as the domain's ambient
     context so every layer down to the WAL can attach children. *)
  let sctx =
    if Span.sample db.spans then begin
      let root_t0 =
        match parse with Some (p0, _) -> p0 | None -> Span.now_ns ()
      in
      let ctx =
        Span.start db.spans ~t0:root_t0 ~args:(span_root_args stmt) "statement"
      in
      (match parse with
      | Some (p0, p1) -> Span.emit ctx "parse" ~t0:p0 ~t1:p1
      | None -> ());
      Span.set_current (Some ctx);
      Some ctx
    end
    else None
  in
  s.s_stmt <- Some stmt;
  Fun.protect
    ~finally:(fun () ->
      s.s_stmt <- None;
      match sctx with
      | Some ctx ->
          Span.set_current None;
          Span.finish db.spans ctx
      | None -> ())
    (fun () ->
      try
        (* each statement inside an explicit transaction consumes one
           shadow-trace index, 1-based from the BEGIN *)
        (match s.s_flow with
        | Some ts -> ignore (Trace_state.next_index ts)
        | None -> ());
        if db.ifc then
          Span.timed "analyze" (fun () ->
              let diags = analyze_stmt s stmt in
              s.s_warnings <- diags;
              if db.strict then
                match List.find_opt Diag.is_error diags with
                | Some d -> raise (diag_exn d)
                | None -> ());
        let result = exec_stmt ?cache s stmt in
        (match (s.s_flow, stmt) with
        | Some ts, A.S_insert { i_table; _ } ->
            Trace_state.record_txn_write ts ~index:(Trace_state.index ts)
              ~table:i_table ~label:s.s_label ~definite:true
        | Some ts, A.S_update { u_table; _ } ->
            Trace_state.record_txn_write ts ~index:(Trace_state.index ts)
              ~table:u_table ~label:s.s_label ~definite:false
        | Some ts, A.S_delete { d_table; _ } ->
            Trace_state.record_txn_write ts ~index:(Trace_state.index ts)
              ~table:d_table ~label:s.s_label ~definite:false
        | _ -> ());
        Metrics.incr db.mx.mx_statements;
        if timed then begin
          let ns = Span.now_ns () - t0 in
          Metrics.observe db.mx.mx_latency (float_of_int ns /. 1e9);
          if ns >= db.slow_ns then begin
            Metrics.incr db.mx.mx_slow;
            let rows =
              match result with
              | Rows { tuples; _ } -> List.length tuples
              | Affected n -> n
              | Done _ -> 0
            in
            Trace.slow_log_add db.slow
              ~trace:
                (match sctx with Some ctx -> Span.trace_id ctx | None -> -1)
              ~sql:(stmt_display s stmt) ~ns ~rows
          end
        end;
        result
      with
      | ( Flow_violation _ | Authority_required _ | Constraint_violation _
        | Sql_error _ | Manager.Serialization_failure _
        | Ifdb_engine.Planner.Plan_error _ | Ifdb_engine.Executor.Exec_error _
        | Catalog.Catalog_error _ | Expr.Type_error _ | Authority.Denied _
        | Authority.Not_public _ | Authority.Unknown _ ) as e ->
        Metrics.incr db.mx.mx_statements;
        Metrics.incr db.mx.mx_errors;
        (match s.s_txn with Some txn -> do_abort s txn | None -> ());
        raise e)

let wrap_errors f =
  try f () with
  | Ifdb_sql.Parser.Parse_error msg | Ifdb_sql.Lexer.Lex_error (msg, _) ->
      Errors.sql "%s" msg
  | Ifdb_engine.Planner.Plan_error msg -> Errors.sql "%s" msg
  | Ifdb_engine.Executor.Exec_error msg -> Errors.sql "%s" msg
  | Catalog.Catalog_error msg -> Errors.sql "%s" msg
  | Expr.Type_error msg -> Errors.sql "%s" msg
  | Authority.Denied msg -> Errors.authority "%s" msg
  | Authority.Not_public msg -> Errors.flow "%s" msg
  | Authority.Unknown msg -> Errors.sql "unknown %s" msg

let exec s sql_text =
  wrap_errors (fun () ->
      let db = s.sdb in
      let key = String.trim sql_text in
      match implicit_cache_find db key with
      | Some sc ->
          (* text-level hit: parse skipped entirely.  The analyzer still
             runs per execution inside the guarded path, so diagnostics,
             strict-mode behavior and [s_warnings] are byte-identical to
             a cold execution of the same text. *)
          exec_stmt_guarded ~cache:sc s sc.sc_stmt
      | None -> (
          (* parse happens before a span context can exist (sampling
             is per statement, statements come from parsing), so peek:
             if the next statement would be sampled, take timestamps
             now and let the guarded path backdate the root and attach
             a "parse" span.  Racy across sessions by design — a wrong
             guess costs two clock reads, never correctness. *)
          let p0 = if Span.peek db.spans then Span.now_ns () else 0 in
          match Parser.parse sql_text with
          | [ stmt ] ->
              let parse =
                if p0 > 0 then Some (p0, Span.now_ns ()) else None
              in
              exec_stmt_guarded ?cache:(implicit_cache_admit db key stmt)
                ?parse s stmt
          | [] -> Errors.sql "empty statement"
          | _ -> Errors.sql "exec expects a single statement; use exec_script"))

let exec_script s sql_text =
  wrap_errors (fun () ->
      List.map (fun stmt -> exec_stmt_guarded s stmt) (Parser.parse sql_text))

(* Pre-parsed entry point (the lint driver separates parsing from
   execution to attribute diagnostics to source lines).  Shadows the
   internal dispatcher on purpose: external callers always get the
   guarded, error-normalized path. *)
let exec_stmt s stmt = wrap_errors (fun () -> exec_stmt_guarded s stmt)

(* ------------------------------------------------------------------ *)
(* Prepared statements (programmatic API)                              *)
(* ------------------------------------------------------------------ *)

(* Bind [args] positionally and run the prepared statement — the
   programmatic twin of [EXECUTE name (…)], taking values directly so
   drivers and workloads skip rendering literals into SQL text. *)
let execute_prepared s name (args : Value.t list) =
  wrap_errors (fun () ->
      exec_stmt_guarded s
        (A.S_execute
           { ex_name = name; ex_args = List.map (fun v -> A.E_const v) args }))

type prepared_info = {
  pi_name : string;
  pi_text : string;  (* statement body, placeholders intact *)
  pi_nparams : int;
  pi_hits : int;  (* executions served by a cached plan *)
  pi_plans : int;  (* plan entries cached (one per session-label id) *)
  pi_cat_version : int;  (* catalog stamp of the prepare-time analysis *)
  pi_generation : int;  (* authority stamp of the prepare-time analysis *)
}

let prepared_statements s =
  List.sort
    (fun a b -> String.compare a.pi_name b.pi_name)
    (Hashtbl.fold
       (fun name sc acc ->
         let cat_v, gen, _lid = sc.sc_stamp in
         {
           pi_name = name;
           pi_text = sc.sc_text;
           pi_nparams = sc.sc_nparams;
           pi_hits = sc.sc_hits;
           pi_plans = Hashtbl.length sc.sc_plans;
           pi_cat_version = cat_v;
           pi_generation = gen;
         }
         :: acc)
       s.s_prepared [])

(* Programmatic EXPLAIN ANALYZE: the rendered report plus the query's
   ordinary result, so callers can assert the traced execution returns
   exactly what the untraced one would. *)
let explain_analyze s sql_text =
  wrap_errors (fun () ->
      let sel =
        match Parser.parse_one sql_text with
        | A.S_select sel -> sel
        | A.S_explain { x_stmt = A.S_select sel; _ } -> sel
        | _ -> Errors.sql "explain_analyze expects a single SELECT"
      in
      let stmt = A.S_select sel in
      s.s_stmt <- Some stmt;
      Fun.protect
        ~finally:(fun () -> s.s_stmt <- None)
        (fun () -> explain_analyze_select s sel))

(* ------------------------------------------------------------------ *)
(* Trace-level analysis (shell \check, ifdb_lint --trace)              *)
(* ------------------------------------------------------------------ *)

let trace_begin s =
  let ts = Analysis.trace_begin (analysis_ctx s) in
  (* the session's prepared templates are part of its state: an EXECUTE
     mid-script must resolve against them *)
  Hashtbl.iter
    (fun name sc -> Trace_state.define_prepared ts ~name ~stmt:sc.sc_stmt ~index:0)
    s.s_prepared;
  ts

let trace_stmt s ts stmt =
  if s.sdb.ifc then Analysis.analyze_trace_stmt (analysis_ctx s) ts stmt else []

let trace_meta s ts ~name ~args =
  if s.sdb.ifc then Analysis.trace_meta (analysis_ctx s) ts ~name ~args else []

let trace_finish s ts =
  if s.sdb.ifc then Analysis.trace_finish (analysis_ctx s) ts else []

type check_item = {
  ck_index : int;  (* 1-based item index within the script *)
  ck_line : int;
  ck_text : string;
  ck_diags : Diag.t list;
}

(* Symbolically analyze a whole script against the live session state
   without executing anything: split, thread one trace through every
   item, then fold the whole-script passes back onto their statements. *)
let check_script s text =
  let module Sq = Ifdb_analysis.Sqlscript in
  let items = Sq.split_script text in
  let ts = trace_begin s in
  let checked =
    List.map
      (fun (it : Sq.item) ->
        let diags =
          match it.Sq.it_kind with
          | Sq.Meta (name, args) -> trace_meta s ts ~name ~args
          | Sq.Stmt -> (
              match Parser.parse_one it.Sq.it_text with
              | stmt -> trace_stmt s ts stmt
              | exception
                  ( Ifdb_sql.Parser.Parse_error msg
                  | Ifdb_sql.Lexer.Lex_error (msg, _) ) ->
                  ignore (Trace_state.next_index ts);
                  [ Diag.error Diag.Parse_error "%s" msg ])
        in
        (it, diags))
      items
  in
  let finals = trace_finish s ts in
  List.mapi
    (fun i ((it : Sq.item), diags) ->
      let idx = i + 1 in
      let extra = Option.value ~default:[] (List.assoc_opt idx finals) in
      {
        ck_index = idx;
        ck_line = it.Sq.it_line;
        ck_text = it.Sq.it_text;
        ck_diags = diags @ extra;
      })
    checked

let query s sql_text =
  match exec s sql_text with
  | Rows { tuples; _ } -> tuples
  | Affected _ | Done _ -> Errors.sql "statement returned no rows: %s" sql_text

let query_one s sql_text =
  match query s sql_text with
  | row :: _ -> row
  | [] -> Errors.sql "no rows returned by: %s" sql_text

let insert_returning_count s sql_text =
  match exec s sql_text with
  | Affected n -> n
  | Rows _ | Done _ -> Errors.sql "expected DML: %s" sql_text

(* ------------------------------------------------------------------ *)
(* Registration                                                        *)
(* ------------------------------------------------------------------ *)

let require_uncontaminated s what =
  if s.sdb.ifc && not (Label.is_empty s.s_label) then
    flow "%s requires an empty label (catalog state is public)" what

let create_trigger s ~name ~table ~kinds ?(timing = `Immediate) ?authority fn =
  require_uncontaminated s "CREATE TRIGGER";
  ignore (Catalog.table s.sdb.cat table);
  let db = s.sdb in
  if List.exists (fun t -> norm t.trg_name = norm name) db.triggers then
    Errors.sql "trigger %s already exists" name;
  db.triggers <-
    db.triggers
    @ [
        {
          trg_name = name;
          trg_table = norm table;
          trg_kinds = kinds;
          trg_timing = timing;
          trg_authority = authority;
          trg_fn = fn;
        };
      ]

let drop_trigger t name =
  t.triggers <- List.filter (fun trg -> norm trg.trg_name <> norm name) t.triggers

let register_procedure s ~name ?authority fn =
  require_uncontaminated s "CREATE PROCEDURE";
  Hashtbl.replace s.sdb.procedures (norm name)
    { c_authority = authority; c_fn = fn }

(* Relabeling declassifying views (paper section 4.3's sophisticated
   variant): replace each [from] tag with its [to] tag at the view
   boundary — e.g. a billing view swapping p_medical for p_billing.
   The creator must hold authority for every [from] tag (it is being
   declassified) and be uncontaminated. *)
let create_relabeling_view ?(materialized = false) s ~name ~query ~replace =
  let db = s.sdb in
  if db.ifc then begin
    if not (Label.is_empty s.s_label) then
      flow "creating a relabeling view requires an empty label";
    List.iter
      (fun (from_tag, _) ->
        Authority.check_authority db.auth s.s_principal from_tag)
      replace
  end;
  let query =
    match Parser.parse_one query with
    | A.S_select sel -> sel
    | _ -> Errors.sql "view definition must be a SELECT"
  in
  ignore
    (Catalog.create_view db.cat ~name ~query ~declassify:Label.empty
       ~relabel:replace ~materialized ());
  if materialized then register_materialized s name

(* The per-tuple iterator sketched in the paper's future work
   (section 10): run a query with [extra] additional readable tags and
   hand each tuple to [f] in a fresh session whose label joins the
   caller's label with that tuple's — contamination is confined per
   tuple, as if each were handled by its own forked process.  Returns
   the number of rows handled. *)
let query_each s ?(extra = Label.empty) sql_text f =
  wrap_errors (fun () ->
      match Parser.parse_one sql_text with
      | A.S_select sel ->
          in_statement_txn s (fun _txn ->
              let plan, _names = Planner.plan_select (pctx s) ~extra sel in
              audit_declassify s plan;
              let rows = Executor.run_list (exec_ctx s) plan in
              List.iter
                (fun row ->
                  let sub = connect s.sdb ~principal:s.s_principal in
                  sub.s_label <- Label.union s.s_label (Tuple.label row);
                  (* the sub-context shares the caller's transaction so
                     its reads are consistent with the iteration *)
                  sub.s_txn <- s.s_txn;
                  Fun.protect
                    ~finally:(fun () -> sub.s_txn <- None)
                    (fun () -> f sub row))
                rows;
              List.length rows)
      | _ -> Errors.sql "query_each expects a SELECT")

let register_scalar t ~name ?authority fn =
  Hashtbl.replace t.scalars (norm name) { c_authority = authority; c_fn = fn }

let add_label_constraint t ~name ~table fn =
  Catalog.add_label_constraint t.cat
    { Catalog.lc_name = name; lc_table = table; lc_fn = fn }

(* ------------------------------------------------------------------ *)
(* Maintenance                                                         *)
(* ------------------------------------------------------------------ *)

let checkpoint t = Buffer_pool.flush_all t.bp

let table_names t =
  List.sort String.compare
    (List.map
       (fun tbl -> tbl.Catalog.tbl_schema.Schema.table_name)
       (Catalog.all_tables t.cat))

(* ------------------------------------------------------------------ *)
(* Creation                                                            *)
(* ------------------------------------------------------------------ *)

let register_builtin_procedures db =
  let text_arg name args =
    match args with
    | [ Value.Text n ] -> n
    | _ -> Errors.sql "%s expects one name argument" name
  in
  Hashtbl.replace db.procedures "addsecrecy"
    {
      c_authority = None;
      c_fn =
        (fun s args ->
          add_secrecy s (find_tag s.sdb (text_arg "addsecrecy" args));
          Value.Null);
    };
  Hashtbl.replace db.procedures "declassify"
    {
      c_authority = None;
      c_fn =
        (fun s args ->
          declassify s (find_tag s.sdb (text_arg "declassify" args));
          Value.Null);
    };
  let two_text_args name args =
    match args with
    | [ Value.Text a; Value.Text b ] -> (a, b)
    | _ -> Errors.sql "%s expects (tag_name, principal_name)" name
  in
  Hashtbl.replace db.procedures "delegate"
    {
      c_authority = None;
      c_fn =
        (fun s args ->
          let tag_name, grantee_name = two_text_args "delegate" args in
          delegate s ~tag:(find_tag s.sdb tag_name)
            ~grantee:(find_principal s.sdb grantee_name);
          Value.Null);
    };
  Hashtbl.replace db.procedures "revoke"
    {
      c_authority = None;
      c_fn =
        (fun s args ->
          let tag_name, grantee_name = two_text_args "revoke" args in
          revoke s ~tag:(find_tag s.sdb tag_name)
            ~grantee:(find_principal s.sdb grantee_name);
          Value.Null);
    }

(* Pull gauges over the component stat blocks: the hot paths keep their
   existing cheap counters and the registry reads them only at scrape
   time.  Monotone ones are exported with Prometheus TYPE counter. *)
let register_component_metrics reg ~lstore ~bp ~the_wal ~gc ~audit ~ivm ~cat
    ~pruned =
  let c name help read = ignore (Metrics.gauge reg ~help ~kind:`Counter name read) in
  let g name help read = ignore (Metrics.gauge reg ~help ~kind:`Gauge name read) in
  let ls f = float_of_int (f (Label_store.stats lstore)) in
  g "ifdb_labels_interned" "distinct labels interned" (fun () ->
      ls (fun st -> st.Label_store.interned));
  c "ifdb_flow_memo_hits_total" "flow checks answered from the memo"
    (fun () -> ls (fun st -> st.Label_store.flow_hits));
  c "ifdb_flow_memo_misses_total" "flow checks computed from authority state"
    (fun () -> ls (fun st -> st.Label_store.flow_misses));
  c "ifdb_flow_cache_invalidations_total"
    "flow-memo flushes forced by authority changes" (fun () ->
      ls (fun st -> st.Label_store.invalidations));
  let bs f = float_of_int (f (Buffer_pool.stats bp)) in
  c "ifdb_bufpool_hits_total" "buffer pool page hits" (fun () ->
      bs (fun st -> st.Buffer_pool.hits));
  c "ifdb_bufpool_misses_total" "buffer pool page misses" (fun () ->
      bs (fun st -> st.Buffer_pool.misses));
  c "ifdb_bufpool_page_writes_total" "pages written back" (fun () ->
      bs (fun st -> st.Buffer_pool.page_writes));
  c "ifdb_bufpool_io_ns_total" "modeled buffer pool I/O time (ns)" (fun () ->
      bs (fun st -> st.Buffer_pool.io_ns));
  let ws f = float_of_int (f (Wal.stats the_wal)) in
  c "ifdb_wal_records_total" "WAL records appended" (fun () ->
      ws (fun st -> st.Wal.records));
  c "ifdb_wal_bytes_total" "WAL bytes appended" (fun () ->
      ws (fun st -> st.Wal.bytes));
  c "ifdb_wal_fsyncs_total" "WAL fsync calls" (fun () ->
      ws (fun st -> st.Wal.fsyncs));
  c "ifdb_wal_io_ns_total" "modeled WAL I/O time (ns)" (fun () ->
      ws (fun st -> st.Wal.io_ns));
  let gs f = float_of_int (f (Group_commit.stats gc)) in
  c "ifdb_group_commit_submitted_total" "transactions through group commit"
    (fun () -> gs (fun st -> st.Group_commit.gc_submitted));
  c "ifdb_group_commit_batches_total" "group-commit fsync batches" (fun () ->
      gs (fun st -> st.Group_commit.gc_batches));
  g "ifdb_group_commit_max_batch" "largest batch flushed in one fsync"
    (fun () -> gs (fun st -> st.Group_commit.gc_max_batch));
  g "ifdb_group_commit_pending" "commits waiting for the next flush"
    (fun () -> float_of_int (Group_commit.pending gc));
  let ds f = float_of_int (f (Domain_pool.stats ())) in
  c "ifdb_domain_pool_batches_total" "parallel_for invocations" (fun () ->
      ds (fun st -> st.Domain_pool.dp_batches));
  c "ifdb_domain_pool_tasks_total" "morsels executed by the pool" (fun () ->
      ds (fun st -> st.Domain_pool.dp_tasks));
  c "ifdb_domain_pool_steals_total" "morsels run off the submitting domain"
    (fun () -> ds (fun st -> st.Domain_pool.dp_stolen));
  c "ifdb_audit_events_total" "IFC audit events recorded" (fun () ->
      float_of_int (Audit.count audit));
  (* materialized-view maintenance, summed over the registry.  These
     are per-view aggregates correlated only with commit activity that
     is already observable through ifdb_txn_commits_total — they never
     reveal which label partition a delta touched. *)
  let vs f =
    float_of_int (List.fold_left (fun acc st -> acc + f st) 0 (Ivm.stats ivm))
  in
  g "ifdb_mat_views" "materialized views registered" (fun () ->
      float_of_int (Ivm.count ivm));
  g "ifdb_mat_view_rows" "entries materialized across all views" (fun () ->
      vs (fun st -> st.Ivm.vs_rows));
  g "ifdb_mat_view_stale" "materialized views awaiting a refresh" (fun () ->
      vs (fun st -> if st.Ivm.vs_stale then 1 else 0));
  c "ifdb_mat_view_deltas_total" "commit-time delta applications" (fun () ->
      vs (fun st -> st.Ivm.vs_deltas));
  c "ifdb_mat_view_refreshes_total" "full recomputations of view state"
    (fun () -> vs (fun st -> st.Ivm.vs_refreshes));
  c "ifdb_mat_view_reads_incremental_total"
    "view reads served from materialized state" (fun () ->
      vs (fun st -> st.Ivm.vs_served));
  c "ifdb_mat_view_reads_recompute_total"
    "view reads answered by recomputation" (fun () ->
      vs (fun st -> st.Ivm.vs_recomputes));
  c "ifdb_mat_view_skipped_total"
    "commit deltas skipped by label-interval analysis" (fun () ->
      vs (fun st -> st.Ivm.vs_skipped));
  (* label partitions, summed over every table: a whole-database count
     correlated only with the set of labels ever written — the same
     information ifdb_labels_interned already exposes, so no new
     covert channel *)
  g "ifdb_partitions" "label partitions across all tables" (fun () ->
      float_of_int
        (List.fold_left
           (fun acc tbl ->
             acc + Heap.distinct_label_count tbl.Catalog.tbl_heap)
           0 (Catalog.all_tables cat)));
  c "ifdb_partition_pruned_total"
    "partitions skipped by label confinement during scans" (fun () ->
      float_of_int (Atomic.get pruned))

let create ?(ifc = true) ?(isolation = Snapshot) ?(capacity_pages = None)
    ?(miss_cost_ns = 100_000) ?(seed = 0x1FDB) ?(parallelism = 1)
    ?(morsel_size = 1024) ?(commit_batch = 1) ?(sync_commit = false)
    ?(strict_analysis = false) ?(metrics = true) ?slow_query_ms
    ?(audit_wal = false) ?(trace_sample = 0) () =
  let parallelism = max 1 parallelism in
  let morsel_size = max 16 morsel_size in
  let bp = Buffer_pool.create ~capacity_pages ~miss_cost_ns () in
  let the_wal = Wal.create () in
  let auth = Authority.create ~seed () in
  let admin_p =
    Authority.create_principal auth ~actor_label:Label.empty ~name:"admin"
  in
  let lstore = Label_store.create auth in
  let mgr =
    Manager.create ~wal:the_wal
      ~serializable_locking:(isolation = Serializable) ~commit_batch
      ~sync_commit ()
  in
  let cat = Catalog.create ~pool:bp ~labeled:ifc () in
  let ivm =
    (* the registry's base scans are committed-now and label-blind:
       the state must hold every partition, visibility is decided per
       partition at read time *)
    Ivm.create ~lstore
      ~strip:(strip_label_with auth)
      ~scan:(fun table ->
        let tbl = Catalog.table cat table in
        Seq.filter_map
          (fun (v : Heap.version) ->
            let live =
              (match Manager.status_of mgr v.Heap.xmin with
              | Manager.Committed -> true
              | Manager.Aborted | Manager.In_progress -> false)
              && (v.Heap.xmax = 0
                 || Manager.status_of mgr v.Heap.xmax <> Manager.Committed)
            in
            if not live then None
            else
              let lid = Tuple.label_id v.Heap.tuple in
              let lid =
                if lid >= 0 then lid
                else Label_store.intern lstore (Tuple.label v.Heap.tuple)
              in
              Some (v.Heap.tuple, lid))
          (Heap.to_seq tbl.Catalog.tbl_heap))
      ()
  in
  let reg = Metrics.create ~enabled:metrics () in
  let audit =
    let sink =
      if audit_wal then
        Some (fun ev -> Wal.append the_wal (Wal.Audit (Audit.event_to_string ev)))
      else None
    in
    Audit.create ?sink ()
  in
  let pruned_parts = Atomic.make 0 in
  register_component_metrics reg ~lstore ~bp ~the_wal
    ~gc:(Manager.group_commit mgr) ~audit ~ivm ~cat ~pruned:pruned_parts;
  (* wait-state instruments (DESIGN.md §6.10 audits each).
     ifdb_lock_wait_ns_total is a whole-database aggregate over every
     transaction and label; the wait histograms are fed only by
     sampled statements (sampled views, like the span ring). *)
  ignore
    (Metrics.gauge reg ~kind:`Counter
       ~help:"cumulative lock acquisition wait (ns, all transactions)"
       "ifdb_lock_wait_ns_total"
       (fun () -> float_of_int (Manager.lock_wait_ns mgr)));
  let wait_buckets =
    [| 1e-7; 1e-6; 1e-5; 1e-4; 1e-3; 1e-2; 1e-1 |]
  in
  let gc_wait_h =
    Metrics.histogram reg ~buckets:wait_buckets
      ~help:"group-commit submit wait in seconds (sampled statements)"
      "ifdb_group_commit_wait_seconds"
  in
  Group_commit.set_wait_observer (Manager.group_commit mgr) (fun sec ->
      Metrics.observe gc_wait_h sec);
  let fsync_h =
    Metrics.histogram reg ~buckets:wait_buckets
      ~help:"WAL fsync stall in seconds, modeled cost included (sampled)"
      "ifdb_fsync_stall_seconds"
  in
  Wal.set_fsync_observer the_wal (fun sec -> Metrics.observe fsync_h sec);
  let mx =
    {
      mx_statements =
        Metrics.counter reg ~help:"SQL statements executed"
          "ifdb_statements_total";
      mx_errors =
        Metrics.counter reg ~help:"statements that raised an error"
          "ifdb_statement_errors_total";
      mx_commits =
        Metrics.counter reg ~help:"transactions committed"
          "ifdb_txn_commits_total";
      mx_aborts =
        Metrics.counter reg ~help:"transactions aborted"
          "ifdb_txn_aborts_total";
      mx_slow =
        Metrics.counter reg
          ~help:"statements at or above the slow-query threshold"
          "ifdb_slow_queries_total";
      mx_latency =
        Metrics.histogram reg ~help:"statement latency in seconds"
          "ifdb_statement_seconds";
      (* plan-cache traffic.  Covert-channel note: hit/miss/invalidation
         totals are whole-database aggregates; invalidations correlate
         only with DDL and authority mutations, both already observable
         through the audit log and ifdb_flow_cache_invalidations_total,
         so no new channel is opened (see DESIGN.md §6.8). *)
      mx_pc_hits =
        Metrics.counter reg ~help:"statements planned from the plan cache"
          "ifdb_plan_cache_hits_total";
      mx_pc_misses =
        Metrics.counter reg
          ~help:"plan-cache lookups that had to plan fresh"
          "ifdb_plan_cache_misses_total";
      mx_pc_invalidations =
        Metrics.counter reg
          ~help:"cached plans discarded for stale catalog/authority stamps"
          "ifdb_plan_cache_invalidations_total";
    }
  in
  let db =
    {
      auth;
      lstore;
      cat;
      mgr;
      bp;
      ivm;
      ifc;
      iso = isolation;
      strict = strict_analysis;
      admin_p;
      scalars = Hashtbl.create 16;
      procedures = Hashtbl.create 16;
      triggers = [];
      commits_since_vacuum = 0;
      autovacuum_every = 256;
      parallelism;
      morsel = morsel_size;
      pruned_parts;
      dpool =
        (if parallelism > 1 then Some (Domain_pool.get ~parallelism) else None);
      metrics = reg;
      mx;
      audit;
      slow = Trace.slow_log_create ();
      slow_ns =
        (match slow_query_ms with
        | None -> max_int
        | Some ms -> int_of_float (ms *. 1e6));
      spans = Span.create ~sample_every:trace_sample ();
      pc_mu = Mutex.create ();
      pc_alias = Hashtbl.create 64;
      pc_stmts = Hashtbl.create 64;
    }
  in
  register_builtin_procedures db;
  db
