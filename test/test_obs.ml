(* Observability layer: the metrics registry's concurrency contract,
   EXPLAIN ANALYZE equivalence with plain execution, completeness of
   the IFC audit log over the security scenarios elsewhere in the
   suite, the slow-query log, and the atomic stats take/reset pair.

   [IFDB_TEST_PARALLELISM] overrides the domain count, matching
   test_parallel.ml: CI runs the suite at 1 and at a multi-domain
   setting, and the conservation properties here are only interesting
   when samplers genuinely race incrementers. *)

module Db = Ifdb_core.Database
module Errors = Ifdb_core.Errors
module Label = Ifdb_difc.Label
module Tag = Ifdb_difc.Tag
module Authority = Ifdb_difc.Authority
module Label_store = Ifdb_difc.Label_store
module Buffer_pool = Ifdb_storage.Buffer_pool
module Wal = Ifdb_storage.Wal
module Domain_pool = Ifdb_engine.Domain_pool
module Metrics = Ifdb_obs.Metrics
module Audit = Ifdb_obs.Audit
module Ring = Ifdb_obs.Ring
module Span = Ifdb_obs.Span
module Value = Ifdb_rel.Value
module Tuple = Ifdb_rel.Tuple

let par_width =
  match Sys.getenv_opt "IFDB_TEST_PARALLELISM" with
  | Some s -> ( try max 1 (int_of_string s) with _ -> 4)
  | None -> 4

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Metrics registry                                                    *)
(* ------------------------------------------------------------------ *)

let test_counter_basics () =
  let reg = Metrics.create () in
  let c = Metrics.counter reg ~help:"test counter" "ifdb_test_total" in
  Metrics.incr c;
  Metrics.add c 41;
  Alcotest.(check int) "counter value" 42 (Metrics.counter_value c);
  Alcotest.(check (option (float 0.0)))
    "snapshot carries it" (Some 42.0)
    (List.assoc_opt "ifdb_test_total" (Metrics.snapshot reg))

let test_name_rules () =
  let reg = Metrics.create () in
  ignore (Metrics.counter reg "ifdb_dup_total");
  (match Metrics.counter reg "ifdb_dup_total" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate counter name must raise");
  (match Metrics.gauge reg "ifdb_dup_total" (fun () -> 0.0) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "duplicate name across metric kinds must raise");
  match Metrics.counter reg "9starts-with-digit" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "invalid metric name must raise"

let test_disabled_registry () =
  let reg = Metrics.create ~enabled:false () in
  Alcotest.(check bool) "disabled" false (Metrics.enabled reg);
  let c = Metrics.counter reg "ifdb_off_total" in
  let h = Metrics.histogram reg "ifdb_off_seconds" in
  Metrics.incr c;
  Metrics.add c 10;
  Metrics.observe h 0.5;
  Alcotest.(check int) "counter is a no-op" 0 (Metrics.counter_value c);
  Alcotest.(check int) "histogram is a no-op" 0 (Metrics.histogram_count h);
  Alcotest.(check int) "snapshot empty" 0 (List.length (Metrics.snapshot reg))

let test_histogram () =
  let reg = Metrics.create () in
  let h = Metrics.histogram reg "ifdb_lat_seconds" in
  Metrics.observe h 0.001;
  Metrics.observe h 0.5;
  Metrics.observe h 100.0 (* lands in the implicit +Inf bucket *);
  Alcotest.(check int) "count" 3 (Metrics.histogram_count h);
  Alcotest.(check (float 1e-9)) "sum" 100.501 (Metrics.histogram_sum h);
  let snap = Metrics.snapshot reg in
  Alcotest.(check (option (float 0.0)))
    "snapshot count" (Some 3.0)
    (List.assoc_opt "ifdb_lat_seconds_count" snap);
  Alcotest.(check bool) "snapshot sum present" true
    (List.mem_assoc "ifdb_lat_seconds_sum" snap)

let test_reset () =
  let reg = Metrics.create () in
  let c = Metrics.counter reg "ifdb_r_total" in
  let h = Metrics.histogram reg "ifdb_r_seconds" in
  Metrics.add c 7;
  Metrics.observe h 1.0;
  Metrics.reset reg;
  Alcotest.(check int) "counter zeroed" 0 (Metrics.counter_value c);
  Alcotest.(check int) "histogram zeroed" 0 (Metrics.histogram_count h)

(* The sample key (name + label set) of a Prometheus exposition line,
   or [None] for comments/blanks.  Duplicate keys within one scrape
   are invalid — the same property the CI smoke step checks. *)
let sample_key line =
  if line = "" || line.[0] = '#' then None
  else
    match String.index_opt line ' ' with
    | None -> None
    | Some i -> Some (String.sub line 0 i)

let assert_no_duplicate_samples dump =
  let seen = Hashtbl.create 64 in
  String.split_on_char '\n' dump
  |> List.iter (fun line ->
         match sample_key line with
         | None -> ()
         | Some key ->
             if Hashtbl.mem seen key then
               Alcotest.failf "duplicate sample %s" key;
             Hashtbl.add seen key ())

let test_prometheus_exposition () =
  let reg = Metrics.create () in
  let c = Metrics.counter reg ~help:"c" "ifdb_p_total" in
  Metrics.gauge reg ~kind:`Counter "ifdb_p_fsyncs_total" (fun () -> 3.0);
  let h = Metrics.histogram reg "ifdb_p_seconds" in
  Metrics.incr c;
  Metrics.observe h 0.01;
  let dump = Metrics.to_prometheus reg in
  assert_no_duplicate_samples dump;
  Alcotest.(check bool) "monotone gauge typed counter" true
    (contains dump "# TYPE ifdb_p_fsyncs_total counter");
  Alcotest.(check bool) "+Inf bucket" true
    (contains dump "ifdb_p_seconds_bucket{le=\"+Inf\"} 1")

(* A whole database's registry — component gauges included — exposes
   no duplicate sample keys. *)
let test_database_prometheus_no_duplicates () =
  let db = Db.create () in
  let admin = Db.connect_admin db in
  ignore (Db.exec admin "CREATE TABLE t (a INT)");
  ignore (Db.exec admin "INSERT INTO t VALUES (1), (2)");
  ignore (Db.query admin "SELECT * FROM t");
  assert_no_duplicate_samples (Db.metrics_prometheus db)

(* ------------------------------------------------------------------ *)
(* Parallel counter conservation (QCheck)                              *)
(* ------------------------------------------------------------------ *)

(* Increments performed from pool workers are never lost and never
   double-counted: after a [parallel_for] of [tasks] tasks each adding
   [k], the counter reads exactly [tasks * k]. *)
let parallel_counter_prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:30
       ~name:"parallel increments conserve counter value"
       QCheck.(pair (int_range 1 200) (int_range 1 8))
       (fun (tasks, k) ->
         let reg = Metrics.create () in
         let c = Metrics.counter reg "ifdb_q_total" in
         let pool = Domain_pool.get ~parallelism:par_width in
         Domain_pool.parallel_for pool ~tasks (fun ~worker:_ _ ->
             for _ = 1 to k do
               Metrics.incr c
             done);
         Metrics.counter_value c = tasks * k))

(* ------------------------------------------------------------------ *)
(* take_stats: read-and-zero as one atomic pair                        *)
(* ------------------------------------------------------------------ *)

(* The regression the stats-pair bug fix targets: a sampler repeatedly
   draining counters while worker domains increment them must observe
   every event exactly once — the sum of the drained snapshots plus
   the final residue equals the number of operations performed. *)
let test_label_store_take_stats_conservation () =
  let auth = Authority.create () in
  let p =
    Authority.create_principal auth ~actor_label:Label.empty ~name:"p"
  in
  let t1 =
    Authority.create_tag auth ~actor_label:Label.empty ~owner:p ~name:"t1" ()
  in
  let t2 =
    Authority.create_tag auth ~actor_label:Label.empty ~owner:p ~name:"t2" ()
  in
  let store = Label_store.create auth in
  let i1 = Label_store.intern store (Label.singleton t1) in
  let i2 = Label_store.intern store (Label.singleton t2) in
  let per_domain = 5_000 and ndom = max 2 par_width in
  let drained_hits = ref 0 and drained_misses = ref 0 in
  let stop = Atomic.make false in
  let sampler =
    Domain.spawn (fun () ->
        let acc_h = ref 0 and acc_m = ref 0 in
        while not (Atomic.get stop) do
          let s = Label_store.take_stats store in
          acc_h := !acc_h + s.Label_store.flow_hits;
          acc_m := !acc_m + s.Label_store.flow_misses
        done;
        (!acc_h, !acc_m))
  in
  let workers =
    List.init ndom (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per_domain do
              (* src <> dst and src non-empty: every call is charged to
                 exactly one of hits/misses *)
              ignore (Label_store.flows_id store ~src:i2 ~dst:i1)
            done))
  in
  List.iter Domain.join workers;
  Atomic.set stop true;
  let h, m = Domain.join sampler in
  drained_hits := h;
  drained_misses := m;
  let residue = Label_store.take_stats store in
  let total =
    !drained_hits + !drained_misses + residue.Label_store.flow_hits
    + residue.Label_store.flow_misses
  in
  Alcotest.(check int)
    "every flow check charged to exactly one epoch" (ndom * per_domain) total

let test_buffer_pool_take_stats_conservation () =
  let bp = Buffer_pool.create () in
  let page = Buffer_pool.alloc_page bp in
  let per_domain = 5_000 and ndom = max 2 par_width in
  let stop = Atomic.make false in
  let sampler =
    Domain.spawn (fun () ->
        let acc = ref 0 in
        while not (Atomic.get stop) do
          let s = Buffer_pool.take_stats bp in
          acc := !acc + s.Buffer_pool.hits + s.Buffer_pool.misses
        done;
        !acc)
  in
  let workers =
    List.init ndom (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per_domain do
              Buffer_pool.touch bp page
            done))
  in
  List.iter Domain.join workers;
  Atomic.set stop true;
  let drained = Domain.join sampler in
  let residue = Buffer_pool.take_stats bp in
  let total =
    drained + residue.Buffer_pool.hits + residue.Buffer_pool.misses
  in
  Alcotest.(check int)
    "every touch charged to exactly one epoch" (ndom * per_domain) total

(* ------------------------------------------------------------------ *)
(* EXPLAIN / EXPLAIN ANALYZE                                           *)
(* ------------------------------------------------------------------ *)

(* A CarTel-shaped fixture: per-driver location data, each driver's
   rows under their own tag, all tags compounding into [all_drives].
   An analyst holding only two of the four driver tags exercises real
   label pruning and real (non-short-circuit) flow checks. *)
let cartel_fixture () =
  let db = Db.create () in
  let admin = Db.connect_admin db in
  let owner = Db.create_principal admin ~name:"owner" in
  let os = Db.connect db ~principal:owner in
  let all_drives = Db.create_tag os ~name:"all_drives" () in
  let tags =
    Array.init 4 (fun i ->
        Db.create_tag os
          ~name:(Printf.sprintf "drives_%d" i)
          ~compounds:[ all_drives ] ())
  in
  ignore (Db.exec admin "CREATE TABLE cars (car_id INT PRIMARY KEY, driver TEXT)");
  ignore (Db.exec admin "CREATE TABLE locations (car_id INT, lat INT)");
  for i = 0 to 3 do
    Db.with_label os (Label.singleton tags.(i)) (fun () ->
        ignore
          (Db.exec os
             (Printf.sprintf "INSERT INTO cars VALUES (%d, 'driver%d')" i i));
        ignore
          (Db.exec os
             (Printf.sprintf "INSERT INTO locations VALUES (%d, %d), (%d, %d)"
                i (10 * i) i ((10 * i) + 1))))
  done;
  let analyst = Db.connect db ~principal:owner in
  Db.add_secrecy analyst tags.(0);
  Db.add_secrecy analyst tags.(1);
  (db, analyst)

let cartel_sql =
  "SELECT c.driver, l.lat FROM cars c JOIN locations l ON l.car_id = \
   c.car_id ORDER BY c.driver, l.lat"

let row_key t =
  ( List.map Value.to_string (Array.to_list (Tuple.values t)),
    Label.to_string (Tuple.label t) )

let pruned_of line =
  match String.index_opt line '=' with
  | None -> 0
  | Some _ -> (
      (* the confinement line reads "... scanned=N pruned=M[ ...]" *)
      let marker = "pruned=" in
      let rec find i =
        if i + String.length marker > String.length line then None
        else if String.sub line i (String.length marker) = marker then Some i
        else find (i + 1)
      in
      match find 0 with
      | None -> 0
      | Some i ->
          let j = ref (i + String.length marker) in
          let k = ref !j in
          while
            !k < String.length line && line.[!k] >= '0' && line.[!k] <= '9'
          do
            incr k
          done;
          if !k > !j then int_of_string (String.sub line !j (!k - !j)) else 0)

let test_explain_analyze_matches_plain_execution () =
  let _db, analyst = cartel_fixture () in
  let plain = Db.query analyst cartel_sql in
  let report, result = Db.explain_analyze analyst cartel_sql in
  (match result with
  | Db.Rows { tuples; _ } ->
      Alcotest.(check (list (pair (list string) string)))
        "EXPLAIN ANALYZE returns exactly the plain rows"
        (List.map row_key plain) (List.map row_key tuples)
  | _ -> Alcotest.fail "EXPLAIN ANALYZE of a SELECT yields rows");
  Alcotest.(check bool) "report names a join operator" true
    (List.exists (fun l -> contains l "Join") report);
  Alcotest.(check bool) "report names the scans" true
    (List.exists (fun l -> contains l "Scan(") report);
  Alcotest.(check bool) "per-table confinement lines present" true
    (List.exists (fun l -> contains l "label confinement on") report);
  let total_pruned =
    List.fold_left
      (fun acc l ->
        if contains l "label confinement on" then acc + pruned_of l else acc)
      0 report
  in
  Alcotest.(check bool) "label pruning observed" true (total_pruned > 0);
  (match
     List.find_opt (fun l -> contains l "flow checks:") report
   with
  | None -> Alcotest.fail "flow-check summary line missing"
  | Some l ->
      Alcotest.(check bool) "flow checks nonzero" false
        (contains l "flow checks: 0");
      Alcotest.(check bool) "memo hit rate reported" true
        (contains l "hit rate="));
  Alcotest.(check bool) "total line present" true
    (List.exists (fun l -> contains l "execution:") report)

let test_plain_explain_returns_plan_without_running () =
  let db, analyst = cartel_fixture () in
  let before =
    match List.assoc_opt "ifdb_statements_total" (Db.metrics_snapshot db) with
    | Some v -> v
    | None -> 0.0
  in
  (match Db.exec analyst ("EXPLAIN " ^ cartel_sql) with
  | Db.Rows { columns = [ "QUERY PLAN" ]; tuples } ->
      Alcotest.(check bool) "plan lines present" true (tuples <> []);
      let first =
        match Tuple.get (List.hd tuples) 0 with
        | Value.Text s -> s
        | v -> Value.to_string v
      in
      Alcotest.(check bool) "root operator named" true
        (contains first "(" && String.length first > 0)
  | _ -> Alcotest.fail "EXPLAIN yields a QUERY PLAN result");
  (* the EXPLAIN itself is one statement; nothing else ran *)
  let after =
    match List.assoc_opt "ifdb_statements_total" (Db.metrics_snapshot db) with
    | Some v -> v
    | None -> 0.0
  in
  Alcotest.(check (float 0.0)) "one statement recorded" (before +. 1.0) after

let test_explain_non_select_rejected () =
  let _db, analyst = cartel_fixture () in
  match Db.exec analyst "EXPLAIN ANALYZE INSERT INTO cars VALUES (9, 'x')" with
  | exception Errors.Sql_error _ -> ()
  | _ -> Alcotest.fail "EXPLAIN supports only SELECT"

(* ------------------------------------------------------------------ *)
(* Audit log completeness                                              *)
(* ------------------------------------------------------------------ *)

let kind_count db k = Audit.count_kind (Db.audit_log db) k

let test_audit_clearance_and_session_declassify () =
  let db = Db.create () in
  let admin = Db.connect_admin db in
  let alice = Db.create_principal admin ~name:"alice" in
  let s = Db.connect db ~principal:alice in
  let tag = Db.create_tag s ~name:"t" () in
  Db.add_secrecy s tag;
  Alcotest.(check int) "one clearance raise" 1
    (kind_count db Audit.Clearance_raise);
  Db.add_secrecy s tag;
  Alcotest.(check int) "re-adding a held tag is not a raise" 1
    (kind_count db Audit.Clearance_raise);
  Db.declassify s tag;
  Alcotest.(check int) "one session declassify" 1
    (kind_count db Audit.Session_declassify);
  let ev = List.hd (Audit.recent (Db.audit_log db) 1) in
  Alcotest.(check string) "principal stamped" "alice" ev.Audit.ev_principal;
  Alcotest.(check (list string)) "tag stamped" [ "t" ] ev.Audit.ev_tags

let test_audit_delegate_revoke () =
  let db = Db.create () in
  let admin = Db.connect_admin db in
  let alice = Db.create_principal admin ~name:"alice" in
  let bob = Db.create_principal admin ~name:"bob" in
  let s = Db.connect db ~principal:alice in
  let tag = Db.create_tag s ~name:"t" () in
  Db.delegate s ~tag ~grantee:bob;
  Alcotest.(check int) "one delegate" 1 (kind_count db Audit.Delegate);
  let ev = List.hd (Audit.recent (Db.audit_log db) 1) in
  Alcotest.(check bool) "grantee recorded" true
    (contains ev.Audit.ev_detail "bob");
  Db.revoke s ~tag ~grantee:bob;
  Alcotest.(check int) "one revoke" 1 (kind_count db Audit.Revoke)

let test_audit_closure_procedure () =
  let db = Db.create () in
  let admin = Db.connect_admin db in
  let owner = Db.create_principal admin ~name:"owner" in
  let owner_s = Db.connect db ~principal:owner in
  let secret = Db.create_tag owner_s ~name:"secret" () in
  ignore (Db.exec admin "CREATE TABLE S (v INT)");
  Db.add_secrecy owner_s secret;
  ignore (Db.exec owner_s "INSERT INTO S VALUES (99)");
  Db.declassify owner_s secret;
  let closure = Db.closure_principal owner_s ~name:"reader" ~tags:[ secret ] in
  Db.register_procedure owner_s ~name:"summarize" ~authority:closure
    (fun s _args ->
      Db.with_label s (Label.singleton secret) (fun () ->
          ignore (Db.query_one s "SELECT SUM(v) FROM S"));
      Value.Null);
  let nobody = Db.create_principal admin ~name:"nobody" in
  let ns = Db.connect db ~principal:nobody in
  let before = kind_count db Audit.Closure_call in
  ignore (Db.exec ns "PERFORM summarize()");
  Alcotest.(check int) "exactly one closure-call event" (before + 1)
    (kind_count db Audit.Closure_call);
  let ev =
    (* the closure body's own label changes audit after the call event *)
    List.find
      (fun e -> e.Audit.ev_kind = Audit.Closure_call)
      (Audit.recent (Db.audit_log db) 10)
  in
  Alcotest.(check bool) "procedure named" true
    (contains ev.Audit.ev_detail "summarize");
  Alcotest.(check bool) "originating statement captured" true
    (contains ev.Audit.ev_stmt "PERFORM")

let test_audit_closure_trigger () =
  let db = Db.create () in
  let admin = Db.connect_admin db in
  let owner = Db.create_principal admin ~name:"owner" in
  let owner_s = Db.connect db ~principal:owner in
  let secret = Db.create_tag owner_s ~name:"secret" () in
  ignore (Db.exec admin "CREATE TABLE T (a INT)");
  let closure = Db.closure_principal owner_s ~name:"audit" ~tags:[ secret ] in
  Db.create_trigger admin ~name:"watch" ~table:"T" ~kinds:[ `Insert ]
    ~authority:closure (fun _s _ev -> ());
  let before = kind_count db Audit.Closure_call in
  ignore (Db.exec admin "INSERT INTO T VALUES (1)");
  Alcotest.(check int) "authority trigger fires one event" (before + 1)
    (kind_count db Audit.Closure_call);
  let ev = List.hd (Audit.recent (Db.audit_log db) 1) in
  Alcotest.(check bool) "trigger named" true
    (contains ev.Audit.ev_detail "watch")

let test_audit_declassifying_view () =
  let db = Db.create () in
  let admin = Db.connect_admin db in
  let chair = Db.create_principal admin ~name:"chair" in
  let chair_s = Db.connect db ~principal:chair in
  let all_contacts = Db.create_tag chair_s ~name:"all_contacts" () in
  ignore
    (Db.exec admin
       "CREATE TABLE ContactInfo (contactId INT PRIMARY KEY, firstName TEXT, \
        isPC BOOL)");
  Db.add_secrecy chair_s all_contacts;
  ignore
    (Db.exec chair_s
       "INSERT INTO ContactInfo VALUES (1, 'Ada', TRUE), (2, 'Bob', FALSE)");
  Db.declassify chair_s all_contacts;
  ignore
    (Db.exec chair_s
       "CREATE VIEW PCMembers AS SELECT firstName FROM ContactInfo WHERE \
        isPC = TRUE WITH DECLASSIFYING (all_contacts)");
  let user = Db.create_principal admin ~name:"user" in
  let user_s = Db.connect db ~principal:user in
  let before = kind_count db Audit.View_declassify in
  ignore (Db.query user_s "SELECT firstName FROM PCMembers");
  Alcotest.(check int) "one event per declassifying read" (before + 1)
    (kind_count db Audit.View_declassify);
  ignore (Db.query user_s "SELECT firstName FROM PCMembers");
  Alcotest.(check int) "second read, second event" (before + 2)
    (kind_count db Audit.View_declassify);
  let ev = List.hd (Audit.recent (Db.audit_log db) 1) in
  Alcotest.(check bool) "declassified tag stamped" true
    (List.mem "all_contacts" ev.Audit.ev_tags);
  Alcotest.(check bool) "originating SELECT captured" true
    (contains ev.Audit.ev_stmt "PCMembers")

let test_audit_write_rule_rejection () =
  let db = Db.create () in
  let admin = Db.connect_admin db in
  let alice = Db.create_principal admin ~name:"alice" in
  let s = Db.connect db ~principal:alice in
  let tag = Db.create_tag s ~name:"am" () in
  ignore (Db.exec admin "CREATE TABLE P (name TEXT, notes TEXT)");
  ignore (Db.exec s "INSERT INTO P VALUES ('Pub', 'p')");
  Db.add_secrecy s tag;
  (match Db.exec s "UPDATE P SET notes = 'z' WHERE name = 'Pub'" with
  | exception Errors.Flow_violation _ -> ()
  | _ -> Alcotest.fail "lower-labeled update must fail");
  Alcotest.(check int) "update rejection audited" 1
    (kind_count db Audit.Write_rule_rejection);
  (match Db.exec s "DELETE FROM P WHERE name = 'Pub'" with
  | exception Errors.Flow_violation _ -> ()
  | _ -> Alcotest.fail "lower-labeled delete must fail");
  Alcotest.(check int) "delete rejection audited" 2
    (kind_count db Audit.Write_rule_rejection);
  let ev = List.hd (Audit.recent (Db.audit_log db) 1) in
  Alcotest.(check bool) "rejected statement captured" true
    (contains ev.Audit.ev_stmt "DELETE")

let test_audit_commit_rejection () =
  let db = Db.create () in
  let admin = Db.connect_admin db in
  let bob = Db.create_principal admin ~name:"bob" in
  let s = Db.connect db ~principal:bob in
  let tag = Db.create_tag s ~name:"h" () in
  ignore (Db.exec admin "CREATE TABLE Foo (msg TEXT)");
  ignore (Db.exec s "BEGIN");
  ignore (Db.exec s "INSERT INTO Foo VALUES ('leak')");
  Db.add_secrecy s tag;
  (match Db.exec s "COMMIT" with
  | exception Errors.Flow_violation _ -> ()
  | _ -> Alcotest.fail "commit-label rule must refuse the commit");
  Alcotest.(check int) "commit rejection audited" 1
    (kind_count db Audit.Commit_rejection);
  let ev = List.hd (Audit.recent (Db.audit_log db) 1) in
  Alcotest.(check string) "principal stamped" "bob" ev.Audit.ev_principal;
  Alcotest.(check (list string)) "offending label stamped" [ "h" ]
    ev.Audit.ev_tags

let test_audit_silent_without_ifc () =
  let db = Db.create ~ifc:false () in
  let admin = Db.connect_admin db in
  let alice = Db.create_principal admin ~name:"alice" in
  let s = Db.connect db ~principal:alice in
  let tag = Db.create_tag s ~name:"t" () in
  Db.add_secrecy s tag;
  Alcotest.(check int) "no clearance events without enforcement" 0
    (kind_count db Audit.Clearance_raise)

(* ------------------------------------------------------------------ *)
(* Slow-query log and WAL-backed audit                                 *)
(* ------------------------------------------------------------------ *)

let test_slow_query_log () =
  let db = Db.create ~slow_query_ms:0.0 () in
  let admin = Db.connect_admin db in
  ignore (Db.exec admin "CREATE TABLE t (a INT)");
  ignore (Db.exec admin "INSERT INTO t VALUES (1), (2), (3)");
  ignore (Db.query admin "SELECT * FROM t");
  let entries = Db.slow_queries db in
  Alcotest.(check bool) "threshold 0 records every statement" true
    (List.length entries >= 3);
  let newest = List.hd entries in
  Alcotest.(check bool) "newest first" true
    (contains newest.Ifdb_obs.Trace.sq_sql "SELECT");
  Alcotest.(check int) "row count recorded" 3
    newest.Ifdb_obs.Trace.sq_rows;
  Alcotest.(check bool) "slow counter in registry" true
    (match
       List.assoc_opt "ifdb_slow_queries_total" (Db.metrics_snapshot db)
     with
    | Some v -> v >= 3.0
    | None -> false)

let test_slow_log_off_by_default () =
  let db = Db.create () in
  let admin = Db.connect_admin db in
  ignore (Db.exec admin "CREATE TABLE t (a INT)");
  Alcotest.(check int) "no entries without a threshold" 0
    (List.length (Db.slow_queries db))

let test_wal_backed_audit () =
  let db = Db.create ~audit_wal:true () in
  let admin = Db.connect_admin db in
  let alice = Db.create_principal admin ~name:"alice" in
  let s = Db.connect db ~principal:alice in
  let tag = Db.create_tag s ~name:"t" () in
  Db.add_secrecy s tag;
  let recs = Wal.recent (Db.wal db) 100 in
  Alcotest.(check bool) "audit event teed into the WAL" true
    (List.exists
       (function
         | Wal.Audit line -> contains line "clearance_raise"
         | _ -> false)
       recs)

(* ------------------------------------------------------------------ *)
(* The shared ring and the engine clock                                *)
(* ------------------------------------------------------------------ *)

let test_ring () =
  let r = Ring.create ~capacity:3 in
  Alcotest.(check (list int)) "empty" [] (Ring.recent r 2);
  for _ = 1 to 5 do
    Ring.push r (fun seq -> seq)
  done;
  Alcotest.(check int) "count is exact" 5 (Ring.count r);
  Alcotest.(check (list int)) "newest first, numbered in push order" [ 4; 3 ]
    (Ring.recent r 2);
  Alcotest.(check (list int)) "bounded by capacity" [ 4; 3; 2 ]
    (Ring.recent r 10);
  Alcotest.(check (list int)) "negative count" [] (Ring.recent r (-1))

(* the shell's [\slow -1] and [\audit -1] pass a negative count
   straight through *)
let test_negative_recent () =
  let db = Db.create ~slow_query_ms:0.0 () in
  let log = Db.audit_log db in
  Alcotest.(check int) "empty slow log" 0
    (List.length (Db.slow_queries ~n:(-1) db));
  Alcotest.(check int) "empty audit log" 0
    (List.length (Audit.recent log (-1)));
  let admin = Db.connect_admin db in
  let alice =
    Db.connect db ~principal:(Db.create_principal admin ~name:"alice")
  in
  Db.add_secrecy alice (Db.create_tag alice ~name:"t" ());
  ignore (Db.exec admin "CREATE TABLE t (a INT)");
  Alcotest.(check bool) "both logs hold entries" true
    (Db.slow_queries db <> [] && Audit.count log > 0);
  Alcotest.(check int) "slow log" 0 (List.length (Db.slow_queries ~n:(-1) db));
  Alcotest.(check int) "audit log" 0 (List.length (Audit.recent log (-1)))

(* gettimeofday in a double resolves 256 ns at today's epoch and may
   step backwards; the engine clock must do neither *)
let test_clock () =
  let n = 100_000 in
  let prev = ref (Span.now_ns ()) and min_step = ref max_int in
  for _ = 1 to n do
    let t = Span.now_ns () in
    if t < !prev then Alcotest.failf "clock stepped back %d ns" (!prev - t);
    if t > !prev then min_step := min !min_step (t - !prev);
    prev := t
  done;
  Alcotest.(check bool)
    (Printf.sprintf "smallest step %d ns under 256 ns" !min_step)
    true (!min_step < 256)

(* ------------------------------------------------------------------ *)
(* Database-level statement metrics                                    *)
(* ------------------------------------------------------------------ *)

let snapshot_get db name =
  match List.assoc_opt name (Db.metrics_snapshot db) with
  | Some v -> v
  | None -> Alcotest.failf "metric %s missing" name

let test_statement_metrics () =
  let db = Db.create () in
  let admin = Db.connect_admin db in
  ignore (Db.exec admin "CREATE TABLE t (a INT)");
  ignore (Db.exec admin "INSERT INTO t VALUES (1)");
  ignore (Db.query admin "SELECT * FROM t");
  Alcotest.(check bool) "statements counted" true
    (snapshot_get db "ifdb_statements_total" >= 3.0);
  Alcotest.(check bool) "commits counted" true
    (snapshot_get db "ifdb_txn_commits_total" >= 2.0);
  Alcotest.(check bool) "latency histogram populated" true
    (snapshot_get db "ifdb_statement_seconds_count" >= 3.0);
  (match Db.exec admin "SELECT * FROM no_such_table" with
  | exception _ -> ()
  | _ -> Alcotest.fail "query over a missing table must fail");
  Alcotest.(check bool) "errors counted" true
    (snapshot_get db "ifdb_statement_errors_total" >= 1.0);
  Db.reset_stats db;
  Alcotest.(check (float 0.0)) "reset_stats zeroes the registry" 0.0
    (snapshot_get db "ifdb_statements_total")

let test_metrics_disabled_database () =
  let db = Db.create ~metrics:false () in
  let admin = Db.connect_admin db in
  ignore (Db.exec admin "CREATE TABLE t (a INT)");
  ignore (Db.exec admin "INSERT INTO t VALUES (1)");
  Alcotest.(check int) "snapshot empty when disabled" 0
    (List.length (Db.metrics_snapshot db));
  (* tracing is independent of the registry: EXPLAIN ANALYZE still works *)
  let report, _ = Db.explain_analyze admin "SELECT * FROM t" in
  Alcotest.(check bool) "EXPLAIN ANALYZE unaffected" true
    (List.exists (fun l -> contains l "execution:") report)

(* ------------------------------------------------------------------ *)

let suites =
  [
    ( "obs.metrics",
      [
        Alcotest.test_case "counter basics" `Quick test_counter_basics;
        Alcotest.test_case "name rules" `Quick test_name_rules;
        Alcotest.test_case "disabled registry no-ops" `Quick
          test_disabled_registry;
        Alcotest.test_case "histogram" `Quick test_histogram;
        Alcotest.test_case "reset" `Quick test_reset;
        Alcotest.test_case "prometheus exposition" `Quick
          test_prometheus_exposition;
        Alcotest.test_case "database dump has unique samples" `Quick
          test_database_prometheus_no_duplicates;
        parallel_counter_prop;
      ] );
    ( "obs.take-stats",
      [
        Alcotest.test_case "label-store conservation under domains" `Quick
          test_label_store_take_stats_conservation;
        Alcotest.test_case "buffer-pool conservation under domains" `Quick
          test_buffer_pool_take_stats_conservation;
      ] );
    ( "obs.explain",
      [
        Alcotest.test_case "EXPLAIN ANALYZE matches plain execution" `Quick
          test_explain_analyze_matches_plain_execution;
        Alcotest.test_case "plain EXPLAIN returns the plan" `Quick
          test_plain_explain_returns_plan_without_running;
        Alcotest.test_case "EXPLAIN rejects non-SELECT" `Quick
          test_explain_non_select_rejected;
      ] );
    ( "obs.audit",
      [
        Alcotest.test_case "clearance raise and session declassify" `Quick
          test_audit_clearance_and_session_declassify;
        Alcotest.test_case "delegate and revoke" `Quick
          test_audit_delegate_revoke;
        Alcotest.test_case "authority procedure call" `Quick
          test_audit_closure_procedure;
        Alcotest.test_case "authority trigger call" `Quick
          test_audit_closure_trigger;
        Alcotest.test_case "declassifying view reads" `Quick
          test_audit_declassifying_view;
        Alcotest.test_case "Write Rule rejections" `Quick
          test_audit_write_rule_rejection;
        Alcotest.test_case "commit-label rejection" `Quick
          test_audit_commit_rejection;
        Alcotest.test_case "silent without IFC" `Quick
          test_audit_silent_without_ifc;
      ] );
    ( "obs.slow-and-wal",
      [
        Alcotest.test_case "slow-query log" `Quick test_slow_query_log;
        Alcotest.test_case "slow log off by default" `Quick
          test_slow_log_off_by_default;
        Alcotest.test_case "WAL-backed audit" `Quick test_wal_backed_audit;
        Alcotest.test_case "negative counts return nothing" `Quick
          test_negative_recent;
      ] );
    ( "obs.ring-and-clock",
      [
        Alcotest.test_case "ring keeps the newest" `Quick test_ring;
        Alcotest.test_case "engine clock is monotonic and fine" `Quick
          test_clock;
      ] );
    ( "obs.database-metrics",
      [
        Alcotest.test_case "statement counters and histogram" `Quick
          test_statement_metrics;
        Alcotest.test_case "disabled registry end to end" `Quick
          test_metrics_disabled_database;
      ] );
  ]
