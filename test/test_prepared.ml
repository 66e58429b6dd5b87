(* Prepared statements + the generation-stamped plan cache (PR 8).

   The cache must be invisible: a trace executed through
   PREPARE/EXECUTE with $n parameters, and the same trace sent as
   literal SQL text through the implicit text cache, must both be
   observationally identical — result values, result labels, error
   outcomes and the IFC audit stream — to the trace run statement by
   statement through the uncached path.  Confinement is re-derived
   at scan time on every execution, so label changes, delegation
   flips and DDL between EXECUTEs must all be reflected immediately,
   with the stamp mechanism (catalog version, authority generation,
   session-label id) re-planning behind the scenes. *)

module Db = Ifdb_core.Database
module Errors = Ifdb_core.Errors
module Label = Ifdb_difc.Label
module Value = Ifdb_rel.Value
module Tuple = Ifdb_rel.Tuple
module Audit = Ifdb_obs.Audit
module Trace = Ifdb_obs.Trace

let par_width =
  match Sys.getenv_opt "IFDB_TEST_PARALLELISM" with
  | Some s -> ( try max 1 (int_of_string s) with _ -> 4)
  | None -> 4

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  ln = 0 || go 0

let metric db name =
  Option.value (List.assoc_opt name (Db.metrics_snapshot db)) ~default:0.0

(* ------------------------------------------------------------------ *)
(* Oracle: prepared trace = implicit-cache trace = uncached trace      *)
(* ------------------------------------------------------------------ *)

(* Labels are masks over two tags; ops carry randomized bindings.  The
   prepared replay PREPAREs one template per op shape up front and
   EXECUTEs it with the bindings; the implicit replay sends each op's
   literal SQL through [Db.exec], which keys cached plans on the text;
   the uncached replay parses the literal itself and runs it through
   [Db.exec_stmt], which never consults the cache. *)
type op =
  | Insert of int * int * int  (* id, v, session label mask *)
  | Update of int * int * int  (* id, new v, session label mask *)
  | Delete of int * int        (* id, session label mask *)
  | Query of int               (* reader label mask *)
  | Query_from of int * int    (* lower id bound, reader label mask *)

let pp_op = function
  | Insert (id, v, m) -> Printf.sprintf "Insert(%d,%d,%d)" id v m
  | Update (id, v, m) -> Printf.sprintf "Update(%d,%d,%d)" id v m
  | Delete (id, m) -> Printf.sprintf "Delete(%d,%d)" id m
  | Query m -> Printf.sprintf "Query(%d)" m
  | Query_from (lo, m) -> Printf.sprintf "QueryFrom(%d,%d)" lo m

let gen_op =
  QCheck.Gen.(
    let id = int_bound 7 and v = int_bound 9 and mask = int_bound 3 in
    frequency
      [
        (4, map3 (fun i x m -> Insert (i, x, m)) id v mask);
        (2, map3 (fun i x m -> Update (i, x, m)) id v mask);
        (2, map2 (fun i m -> Delete (i, m)) id mask);
        (2, map (fun m -> Query m) mask);
        (2, map2 (fun lo m -> Query_from (lo, m)) id mask);
      ])

let gen_trace = QCheck.Gen.(list_size (int_range 5 30) gen_op)

type outcome =
  | Rows of (string list * string) list
  | Count of int
  | Error of string

let row_key t =
  ( List.map Value.to_string (Array.to_list (Tuple.values t)),
    Label.to_string (Tuple.label t) )

let to_outcome = function
  | Db.Rows { tuples; _ } -> Rows (List.map row_key tuples)
  | Db.Affected n -> Count n
  | Db.Done _ -> Count 0

let templates =
  [
    ("ins", "INSERT INTO t VALUES ($1, $2)");
    ("upd", "UPDATE t SET v = $1 WHERE id = $2");
    ("del", "DELETE FROM t WHERE id = $1");
    ("sel", "SELECT id, v FROM t ORDER BY id, v");
    ("sel_from", "SELECT id, v FROM t WHERE id >= $1 ORDER BY id, v");
  ]

type mode = Prepared | Implicit | Uncached

(* One persistent session per mask in every replay, created in the
   same order, so clearance-raise audit events line up. *)
let replay mode ~parallelism ops =
  let prepared = mode = Prepared in
  let db = Db.create ~parallelism ~morsel_size:16 () in
  let admin = Db.connect_admin db in
  let owner = Db.create_principal admin ~name:"owner" in
  let os = Db.connect db ~principal:owner in
  let ta = Db.create_tag os ~name:"ta" () in
  let tb = Db.create_tag os ~name:"tb" () in
  ignore (Db.exec admin "CREATE TABLE t (id INT PRIMARY KEY, v INT)");
  let sessions =
    Array.init 4 (fun mask ->
        let s = Db.connect db ~principal:owner in
        if mask land 1 <> 0 then Db.add_secrecy s ta;
        if mask land 2 <> 0 then Db.add_secrecy s tb;
        if prepared then
          List.iter
            (fun (name, sql) ->
              ignore (Db.exec s (Printf.sprintf "PREPARE %s AS %s" name sql)))
            templates;
        s)
  in
  let run mask name args literal =
    let s = sessions.(mask) in
    match
      match mode with
      | Prepared -> Db.execute_prepared s name args
      | Implicit -> Db.exec s literal
      | Uncached -> Db.exec_stmt s (Ifdb_sql.Parser.parse_one literal)
    with
    | r -> to_outcome r
    | exception Errors.Flow_violation m -> Error ("flow: " ^ m)
    | exception Errors.Constraint_violation m -> Error ("constraint: " ^ m)
    | exception Errors.Sql_error m -> Error ("sql: " ^ m)
  in
  let outcomes =
    List.map
      (fun op ->
        match op with
        | Insert (id, v, m) ->
            run m "ins"
              [ Value.Int id; Value.Int v ]
              (Printf.sprintf "INSERT INTO t VALUES (%d, %d)" id v)
        | Update (id, v, m) ->
            run m "upd"
              [ Value.Int v; Value.Int id ]
              (Printf.sprintf "UPDATE t SET v = %d WHERE id = %d" v id)
        | Delete (id, m) ->
            run m "del" [ Value.Int id ]
              (Printf.sprintf "DELETE FROM t WHERE id = %d" id)
        | Query m -> run m "sel" [] "SELECT id, v FROM t ORDER BY id, v"
        | Query_from (lo, m) ->
            run m "sel_from" [ Value.Int lo ]
              (Printf.sprintf
                 "SELECT id, v FROM t WHERE id >= %d ORDER BY id, v" lo))
      ops
  in
  let final =
    match run 3 "sel" [] "SELECT id, v FROM t ORDER BY id, v" with
    | Rows rows -> rows
    | Count _ | Error _ -> assert false
  in
  (* the statement text differs by design (EXECUTE ... AS ... vs the
     literal); who/what/which-tags must not *)
  let audit =
    List.map
      (fun ev -> (ev.Audit.ev_kind, ev.Audit.ev_principal, ev.Audit.ev_tags))
      (Audit.events (Db.audit_log db))
  in
  (if mode = Uncached then
     let traffic =
       metric db "ifdb_plan_cache_hits_total"
       +. metric db "ifdb_plan_cache_misses_total"
     in
     if traffic <> 0.0 then
       QCheck.Test.fail_reportf "uncached replay touched the plan cache (%g)"
         traffic);
  (outcomes, final, audit)

let check_equivalence ~parallelism ops =
  let reference = replay Uncached ~parallelism ops in
  List.iter
    (fun (name, mode) ->
      if replay mode ~parallelism ops <> reference then
        QCheck.Test.fail_reportf "%s /= uncached on@ [%s]" name
          (String.concat "; " (List.map pp_op ops)))
    [ ("prepared", Prepared); ("implicit cache", Implicit) ];
  true

let qcheck_equivalence ~count ~parallelism name =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count ~name
       (QCheck.make
          ~print:(fun ops -> String.concat "; " (List.map pp_op ops))
          gen_trace)
       (fun ops -> check_equivalence ~parallelism ops))

(* ------------------------------------------------------------------ *)
(* Statement lifecycle                                                 *)
(* ------------------------------------------------------------------ *)

let test_lifecycle () =
  let db = Db.create () in
  let s = Db.connect_admin db in
  ignore (Db.exec s "CREATE TABLE t (id INT PRIMARY KEY, v INT)");
  ignore (Db.exec s "INSERT INTO t VALUES (1, 10), (2, 20)");
  ignore (Db.exec s "PREPARE q AS SELECT v FROM t WHERE id = $1");
  (match Db.exec s "PREPARE q AS SELECT v FROM t" with
  | exception Errors.Sql_error _ -> ()
  | _ -> Alcotest.fail "duplicate PREPARE must fail");
  let got =
    match Db.execute_prepared s "q" [ Value.Int 2 ] with
    | Db.Rows { tuples = [ t ]; _ } -> Value.to_string (Tuple.get t 0)
    | _ -> Alcotest.fail "expected one row"
  in
  Alcotest.(check string) "bound execution" "20" got;
  (match Db.execute_prepared s "q" [] with
  | exception Errors.Sql_error _ -> ()
  | _ -> Alcotest.fail "wrong arity must fail");
  (match Db.execute_prepared s "nope" [] with
  | exception Errors.Sql_error _ -> ()
  | _ -> Alcotest.fail "unknown name must fail");
  let infos = Db.prepared_statements s in
  Alcotest.(check int) "one statement listed" 1 (List.length infos);
  let pi = List.hd infos in
  Alcotest.(check string) "name" "q" pi.Db.pi_name;
  Alcotest.(check int) "nparams" 1 pi.Db.pi_nparams;
  Alcotest.(check bool) "cached plan reused" true (pi.Db.pi_hits >= 0);
  ignore (Db.exec s "DEALLOCATE q");
  Alcotest.(check int) "deallocated" 0 (List.length (Db.prepared_statements s));
  (match Db.exec s "DEALLOCATE q" with
  | exception Errors.Sql_error _ -> ()
  | _ -> Alcotest.fail "DEALLOCATE of unknown name must fail");
  ignore (Db.exec s "PREPARE a AS SELECT v FROM t");
  ignore (Db.exec s "PREPARE b AS SELECT id FROM t");
  ignore (Db.exec s "DEALLOCATE ALL");
  Alcotest.(check int) "deallocate all" 0
    (List.length (Db.prepared_statements s))

(* ------------------------------------------------------------------ *)
(* Invalidation: DDL between EXECUTEs                                  *)
(* ------------------------------------------------------------------ *)

let test_invalidation_ddl () =
  let db = Db.create () in
  let s = Db.connect_admin db in
  ignore (Db.exec s "CREATE TABLE t (id INT PRIMARY KEY, v INT)");
  ignore (Db.exec s "INSERT INTO t VALUES (1, 5), (2, 6), (3, 7)");
  ignore (Db.exec s "PREPARE q AS SELECT id FROM t WHERE v = $1");
  let count args =
    match Db.execute_prepared s "q" args with
    | Db.Rows { tuples; _ } -> List.length tuples
    | _ -> Alcotest.fail "expected rows"
  in
  Alcotest.(check int) "before DDL" 1 (count [ Value.Int 6 ]);
  ignore (Db.execute_prepared s "q" [ Value.Int 6 ]);
  let inval0 = metric db "ifdb_plan_cache_invalidations_total" in
  (* DDL moves the catalog version: the cached plan is stale and must
     be rebuilt against the new catalog (now with an index on v) *)
  ignore (Db.exec s "CREATE INDEX t_v ON t (v)");
  Alcotest.(check int) "after CREATE INDEX" 1 (count [ Value.Int 6 ]);
  Alcotest.(check bool) "stale plan invalidated" true
    (metric db "ifdb_plan_cache_invalidations_total" > inval0);
  ignore (Db.exec s "DROP INDEX t_v");
  Alcotest.(check int) "after DROP INDEX" 1 (count [ Value.Int 6 ]);
  ignore (Db.exec s "INSERT INTO t VALUES (4, 6)");
  Alcotest.(check int) "data changes need no invalidation" 2
    (count [ Value.Int 6 ])

(* ------------------------------------------------------------------ *)
(* Invalidation: delegation -> revocation flip between EXECUTEs        *)
(* ------------------------------------------------------------------ *)

(* A prepared declassifying-view read must track authority changes:
   delegation lets the EXECUTE succeed, revocation makes the very next
   EXECUTE fail — no stale plan may keep the old verdict alive. *)
let test_invalidation_authority_flip () =
  let db = Db.create () in
  let admin = Db.connect_admin db in
  let alice = Db.create_principal admin ~name:"alice" in
  let bob = Db.create_principal admin ~name:"bob" in
  let as_ = Db.connect db ~principal:alice in
  let tag = Db.create_tag as_ ~name:"secret" () in
  ignore (Db.exec admin "CREATE TABLE d (id INT PRIMARY KEY, v INT)");
  let w = Db.connect db ~principal:alice in
  Db.add_secrecy w tag;
  ignore (Db.exec w "INSERT INTO d VALUES (1, 10)");
  let bs = Db.connect db ~principal:bob in
  ignore (Db.exec bs "PREPARE read AS SELECT v FROM d WHERE id >= $1");
  let read () =
    match Db.execute_prepared bs "read" [ Value.Int 0 ] with
    | Db.Rows { tuples; _ } -> List.length tuples
    | _ -> Alcotest.fail "expected rows"
  in
  Alcotest.(check int) "public reader sees nothing" 0 (read ());
  (* raising needs no authority; declassifying does *)
  ignore (Db.exec bs "PERFORM addsecrecy(secret)");
  Alcotest.(check int) "raised reader sees the secret row" 1 (read ());
  (match Db.exec bs "PERFORM declassify(secret)" with
  | exception _ -> ()
  | _ -> Alcotest.fail "declassify without authority must fail");
  (* delegation bumps the authority generation: cached plans re-stamp,
     and the declassify now succeeds — the very next EXECUTE runs
     under the lowered label and must see nothing again *)
  let inval0 = metric db "ifdb_plan_cache_invalidations_total" in
  Db.delegate as_ ~tag ~grantee:bob;
  Alcotest.(check int) "read after delegation still confined" 1 (read ());
  Alcotest.(check bool) "generation bump re-stamped the plan" true
    (metric db "ifdb_plan_cache_invalidations_total" > inval0);
  ignore (Db.exec bs "PERFORM declassify(secret)");
  Alcotest.(check int) "declassified reader back to nothing" 0 (read ());
  (* revocation flips it back: the next declassify attempt must fail *)
  ignore (Db.exec bs "PERFORM addsecrecy(secret)");
  Db.revoke as_ ~tag ~grantee:bob;
  (match Db.exec bs "PERFORM declassify(secret)" with
  | exception _ -> ()
  | _ -> Alcotest.fail "declassify after revocation must fail");
  Alcotest.(check int) "read after revocation still confined correctly" 1
    (read ())

(* ------------------------------------------------------------------ *)
(* Invalidation: clearance change between EXECUTEs                     *)
(* ------------------------------------------------------------------ *)

(* The same prepared statement under a moving session label: plans are
   keyed per label id and confinement is re-derived per execution, so
   raising the label between EXECUTEs must change what the very next
   EXECUTE sees. *)
let test_clearance_change_between_executes () =
  let db = Db.create () in
  let admin = Db.connect_admin db in
  let owner = Db.create_principal admin ~name:"owner" in
  let os = Db.connect db ~principal:owner in
  let tag = Db.create_tag os ~name:"hi" () in
  ignore (Db.exec admin "CREATE TABLE c (id INT PRIMARY KEY, v INT)");
  ignore (Db.exec admin "INSERT INTO c VALUES (1, 10)");
  let w = Db.connect db ~principal:owner in
  Db.add_secrecy w tag;
  ignore (Db.exec w "INSERT INTO c VALUES (2, 20)");
  let s = Db.connect db ~principal:owner in
  ignore (Db.exec s "PREPARE r AS SELECT id FROM c WHERE id >= $1");
  let seen () =
    match Db.execute_prepared s "r" [ Value.Int 0 ] with
    | Db.Rows { tuples; _ } -> List.length tuples
    | _ -> Alcotest.fail "expected rows"
  in
  Alcotest.(check int) "public reader sees one row" 1 (seen ());
  Db.add_secrecy s tag;
  Alcotest.(check int) "raised reader sees both rows" 2 (seen ());
  Db.declassify s tag;
  Alcotest.(check int) "lowered reader back to one row" 1 (seen ())

(* ------------------------------------------------------------------ *)
(* Placeholders, not bound values, in audit and slow log               *)
(* ------------------------------------------------------------------ *)

(* Bound parameter values may be secret; the observability surfaces
   must render EXECUTE by its template, never the bindings. *)
let test_no_bound_values_in_logs () =
  let db = Db.create ~slow_query_ms:0.0 () in
  let admin = Db.connect_admin db in
  let alice = Db.create_principal admin ~name:"alice" in
  let s = Db.connect db ~principal:alice in
  let tag = Db.create_tag s ~name:"am" () in
  ignore (Db.exec admin "CREATE TABLE p (id INT PRIMARY KEY, v INT)");
  ignore (Db.exec s "INSERT INTO p VALUES (1, 10)");
  ignore (Db.exec s "PREPARE leak AS UPDATE p SET v = $1 WHERE id = $2");
  ignore (Db.execute_prepared s "leak" [ Value.Int 424242; Value.Int 1 ]);
  let slow = Db.slow_queries db in
  let entry =
    match
      List.find_opt
        (fun e -> contains e.Trace.sq_sql "EXECUTE leak")
        slow
    with
    | Some e -> e
    | None -> Alcotest.fail "EXECUTE not in slow log"
  in
  Alcotest.(check bool) "slow log shows the template" true
    (contains entry.Trace.sq_sql "$1");
  Alcotest.(check bool) "slow log hides the binding" false
    (contains entry.Trace.sq_sql "424242");
  (* an audited rejection through the prepared path: session label is
     raised, the public tuple write violates the Write Rule *)
  Db.add_secrecy s tag;
  (match Db.execute_prepared s "leak" [ Value.Int 777888; Value.Int 1 ] with
  | exception Errors.Flow_violation _ -> ()
  | _ -> Alcotest.fail "lower-labeled update must fail");
  let ev = List.hd (Audit.recent (Db.audit_log db) 1) in
  Alcotest.(check bool) "audit captures the EXECUTE template" true
    (contains ev.Audit.ev_stmt "EXECUTE leak" && contains ev.Audit.ev_stmt "$1");
  Alcotest.(check bool) "audit hides the binding" false
    (contains ev.Audit.ev_stmt "777888")

(* ------------------------------------------------------------------ *)
(* Implicit cache parity + metrics surface                             *)
(* ------------------------------------------------------------------ *)

let test_implicit_cache_metrics () =
  let db = Db.create () in
  let s = Db.connect_admin db in
  ignore (Db.exec s "CREATE TABLE m (id INT PRIMARY KEY, v INT)");
  ignore (Db.exec s "INSERT INTO m VALUES (1, 10), (2, 20)");
  let q = "SELECT v FROM m WHERE id = 1" in
  ignore (Db.query s q);
  let misses0 = metric db "ifdb_plan_cache_misses_total" in
  let hits0 = metric db "ifdb_plan_cache_hits_total" in
  Alcotest.(check bool) "first execution misses" true (misses0 >= 1.0);
  for _ = 1 to 5 do
    ignore (Db.query s q)
  done;
  Alcotest.(check bool) "repeats hit" true
    (metric db "ifdb_plan_cache_hits_total" >= hits0 +. 5.0);
  (* EXPLAIN ANALYZE reports the verdict *)
  let lines, _ = Db.explain_analyze s q in
  Alcotest.(check bool) "explain shows cache verdict" true
    (List.exists (fun l -> contains l "plan cache:") lines)

let suites =
  [
    ( "prepared",
      [
        qcheck_equivalence ~count:40 ~parallelism:1 "prepared = direct (serial)";
        qcheck_equivalence ~count:12 ~parallelism:par_width
          "prepared = direct (parallel)";
        Alcotest.test_case "statement lifecycle" `Quick test_lifecycle;
        Alcotest.test_case "DDL invalidates cached plans" `Quick
          test_invalidation_ddl;
        Alcotest.test_case "delegation/revocation flip" `Quick
          test_invalidation_authority_flip;
        Alcotest.test_case "clearance change between EXECUTEs" `Quick
          test_clearance_change_between_executes;
        Alcotest.test_case "placeholders in audit + slow log" `Quick
          test_no_bound_values_in_logs;
        Alcotest.test_case "implicit cache metrics + EXPLAIN" `Quick
          test_implicit_cache_metrics;
      ] );
  ]
