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
   literal SQL through [Db.exec], which keys cached plans on the text's
   shape and binds its literals; the uncached replay parses the literal
   itself and runs it through [Db.exec_stmt], which never consults the
   cache.  So does the insert trigger's body, which follows the replay.

   Three op shapes target what a cached DML plan must not keep: a
   key-changing UPDATE (its uniqueness probe stays), an admin step that
   creates or drops an index on [v] (the plan's access path must follow
   the catalog version), and an insert trigger created mid-trace (CREATE
   TRIGGER does not move the catalog version, so trigger presence must be
   read per execution).

   Others target which literals the implicit cache may bind: negative
   numbers (the parser folds their sign), quoted text with [''], and
   shapes whose literals sit where a parameter would differ from a
   literal, so they must not be lifted: [LIMIT n], an IN list of mixed
   types, a select-list constant and [GROUP BY v + k].  These have no
   parameter form; the prepared replay sends their literal text. *)
type op =
  | Insert of int * int * int  (* id, v, session label mask *)
  | Update of int * int * int  (* id, new v, session label mask *)
  | Delete of int * int        (* id, session label mask *)
  | Query of int               (* reader label mask *)
  | Query_from of int * int    (* lower id bound, reader label mask *)
  | Rekey of int * int * int   (* old id, new id, session label mask *)
  | Delete_v of int * int      (* v, session label mask *)
  | Index_v of bool            (* admin: create (true) or drop the index on v *)
  | Trigger                    (* admin: create the insert trigger *)
  | Query_above of int * int   (* rows with v > -k, reader label mask *)
  | Note of int * int * int    (* id, text number, session label mask *)
  | Note_query of int * int    (* text number, reader label mask *)
  | Query_limit of int * int   (* LIMIT n, reader label mask *)
  | Query_in of int * int      (* v IN (k, 'x'), reader label mask *)
  | Query_const of int * int   (* select-list constant, reader label mask *)
  | Query_group of int * int   (* GROUP BY v + k, reader label mask *)

let pp_op = function
  | Insert (id, v, m) -> Printf.sprintf "Insert(%d,%d,%d)" id v m
  | Update (id, v, m) -> Printf.sprintf "Update(%d,%d,%d)" id v m
  | Delete (id, m) -> Printf.sprintf "Delete(%d,%d)" id m
  | Query m -> Printf.sprintf "Query(%d)" m
  | Query_from (lo, m) -> Printf.sprintf "QueryFrom(%d,%d)" lo m
  | Rekey (id, id', m) -> Printf.sprintf "Rekey(%d,%d,%d)" id id' m
  | Delete_v (v, m) -> Printf.sprintf "DeleteV(%d,%d)" v m
  | Index_v on -> Printf.sprintf "IndexV(%b)" on
  | Trigger -> "Trigger"
  | Query_above (k, m) -> Printf.sprintf "QueryAbove(%d,%d)" k m
  | Note (id, k, m) -> Printf.sprintf "Note(%d,%d,%d)" id k m
  | Note_query (k, m) -> Printf.sprintf "NoteQuery(%d,%d)" k m
  | Query_limit (n, m) -> Printf.sprintf "QueryLimit(%d,%d)" n m
  | Query_in (k, m) -> Printf.sprintf "QueryIn(%d,%d)" k m
  | Query_const (k, m) -> Printf.sprintf "QueryConst(%d,%d)" k m
  | Query_group (k, m) -> Printf.sprintf "QueryGroup(%d,%d)" k m

let gen_op =
  QCheck.Gen.(
    let id = int_bound 7 and v = int_range (-9) 9 and mask = int_bound 3 in
    let k = int_bound 3 in
    frequency
      [
        (1, map2 (fun x m -> Query_above (x, m)) (int_bound 9) mask);
        (1, map3 (fun i x m -> Note (i, x, m)) id k mask);
        (1, map2 (fun x m -> Note_query (x, m)) k mask);
        (1, map2 (fun n m -> Query_limit (n, m)) (int_range 1 3) mask);
        (1, map2 (fun x m -> Query_in (x, m)) v mask);
        (1, map2 (fun x m -> Query_const (x, m)) k mask);
        (1, map2 (fun x m -> Query_group (x, m)) k mask);
        (4, map3 (fun i x m -> Insert (i, x, m)) id v mask);
        (2, map3 (fun i x m -> Update (i, x, m)) id v mask);
        (2, map2 (fun i m -> Delete (i, m)) id mask);
        (2, map (fun m -> Query m) mask);
        (2, map2 (fun lo m -> Query_from (lo, m)) id mask);
        (2, map3 (fun i i' m -> Rekey (i, i', m)) id id mask);
        (2, map2 (fun x m -> Delete_v (x, m)) v mask);
        (1, map (fun on -> Index_v on) bool);
        (1, return Trigger);
      ])

(* Mostly single ops, and now and then one of the blocks that random
   ops rarely line up:
   - two ids inserted under one label, then one re-keyed onto the
     other, which the uniqueness probe must refuse;
   - a [v] lookup planned while the index on [v] exists, the index
     dropped, a row inserted, and the lookup run again: a plan that kept
     the dropped index would miss the new row;
   - two texts of one shape back to back, under one label and then
     under another: the second text is served by the first one's
     template, which must bind its own values. *)
let gen_trace =
  QCheck.Gen.(
    let id = int_bound 7 and v = int_range (-9) 9 and mask = int_bound 3 in
    let collision =
      map3
        (fun a b m -> [ Insert (a, 0, m); Insert (b, 1, m); Rekey (b, a, m) ])
        id id mask
    in
    let reindex =
      map3
        (fun a x m ->
          [ Index_v true; Delete_v (x, m); Index_v false; Insert (a, x, m);
            Delete_v (x, m) ])
        id v mask
    in
    let same_shape =
      map3
        (fun (a, b) (x, y) (m, m') ->
          [ Insert (a, x, m); Insert (b, y, m); Query_from (a, m);
            Query_from (b, m); Query_from (a, m'); Update (a, y, m');
            Update (b, x, m') ])
        (pair id id) (pair v v) (pair mask mask)
    in
    map List.concat
      (list_size (int_range 5 30)
         (frequency
            [
              (12, map (fun op -> [ op ]) gen_op);
              (1, collision);
              (1, reindex);
              (1, same_shape);
            ])))

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
    ("rekey", "UPDATE t SET id = $1 WHERE id = $2");
    ("del_v", "DELETE FROM t WHERE v = $1");
    ("sel_log", "SELECT id, v FROM log ORDER BY id, v");
    ("log_ins", "INSERT INTO log VALUES ($1, $2)");
    ("sel_above", "SELECT id, v FROM t WHERE v > $1 ORDER BY id, v");
    ("note", "INSERT INTO notes VALUES ($1, $2)");
    ("note_sel", "SELECT id, s FROM notes WHERE s = $1 ORDER BY id, s");
    ("sel_notes", "SELECT id, s FROM notes ORDER BY id, s");
  ]

let note_text k = Printf.sprintf "it's %d" k

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
  ignore (Db.exec admin "CREATE TABLE log (id INT, v INT)");
  ignore (Db.exec admin "CREATE TABLE notes (id INT, s TEXT)");
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
  let outcome f =
    match f () with
    | r -> to_outcome r
    | exception Errors.Flow_violation m -> Error ("flow: " ^ m)
    | exception Errors.Constraint_violation m -> Error ("constraint: " ^ m)
    | exception Errors.Sql_error m -> Error ("sql: " ^ m)
  in
  let run_in s name args literal =
    match mode with
    | Prepared -> Db.execute_prepared s name args
    | Implicit -> Db.exec s literal
    | Uncached -> Db.exec_stmt s (Ifdb_sql.Parser.parse_one literal)
  in
  let run mask name args literal =
    outcome (fun () -> run_in sessions.(mask) name args literal)
  in
  (* a shape with no parameter form: the prepared replay sends the
     literal too *)
  let run_literal mask literal =
    outcome (fun () ->
        match mode with
        | Prepared | Implicit -> Db.exec sessions.(mask) literal
        | Uncached ->
            Db.exec_stmt sessions.(mask) (Ifdb_sql.Parser.parse_one literal))
  in
  let run_admin literal =
    outcome (fun () ->
        match mode with
        | Prepared | Implicit -> Db.exec admin literal
        | Uncached -> Db.exec_stmt admin (Ifdb_sql.Parser.parse_one literal))
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
                 "SELECT id, v FROM t WHERE id >= %d ORDER BY id, v" lo)
        | Rekey (id, id', m) ->
            run m "rekey"
              [ Value.Int id'; Value.Int id ]
              (Printf.sprintf "UPDATE t SET id = %d WHERE id = %d" id' id)
        | Delete_v (v, m) ->
            run m "del_v" [ Value.Int v ]
              (Printf.sprintf "DELETE FROM t WHERE v = %d" v)
        | Index_v on ->
            run_admin
              (if on then "CREATE INDEX t_v ON t (v)" else "DROP INDEX t_v")
        | Trigger ->
            (* the body logs each inserted row, under the inserting
               session's label *)
            outcome (fun () ->
                Db.create_trigger admin ~name:"t_log" ~table:"t"
                  ~kinds:[ `Insert ] (fun s ev ->
                    match ev.Db.ev_new with
                    | Some row ->
                        let id = Tuple.get row 0 and v = Tuple.get row 1 in
                        ignore
                          (run_in s "log_ins" [ id; v ]
                             (Printf.sprintf "INSERT INTO log VALUES (%s, %s)"
                                (Value.to_string id) (Value.to_string v)))
                    | None -> ());
                Db.Done "CREATE TRIGGER")
        | Query_above (k, m) ->
            run m "sel_above" [ Value.Int (-k) ]
              (Printf.sprintf "SELECT id, v FROM t WHERE v > -%d ORDER BY id, v"
                 k)
        | Note (id, k, m) ->
            run m "note"
              [ Value.Int id; Value.Text (note_text k) ]
              (Printf.sprintf "INSERT INTO notes VALUES (%d, 'it''s %d')" id k)
        | Note_query (k, m) ->
            run m "note_sel"
              [ Value.Text (note_text k) ]
              (Printf.sprintf
                 "SELECT id, s FROM notes WHERE s = 'it''s %d' ORDER BY id, s" k)
        | Query_limit (n, m) ->
            run_literal m
              (Printf.sprintf "SELECT id, v FROM t ORDER BY id, v LIMIT %d" n)
        | Query_in (k, m) ->
            run_literal m
              (Printf.sprintf
                 "SELECT id, v FROM t WHERE v IN (%d, 'x') ORDER BY id, v" k)
        | Query_const (k, m) ->
            run_literal m
              (Printf.sprintf "SELECT id, %d FROM t WHERE v < 5 ORDER BY id" k)
        | Query_group (k, m) ->
            run_literal m
              (Printf.sprintf
                 "SELECT v + %d, COUNT(*) FROM t WHERE id > 0 GROUP BY v + %d \
                  ORDER BY v + %d"
                 k k k))
      ops
  in
  let rows_of = function
    | Rows rows -> rows
    | Count _ | Error _ -> assert false
  in
  let final =
    ( rows_of (run 3 "sel" [] "SELECT id, v FROM t ORDER BY id, v"),
      rows_of (run 3 "sel_log" [] "SELECT id, v FROM log ORDER BY id, v"),
      rows_of (run 3 "sel_notes" [] "SELECT id, s FROM notes ORDER BY id, s") )
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
  let ((_, (rows, _, _), _) as reference) = replay Uncached ~parallelism ops in
  (* polyinstantiation: the table holds at most one row per (id, label) *)
  let identities =
    List.map (fun (values, label) -> (List.hd values, label)) rows
  in
  if List.length (List.sort_uniq compare identities) <> List.length identities
  then
    QCheck.Test.fail_reportf "duplicate (id, label) after@ [%s]"
      (String.concat "; " (List.map pp_op ops));
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

(* A prepared UPDATE's cached plan holds the table record, the column
   positions of its SET list and predicate, and its index: dropping the
   table and creating it again with the columns reordered must re-plan
   it, or the update would write the dropped heap or the wrong column. *)
let test_dml_plan_follows_recreated_table () =
  let db = Db.create () in
  let s = Db.connect_admin db in
  ignore (Db.exec s "CREATE TABLE r (id INT PRIMARY KEY, a INT, b INT)");
  ignore (Db.exec s "INSERT INTO r VALUES (1, 10, 20)");
  ignore (Db.exec s "PREPARE set_a AS UPDATE r SET a = $1 WHERE id = $2");
  ignore (Db.execute_prepared s "set_a" [ Value.Int 11; Value.Int 1 ]);
  ignore (Db.execute_prepared s "set_a" [ Value.Int 12; Value.Int 1 ]);
  let inval0 = metric db "ifdb_plan_cache_invalidations_total" in
  ignore (Db.exec s "DROP TABLE r");
  ignore (Db.exec s "CREATE TABLE r (b INT, id INT PRIMARY KEY, a INT)");
  ignore (Db.exec s "INSERT INTO r VALUES (20, 1, 10)");
  (match Db.execute_prepared s "set_a" [ Value.Int 99; Value.Int 1 ] with
  | Db.Affected 1 -> ()
  | _ -> Alcotest.fail "expected one updated row");
  let row = Db.query_one s "SELECT b, id, a FROM r" in
  Alcotest.(check (list string)) "only column a changed" [ "20"; "1"; "99" ]
    (List.map Value.to_string (Array.to_list (Tuple.values row)));
  Alcotest.(check bool) "stale plan invalidated" true
    (metric db "ifdb_plan_cache_invalidations_total" > inval0)

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

(* ------------------------------------------------------------------ *)
(* Statement shapes in the implicit cache                              *)
(* ------------------------------------------------------------------ *)

let ints rows =
  List.map
    (fun t -> List.map Value.to_string (Array.to_list (Tuple.values t)))
    rows

let shape_fixture () =
  let db = Db.create () in
  let s = Db.connect_admin db in
  ignore (Db.exec s "CREATE TABLE d (id INT PRIMARY KEY, v INT)");
  ignore (Db.exec s "CREATE INDEX d_v ON d (v)");
  (db, s)

(* (a) literal DML is served by its shape's template, and each text
   writes its own values *)
let test_dml_shape_hit () =
  let db, s = shape_fixture () in
  ignore (Db.exec s "INSERT INTO d VALUES (1, 10)");
  let hits0 = metric db "ifdb_plan_cache_hits_total" in
  ignore (Db.exec s "INSERT INTO d VALUES (2, 20)");
  Alcotest.(check (float 0.0)) "second INSERT text is a plan-cache hit"
    (hits0 +. 1.0) (metric db "ifdb_plan_cache_hits_total");
  ignore (Db.exec s "UPDATE d SET v = 11 WHERE id = 1");
  ignore (Db.exec s "UPDATE d SET v = 22 WHERE id = 2");
  ignore (Db.exec s "DELETE FROM d WHERE id = 3");
  (match Db.exec s "DELETE FROM d WHERE id = 1" with
  | Db.Affected 1 -> ()
  | _ -> Alcotest.fail "the DELETE's own key must bind");
  Alcotest.(check (float 0.0)) "UPDATE and DELETE texts hit too"
    (hits0 +. 3.0) (metric db "ifdb_plan_cache_hits_total");
  Alcotest.(check (list (list string))) "rows carry each text's values"
    [ [ "2"; "22" ] ]
    (ints (Db.query s "SELECT id, v FROM d ORDER BY id"))

(* (b) a LIMIT literal is not a parameter: the shape is not lifted, and
   each text keeps its own entry *)
let test_limit_not_lifted () =
  let _db, s = shape_fixture () in
  ignore (Db.exec s "INSERT INTO d VALUES (1, 10), (2, 20), (3, 30)");
  let count sql = List.length (Db.query s sql) in
  Alcotest.(check int) "LIMIT 1" 1 (count "SELECT id FROM d ORDER BY id LIMIT 1");
  Alcotest.(check int) "LIMIT 2" 2 (count "SELECT id FROM d ORDER BY id LIMIT 2");
  Alcotest.(check int) "LIMIT 1 again" 1
    (count "SELECT id FROM d ORDER BY id LIMIT 1")

(* (c) strict mode judges the literal statement, on a shape hit as
   cold *)
let test_strict_fk_leak_on_hit () =
  let fk_db () =
    let db = Db.create ~strict_analysis:true () in
    let admin = Db.connect_admin db in
    let owner = Db.create_principal admin ~name:"owner" in
    let os = Db.connect db ~principal:owner in
    ignore (Db.create_tag os ~name:"secret" ());
    ignore
      (Db.exec admin "CREATE TABLE parent (id INT NOT NULL, PRIMARY KEY (id))");
    ignore
      (Db.exec admin
         "CREATE TABLE child (id INT, pid INT, FOREIGN KEY (pid) REFERENCES \
          parent (id))");
    let ws = Db.connect db ~principal:owner in
    Db.add_secrecy ws (Db.find_tag db "secret");
    ignore (Db.exec ws "INSERT INTO parent VALUES (1)");
    Db.connect db ~principal:owner
  in
  let leak s sql =
    match Db.exec s sql with
    | exception Errors.Flow_violation m -> m
    | _ -> Alcotest.failf "strict mode must reject %s" sql
  in
  let cold = leak (fk_db ()) "INSERT INTO child VALUES (11, 1)" in
  let s = fk_db () in
  ignore (leak s "INSERT INTO child VALUES (10, 1)");
  Alcotest.(check string) "same rejection on a shape hit" cold
    (leak s "INSERT INTO child VALUES (11, 1)")

(* (d) one label, two principals: the plan is shared, the DECLASSIFYING
   authority is not *)
let test_declassifying_shape_per_principal () =
  let db = Db.create () in
  let admin = Db.connect_admin db in
  let alice = Db.create_principal admin ~name:"alice" in
  let bob = Db.create_principal admin ~name:"bob" in
  let a = Db.connect db ~principal:alice in
  let tag = Db.create_tag a ~name:"sec" () in
  ignore (Db.exec admin "CREATE TABLE c (id INT PRIMARY KEY, v INT)");
  let b = Db.connect db ~principal:bob in
  Db.add_secrecy a tag;
  Db.add_secrecy b tag;
  ignore (Db.exec a "INSERT INTO c VALUES (1, 1) DECLASSIFYING (sec)");
  let hits0 = metric db "ifdb_plan_cache_hits_total" in
  (match Db.exec b "INSERT INTO c VALUES (2, 2) DECLASSIFYING (sec)" with
  | exception Errors.Authority_required _ -> ()
  | _ -> Alcotest.fail "bob holds no authority for sec");
  Alcotest.(check (float 0.0)) "bob's text reused alice's plan" (hits0 +. 1.0)
    (metric db "ifdb_plan_cache_hits_total");
  ignore (Db.exec a "INSERT INTO c VALUES (3, 3) DECLASSIFYING (sec)");
  Alcotest.(check (list (list string))) "only alice's rows" [ [ "1" ]; [ "3" ] ]
    (ints (Db.query a "SELECT id FROM c ORDER BY id"))

(* (e) EXPLAIN ANALYZE probes the cache as the explained text would *)
let test_explain_shape_hit () =
  let _db, s = shape_fixture () in
  ignore (Db.exec s "INSERT INTO d VALUES (1, 10), (2, 20)");
  ignore (Db.query s "SELECT v FROM d WHERE id = 1");
  let report, result = Db.explain_analyze s "SELECT v FROM d WHERE id = 2" in
  Alcotest.(check bool) "second text of the shape hits" true
    (List.mem "plan cache: hit" report);
  (match result with
  | Db.Rows { tuples; _ } ->
      Alcotest.(check (list (list string))) "its own binding" [ [ "20" ] ]
        (ints tuples)
  | _ -> Alcotest.fail "expected rows");
  match Db.exec s "EXPLAIN ANALYZE SELECT v FROM d WHERE id = 3" with
  | Db.Rows { tuples; _ } ->
      Alcotest.(check bool) "EXPLAIN ANALYZE through exec hits too" true
        (List.exists
           (fun t -> Tuple.get t 0 = Value.Text "plan cache: hit")
           tuples)
  | _ -> Alcotest.fail "expected a report"

(* (g) plain EXPLAIN probes the cache as EXPLAIN ANALYZE does: for a
   text of a lifted shape it prints the template's plan, the plan every
   execution of the shape runs, line for line what EXPLAIN ANALYZE of
   the same text reports without its row counts and times, and it counts
   one plan-cache lookup *)
let test_plain_explain_shape () =
  let db, s = shape_fixture () in
  ignore (Db.exec s "INSERT INTO d VALUES (1, 10), (2, 20)");
  ignore (Db.query s "SELECT v FROM d WHERE id = 1");
  let lines sql =
    match Db.exec s sql with
    | Db.Rows { tuples; _ } ->
        List.map
          (fun t ->
            match Tuple.get t 0 with
            | Value.Text l -> l
            | v -> Value.to_string v)
          tuples
    | _ -> Alcotest.failf "%s: expected a report" sql
  in
  let lookups () =
    metric db "ifdb_plan_cache_hits_total"
    +. metric db "ifdb_plan_cache_misses_total"
  in
  let before = lookups () in
  let plain = lines "EXPLAIN SELECT v FROM d WHERE id = 3" in
  Alcotest.(check (float 0.0)) "one plan-cache lookup" (before +. 1.0)
    (lookups ());
  let analyzed = lines "EXPLAIN ANALYZE SELECT v FROM d WHERE id = 3" in
  (* an operator line of the report reads "<plan line>  (rows=… time=…)" *)
  let operator l =
    let rec find i =
      if i + 8 > String.length l then None
      else if String.sub l i 8 = "  (rows=" then Some (String.sub l 0 i)
      else find (i + 1)
    in
    find 0
  in
  let show = String.concat "\n" in
  Alcotest.(check (list string))
    ("the executed plan:\n" ^ show analyzed)
    (List.filter_map operator analyzed)
    plain;
  Alcotest.(check bool) ("the literal is the template's ?1:\n" ^ show plain)
    true
    (List.exists (fun l -> contains l "?1") plain)

(* (f) the parser folds [-5] into a constant; the template binds -5 to
   a plain [$1], which an index prefix can use *)
let test_negative_literal_binds () =
  let _db, s = shape_fixture () in
  ignore (Db.exec s "INSERT INTO d VALUES (1, -5), (2, 5), (3, -6)");
  Alcotest.(check (list (list string))) "x = -5" [ [ "1" ] ]
    (ints (Db.query s "SELECT id FROM d WHERE v = -5"));
  let report, result = Db.explain_analyze s "SELECT id FROM d WHERE v = -6" in
  (match result with
  | Db.Rows { tuples; _ } ->
      Alcotest.(check (list (list string))) "x = -6" [ [ "3" ] ] (ints tuples)
  | _ -> Alcotest.fail "expected rows");
  let show = String.concat "\n" report in
  Alcotest.(check bool) ("served by the template:\n" ^ show) true
    (List.mem "plan cache: hit" report);
  Alcotest.(check bool) ("probes the index on v:\n" ^ show) true
    (List.exists (fun l -> contains l "Scan(d via d_v") report)

(* A binding lives for its statement only: a function that runs a
   statement of another shape inside an UPDATE leaves the UPDATE's own
   bindings in place, and nothing outlives either. *)
let test_nested_exec_keeps_bindings () =
  let db, s = shape_fixture () in
  ignore (Db.exec s "INSERT INTO d VALUES (1, 10), (2, 20)");
  Db.register_scalar db ~name:"probe" (fun s _ ->
      ignore (Db.exec s "SELECT v FROM d WHERE id = 2");
      Value.Bool true);
  ignore (Db.exec s "UPDATE d SET v = 11 WHERE id = 1 AND probe()");
  ignore (Db.exec s "UPDATE d SET v = 12 WHERE id = 1 AND probe()");
  Alcotest.(check (list (list string))) "each UPDATE wrote its own value"
    [ [ "1"; "12" ]; [ "2"; "20" ] ]
    (ints (Db.query s "SELECT id, v FROM d ORDER BY id"));
  match Db.exec s "SELECT v FROM d WHERE id = $1" with
  | exception Errors.Sql_error _ -> ()
  | _ -> Alcotest.fail "a placeholder outside EXECUTE is unbound"

(* An integer literal or placeholder number too large for an int is a
   typed error, not a crash. *)
let test_out_of_range_integer () =
  let _db, s = shape_fixture () in
  List.iter
    (fun sql ->
      (match Db.exec s sql with
      | exception Errors.Sql_error _ -> ()
      | _ -> Alcotest.failf "%s must fail" sql);
      match Db.analyze s sql with
      | [ d ] when d.Ifdb_analysis.Diag.d_code = Ifdb_analysis.Diag.Parse_error
        ->
          ()
      | _ -> Alcotest.failf "%s: expected one parse-error diagnostic" sql)
    [ "SELECT * FROM d WHERE id = 99999999999999999999";
      "SELECT * FROM d WHERE id = $99999999999999999999" ]

let suites =
  [
    ( "plan cache shapes",
      [
        Alcotest.test_case "DML shape hit writes its own values" `Quick
          test_dml_shape_hit;
        Alcotest.test_case "LIMIT texts keep their own rows" `Quick
          test_limit_not_lifted;
        Alcotest.test_case "strict FK leak on a shape hit" `Quick
          test_strict_fk_leak_on_hit;
        Alcotest.test_case "DECLASSIFYING authority per principal" `Quick
          test_declassifying_shape_per_principal;
        Alcotest.test_case "EXPLAIN ANALYZE hit on a shape" `Quick
          test_explain_shape_hit;
        Alcotest.test_case "plain EXPLAIN shows the executed plan" `Quick
          test_plain_explain_shape;
        Alcotest.test_case "negative literal binds and probes" `Quick
          test_negative_literal_binds;
        Alcotest.test_case "nested exec keeps bindings" `Quick
          test_nested_exec_keeps_bindings;
        Alcotest.test_case "out-of-range integer literal" `Quick
          test_out_of_range_integer;
      ] );
    ( "prepared",
      [
        qcheck_equivalence ~count:40 ~parallelism:1 "prepared = direct (serial)";
        qcheck_equivalence ~count:12 ~parallelism:par_width
          "prepared = direct (parallel)";
        Alcotest.test_case "statement lifecycle" `Quick test_lifecycle;
        Alcotest.test_case "DDL invalidates cached plans" `Quick
          test_invalidation_ddl;
        Alcotest.test_case "DML plan follows a recreated table" `Quick
          test_dml_plan_follows_recreated_table;
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
