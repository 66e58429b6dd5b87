(* Label-sharded storage against a reference model.  Storage is
   physically sharded — per-label heap page runs, per-label index
   segments, partition-granularity locks, merged scans — but what a
   client observes must follow from three rules alone:

   - Confinement: a row is visible when its label is a subset of the
     session label (section 4.2).
   - The exact-label Write Rule: an UPDATE/DELETE that touches a
     visible row under a different label raises [Flow_violation].
   - Polyinstantiated uniqueness: the identity a PRIMARY KEY protects
     is (key, label) (section 5.2.1).

   A random labeled DML + query + vacuum trace is replayed against a
   database and against a list of (label mask, id, v) rows, and every
   outcome is compared: result rows and their labels, affected-row
   counts, error classes, the Write-Rule audit events and the final
   state.  Aggregate queries — COUNT/SUM, a filtered SUM, GROUP BY (on
   a key that repeats along the scan and on one that changes row to
   row), and GROUP BY through a declassifying view — are compared by
   value and by label, a group's label being the union of its
   contributing rows' labels.  A fixed preload puts the table above two
   morsels, so at a multi-domain setting ([IFDB_TEST_PARALLELISM])
   queries take the merged morsel path; on one domain the aggregates
   take the fused serial path.  The preload leaves the {ta, tb}
   partition empty, so traces create it, empty it (deletes, then a
   vacuum) and refill it between the same reader's queries — each time
   the reader's cached confinement verdict must be re-decided. *)

module Db = Ifdb_core.Database
module Errors = Ifdb_core.Errors
module Label = Ifdb_difc.Label
module Value = Ifdb_rel.Value
module Tuple = Ifdb_rel.Tuple
module Audit = Ifdb_obs.Audit
module Heap = Ifdb_storage.Heap

let par_width =
  match Sys.getenv_opt "IFDB_TEST_PARALLELISM" with
  | Some s -> ( try max 1 (int_of_string s) with _ -> 4)
  | None -> 4

(* ------------------------------------------------------------------ *)
(* Trace language                                                      *)
(* ------------------------------------------------------------------ *)

(* Labels are masks over two tags, so traces exercise the empty
   partition, both singletons and the union — enough to make pruning,
   polyinstantiation and Write-Rule rejections all reachable. *)
type op =
  | Insert of int * int * int  (* id, v, session label mask *)
  | Update of int * int * int  (* id, new v, session label mask *)
  | Delete of int * int        (* id, session label mask *)
  | Query of int               (* reader label mask *)
  | Aggregate of int * int     (* query in [agg_queries], reader mask *)
  | Vacuum

let pp_op = function
  | Insert (id, v, m) -> Printf.sprintf "Insert(%d,%d,%d)" id v m
  | Update (id, v, m) -> Printf.sprintf "Update(%d,%d,%d)" id v m
  | Delete (id, m) -> Printf.sprintf "Delete(%d,%d)" id m
  | Query m -> Printf.sprintf "Query(%d)" m
  | Aggregate (q, m) -> Printf.sprintf "Aggregate(%d,%d)" q m
  | Vacuum -> "Vacuum"

let gen_op =
  QCheck.Gen.(
    let id = int_bound 7 and v = int_bound 9 and mask = int_bound 3 in
    frequency
      [
        (4, map3 (fun i x m -> Insert (i, x, m)) id v mask);
        (2, map3 (fun i x m -> Update (i, x, m)) id v mask);
        (2, map2 (fun i m -> Delete (i, m)) id mask);
        (3, map (fun m -> Query m) mask);
        (2, map2 (fun q m -> Aggregate (q, m)) (int_bound 4) mask);
        (1, return Vacuum);
      ])

let gen_trace = QCheck.Gen.(list_size (int_range 5 30) gen_op)

(* ------------------------------------------------------------------ *)
(* Outcomes and the reference model                                    *)
(* ------------------------------------------------------------------ *)

type row = { mask : int; id : int; v : int }

(* One op's observable outcome.  Query rows are kept sorted, so rows
   that tie on ORDER BY (same id and v, different labels) compare
   equal whatever order the scan produced them in. *)
type outcome =
  | Rows of row list
  | Groups of (string list * int) list  (* values, label mask; sorted *)
  | Count of int
  | Flow_violation
  | Constraint_violation

(* ids 100..139 under three of the four labels: 40 slots, above two
   morsels of 16, and disjoint from the trace's ids 0..7.  Mask 3 has
   no preloaded row, so its partition is born, emptied and refilled by
   the trace alone. *)
let preload =
  List.init 40 (fun i -> { mask = i mod 3; id = 100 + i; v = i mod 10 })

let sorted rows = List.sort compare rows
let visible ~reader r = r.mask land lnot reader = 0

(* [tv] declassifies [ta] (mask bit 1): through it a reader also sees
   rows carrying [ta], and their labels lose it *)
let agg_queries =
  [|
    "SELECT COUNT(*), SUM(v) FROM t";
    "SELECT SUM(v) FROM t WHERE v < 5";
    "SELECT v, COUNT(*) FROM t GROUP BY v";
    "SELECT v, COUNT(*), SUM(id) FROM tv GROUP BY v";
    "SELECT id, COUNT(*), SUM(v) FROM t GROUP BY id";
  |]

let model_aggregate rows q reader =
  let sum f rs =
    match rs with
    | [] -> "NULL"
    | rs -> string_of_int (List.fold_left (fun acc r -> acc + f r) 0 rs)
  in
  let label rs = List.fold_left (fun acc r -> acc lor r.mask) 0 rs in
  let by key rs =
    List.map
      (fun k -> (k, List.filter (fun r -> key r = k) rs))
      (List.sort_uniq compare (List.map key rs))
  in
  let by_v = by (fun r -> r.v) in
  let seen = List.filter (visible ~reader) rows in
  sorted
    (match q with
    | 0 ->
        [ ([ string_of_int (List.length seen); sum (fun r -> r.v) seen ], label seen) ]
    | 1 ->
        let low = List.filter (fun r -> r.v < 5) seen in
        [ ([ sum (fun r -> r.v) low ], label low) ]
    | 2 ->
        List.map
          (fun (v, rs) ->
            ([ string_of_int v; string_of_int (List.length rs) ], label rs))
          (by_v seen)
    | 3 ->
        let through_view =
          List.map
            (fun r -> { r with mask = r.mask land lnot 1 })
            (List.filter (visible ~reader:(reader lor 1)) rows)
        in
        List.map
          (fun (v, rs) ->
            ( [ string_of_int v;
                string_of_int (List.length rs);
                sum (fun r -> r.id) rs ],
              label rs ))
          (by_v through_view)
    | _ ->
        List.map
          (fun (id, rs) ->
            ( [ string_of_int id;
                string_of_int (List.length rs);
                sum (fun r -> r.v) rs ],
              label rs ))
          (by (fun r -> r.id) seen))

let model_step rows = function
  | Insert (id, v, m) ->
      if List.exists (fun r -> r.id = id && r.mask = m) rows then
        (rows, Constraint_violation)
      else (rows @ [ { mask = m; id; v } ], Count 1)
  | Update (id, v, m) ->
      let hit = List.filter (fun r -> r.id = id && visible ~reader:m r) rows in
      if List.exists (fun r -> r.mask <> m) hit then (rows, Flow_violation)
      else
        ( List.map
            (fun r -> if r.id = id && r.mask = m then { r with v } else r)
            rows,
          Count (List.length hit) )
  | Delete (id, m) ->
      let hit = List.filter (fun r -> r.id = id && visible ~reader:m r) rows in
      if List.exists (fun r -> r.mask <> m) hit then (rows, Flow_violation)
      else
        ( List.filter (fun r -> not (r.id = id && r.mask = m)) rows,
          Count (List.length hit) )
  | Query m -> (rows, Rows (sorted (List.filter (visible ~reader:m) rows)))
  | Aggregate (q, m) -> (rows, Groups (model_aggregate rows q m))
  | Vacuum -> (rows, Count 0)

(* outcomes, final state (read under both tags), Write-Rule audit
   events *)
let model ops =
  let rows, outcomes =
    List.fold_left
      (fun (rows, acc) op ->
        let rows, o = model_step rows op in
        (rows, o :: acc))
      (preload, []) ops
  in
  let flows = List.length (List.filter (( = ) Flow_violation) outcomes) in
  (List.rev outcomes, sorted rows, flows)

(* ------------------------------------------------------------------ *)
(* Replay                                                              *)
(* ------------------------------------------------------------------ *)

let replay ~parallelism ops =
  let db = Db.create ~parallelism ~morsel_size:16 () in
  let admin = Db.connect_admin db in
  let owner = Db.create_principal admin ~name:"owner" in
  let os = Db.connect db ~principal:owner in
  let ta = Db.create_tag os ~name:"ta" () in
  let tb = Db.create_tag os ~name:"tb" () in
  ignore (Db.exec admin "CREATE TABLE t (id INT PRIMARY KEY, v INT)");
  ignore
    (Db.exec os "CREATE VIEW tv AS SELECT id, v FROM t WITH DECLASSIFYING (ta)");
  let session mask =
    let s = Db.connect db ~principal:owner in
    if mask land 1 <> 0 then Db.add_secrecy s ta;
    if mask land 2 <> 0 then Db.add_secrecy s tb;
    s
  in
  let mask_of label =
    if not (Label.subset label (Label.of_list [ ta; tb ])) then
      Alcotest.failf "row carries a foreign label %s" (Label.to_string label);
    (if Label.mem ta label then 1 else 0) lor if Label.mem tb label then 2 else 0
  in
  let row_of t =
    { mask = mask_of (Tuple.label t);
      id = Value.to_int (Tuple.get t 0);
      v = Value.to_int (Tuple.get t 1) }
  in
  let run mask sql =
    match Db.exec (session mask) sql with
    | Db.Rows { tuples; _ } -> Rows (sorted (List.map row_of tuples))
    | Db.Affected n -> Count n
    | Db.Done _ -> Count 0
    | exception Errors.Flow_violation _ -> Flow_violation
    | exception Errors.Constraint_violation _ -> Constraint_violation
  in
  let group_of t =
    ( List.map Value.to_string (Array.to_list (Tuple.values t)),
      mask_of (Tuple.label t) )
  in
  List.iter
    (fun m ->
      let values =
        List.filter_map
          (fun r ->
            if r.mask = m then Some (Printf.sprintf "(%d, %d)" r.id r.v)
            else None)
          preload
      in
      if values <> [] then
        ignore (run m ("INSERT INTO t VALUES " ^ String.concat ", " values)))
    [ 0; 1; 2; 3 ];
  let outcomes =
    List.map
      (fun op ->
        match op with
        | Insert (id, v, m) ->
            run m (Printf.sprintf "INSERT INTO t VALUES (%d, %d)" id v)
        | Update (id, v, m) ->
            run m (Printf.sprintf "UPDATE t SET v = %d WHERE id = %d" v id)
        | Delete (id, m) ->
            run m (Printf.sprintf "DELETE FROM t WHERE id = %d" id)
        | Query m -> run m "SELECT id, v FROM t ORDER BY id, v"
        | Aggregate (q, m) -> (
            match Db.exec (session m) agg_queries.(q) with
            | Db.Rows { tuples; _ } -> Groups (sorted (List.map group_of tuples))
            | _ -> Alcotest.fail "an aggregate query yields rows")
        | Vacuum ->
            ignore (Db.vacuum db);
            Count 0)
      ops
  in
  let final =
    match run 3 "SELECT id, v FROM t ORDER BY id, v" with
    | Rows rows -> rows
    | Groups _ | Count _ | Flow_violation | Constraint_violation -> assert false
  in
  let flows =
    List.length
      (List.filter
         (fun ev -> ev.Audit.ev_kind = Audit.Write_rule_rejection)
         (Audit.events (Db.audit_log db)))
  in
  (outcomes, final, flows)

let check_model ~parallelism ops =
  if replay ~parallelism ops <> model ops then
    QCheck.Test.fail_reportf "database /= reference model on@ [%s]"
      (String.concat "; " (List.map pp_op ops));
  true

let qcheck_model ~count ~parallelism name =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count ~name
       (QCheck.make
          ~print:(fun ops -> String.concat "; " (List.map pp_op ops))
          gen_trace)
       (fun ops -> check_model ~parallelism ops))

(* ------------------------------------------------------------------ *)
(* Pruning is observable                                               *)
(* ------------------------------------------------------------------ *)

(* A low reader over a mixed-label table must skip the high partitions
   without touching their tuples: the pruned-partition counter moves,
   the directory reports every partition, and results stay correct. *)
let test_pruning_observable () =
  let db = Db.create () in
  let admin = Db.connect_admin db in
  let owner = Db.create_principal admin ~name:"owner" in
  let os = Db.connect db ~principal:owner in
  let tag = Db.create_tag os ~name:"secret" () in
  ignore (Db.exec admin "CREATE TABLE r (id INT PRIMARY KEY, v INT)");
  ignore (Db.exec admin "INSERT INTO r VALUES (1, 10)");
  ignore (Db.exec admin "INSERT INTO r VALUES (2, 20)");
  let hs = Db.connect db ~principal:owner in
  Db.add_secrecy hs tag;
  ignore (Db.exec hs "INSERT INTO r VALUES (3, 30)");
  let before = Db.partitions_pruned db in
  let low = Db.query admin "SELECT id FROM r ORDER BY id" in
  Alcotest.(check int) "low reader sees public rows" 2 (List.length low);
  Alcotest.(check bool) "secret partition was pruned" true
    (Db.partitions_pruned db > before);
  let high = Db.connect db ~principal:owner in
  Db.add_secrecy high tag;
  let all = Db.query high "SELECT id FROM r ORDER BY id" in
  Alcotest.(check int) "high reader sees all rows" 3 (List.length all);
  match Db.partition_report db with
  | [ { Db.tp_table = "r"; tp_stats } ] ->
      Alcotest.(check int) "two partitions in the directory" 2
        (List.length tp_stats);
      Alcotest.(check int) "three versions across partitions" 3
        (List.fold_left
           (fun acc ps -> acc + ps.Heap.ps_versions)
           0 tp_stats)
  | report ->
      Alcotest.failf "unexpected partition report (%d tables)"
        (List.length report)

(* Index segments mirror heap partitions: polyinstantiated inserts
   under two labels give each index exactly those two segments — none
   for the uninterned -1 — and a uniqueness probe under a label that
   stores nothing (a batch rejected before any row lands) creates
   none. *)
let test_index_segments () =
  let db = Db.create () in
  let admin = Db.connect_admin db in
  let owner = Db.create_principal admin ~name:"owner" in
  let os = Db.connect db ~principal:owner in
  let secret = Db.create_tag os ~name:"secret" () in
  let other = Db.create_tag os ~name:"other" () in
  ignore (Db.exec admin "CREATE TABLE r (id INT PRIMARY KEY, v INT UNIQUE)");
  ignore (Db.exec admin "INSERT INTO r VALUES (1, 10), (2, 20)");
  let hs = Db.connect db ~principal:owner in
  Db.add_secrecy hs secret;
  ignore (Db.exec hs "INSERT INTO r VALUES (1, 10)");
  ignore (Db.exec hs "INSERT INTO r VALUES (3, 30)");
  let xs = Db.connect db ~principal:owner in
  Db.add_secrecy xs other;
  (match Db.exec xs "INSERT INTO r VALUES (5, 50), (5, 51)" with
  | exception Errors.Constraint_violation _ -> ()
  | _ -> Alcotest.fail "duplicate key within one batch must fail");
  let store = Db.label_store db in
  let lid l = Ifdb_difc.Label_store.intern store l in
  let expected =
    List.sort compare [ lid Label.empty; lid (Label.singleton secret) ]
  in
  let tbl = Ifdb_engine.Catalog.table (Db.catalog db) "r" in
  Alcotest.(check int) "two indexes" 2
    (List.length tbl.Ifdb_engine.Catalog.tbl_indexes);
  List.iter
    (fun idx ->
      Alcotest.(check (list int))
        (idx.Ifdb_engine.Catalog.idx_name ^ " segments: {} and {secret}")
        expected
        (List.sort compare
           (Hashtbl.fold
              (fun lid _ acc -> lid :: acc)
              idx.Ifdb_engine.Catalog.idx_segs [])))
    tbl.Ifdb_engine.Catalog.tbl_indexes

(* A reader's confinement verdict is cached per table, and vacuum
   emptying the table's only hidden partition must retire it.  While
   the hidden rows are stored (deleted or not, until vacuum reclaims
   them) the reader's scan is vacuous and prunes one partition; once
   they are vacuumed the table is empty, so there is no warning and
   nothing left to prune. *)
let test_vacuum_retires_verdict () =
  let db = Db.create () in
  let admin = Db.connect_admin db in
  let owner = Db.create_principal admin ~name:"owner" in
  let os = Db.connect db ~principal:owner in
  let tag = Db.create_tag os ~name:"secret" () in
  ignore (Db.exec admin "CREATE TABLE r (id INT PRIMARY KEY, v INT)");
  let hs = Db.connect db ~principal:owner in
  Db.add_secrecy hs tag;
  ignore (Db.exec hs "INSERT INTO r VALUES (1, 10), (2, 20)");
  let low = Db.connect db ~principal:owner in
  let scan what ~vacuous ~pruned =
    let before = Db.partitions_pruned db in
    (match Db.exec low "SELECT id FROM r" with
    | Db.Rows { tuples = []; _ } -> ()
    | _ -> Alcotest.failf "%s: the low reader sees no row" what);
    Alcotest.(check bool)
      (what ^ ": vacuous-query warning")
      vacuous
      (List.exists
         (fun d -> d.Ifdb_analysis.Diag.d_code = Ifdb_analysis.Diag.Vacuous_query)
         (Db.session_warnings low));
    Alcotest.(check int) (what ^ ": partitions pruned") pruned
      (Db.partitions_pruned db - before)
  in
  scan "stored" ~vacuous:true ~pruned:1;
  scan "again, from the cached verdict" ~vacuous:true ~pruned:1;
  ignore (Db.exec hs "DELETE FROM r");
  scan "deleted, awaiting vacuum" ~vacuous:true ~pruned:1;
  Alcotest.(check int) "vacuum reclaims both rows" 2 (Db.vacuum db);
  scan "vacuumed" ~vacuous:false ~pruned:0

(* A serial aggregate runs its scan/filter source as one fused push
   pipeline, as the morsel-parallel path does: EXPLAIN ANALYZE still
   counts the tuples confinement scanned and pruned, and renders the
   same operator tree on one domain as on two. *)
let test_fused_aggregate_explain () =
  let explain ~parallelism =
    let db = Db.create ~parallelism ~morsel_size:16 () in
    let admin = Db.connect_admin db in
    let owner = Db.create_principal admin ~name:"owner" in
    let os = Db.connect db ~principal:owner in
    let ta = Db.create_tag os ~name:"ta" () in
    let tb = Db.create_tag os ~name:"tb" () in
    ignore (Db.exec admin "CREATE TABLE t (id INT PRIMARY KEY, v INT)");
    List.iteri
      (fun g tags ->
        let s = Db.connect db ~principal:owner in
        List.iter (Db.add_secrecy s) tags;
        ignore
          (Db.exec s
             ("INSERT INTO t VALUES "
             ^ String.concat ", "
                 (List.init 20 (fun i ->
                      Printf.sprintf "(%d, %d)" ((100 * g) + i) (i mod 10))))))
      [ []; [ ta ]; [ tb ] ];
    let reader = Db.connect db ~principal:owner in
    Db.add_secrecy reader ta;
    let report, result =
      Db.explain_analyze reader "SELECT v, COUNT(*) FROM t WHERE v < 5 GROUP BY v"
    in
    let groups =
      match result with
      | Db.Rows { tuples; _ } ->
          List.sort compare
            (List.map
               (fun t ->
                 ( List.map Value.to_string (Array.to_list (Tuple.values t)),
                   Label.to_string (Tuple.label t) ))
               tuples)
      | _ -> Alcotest.fail "EXPLAIN ANALYZE of a SELECT yields rows"
    in
    let starts_with p l =
      String.length l >= String.length p && String.sub l 0 (String.length p) = p
    in
    (* operator lines read "<indent><operator>  (rows=…)" *)
    let tree =
      List.filter_map
        (fun l ->
          let rec find i =
            if i + 8 > String.length l then None
            else if String.sub l i 8 = "  (rows=" then Some (String.sub l 0 i)
            else find (i + 1)
          in
          find 0)
        report
    in
    let confinement =
      List.filter (starts_with "label confinement on t:") report
    in
    (report, groups, tree, confinement)
  in
  let serial, serial_groups, serial_tree, serial_conf = explain ~parallelism:1 in
  let _, par_groups, par_tree, par_conf = explain ~parallelism:2 in
  let show r = String.concat "\n" r in
  Alcotest.(check (list string))
    ("scanned the kept partitions, pruned the other:\n" ^ show serial)
    [ "label confinement on t: scanned=40 pruned=20" ]
    serial_conf;
  Alcotest.(check (list string)) "same counts on two domains" serial_conf par_conf;
  let contains sub l =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length l && (String.sub l i n = sub || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool)
    ("scan and filter fused into the aggregate:\n" ^ show serial)
    true
    (List.exists (contains "Aggregate") serial_tree
    && not
         (List.exists
            (fun l -> contains "Scan" l || contains "Filter" l)
            serial_tree));
  Alcotest.(check (list string)) "same tree on two domains" par_tree serial_tree;
  Alcotest.(check bool) "same groups and labels" true (serial_groups = par_groups);
  Alcotest.(check int) "five groups" 5 (List.length serial_groups)

(* ------------------------------------------------------------------ *)
(* Index probes opened once per join                                   *)
(* ------------------------------------------------------------------ *)

(* A public outer table [o] (ids 1-6, key [k] = id, NULL for id 6) and
   an inner table [i] keyed by [k]: keys 1-5 public (v = 10k), keys 1-5
   under {ta} (v = 10k + 1) and keys 2-5 under {tb} (v = 10k + 2), each
   a polyinstantiation of the public row. *)
let probe_fixture ?isolation () =
  let db = Db.create ?isolation () in
  let admin = Db.connect_admin db in
  let owner = Db.create_principal admin ~name:"owner" in
  let os = Db.connect db ~principal:owner in
  let ta = Db.create_tag os ~name:"ta" () in
  let tb = Db.create_tag os ~name:"tb" () in
  ignore (Db.exec admin "CREATE TABLE o (id INT PRIMARY KEY, k INT)");
  ignore (Db.exec admin "CREATE TABLE i (k INT PRIMARY KEY, v INT)");
  ignore
    (Db.exec admin
       "INSERT INTO o VALUES (1, 1), (2, 2), (3, 3), (4, 4), (5, 5), (6, NULL)");
  List.iter
    (fun (tags, keys, off) ->
      let s = Db.connect db ~principal:owner in
      List.iter (Db.add_secrecy s) tags;
      ignore
        (Db.exec s
           ("INSERT INTO i VALUES "
           ^ String.concat ", "
               (List.map
                  (fun k -> Printf.sprintf "(%d, %d)" k ((10 * k) + off))
                  keys))))
    [ ([], [ 1; 2; 3; 4; 5 ], 0); ([ ta ], [ 1; 2; 3; 4; 5 ], 1);
      ([ tb ], [ 2; 3; 4; 5 ], 2) ];
  (db, owner, ta, tb)

let rows_of tuples =
  List.map
    (fun t -> List.map Value.to_string (Array.to_list (Tuple.values t)))
    tuples

(* EXPLAIN ANALYZE tallies an index probe join per probe: every outer
   row with a key pays its kept partitions' visible tuples into
   [scanned] and the pruned partitions' tuples into [pruned]; the NULL
   key probes nothing.  Golden lines, as the per-row probe printed them
   before the probe was opened once per join. *)
let test_probe_join_explain_golden () =
  let db, owner, ta, _ = probe_fixture () in
  let confinement sql ~tags =
    let s = Db.connect db ~principal:owner in
    List.iter (Db.add_secrecy s) tags;
    let report, _ = Db.explain_analyze s sql in
    ( String.concat "\n" report,
      List.filter
        (fun l ->
          String.length l >= 20 && String.sub l 0 20 = "label confinement on")
        report )
  in
  let check name sql ~tags want =
    let report, got = confinement sql ~tags in
    Alcotest.(check (list string)) (name ^ ":\n" ^ report) want got
  in
  check "inner join under {ta}"
    "SELECT o.id, i.v FROM o JOIN i ON o.k = i.k" ~tags:[ ta ]
    [ "label confinement on o: scanned=6 pruned=0";
      "label confinement on i: scanned=10 pruned=20" ];
  check "left join under {}"
    "SELECT o.id, i.v FROM o LEFT JOIN i ON o.k = i.k" ~tags:[]
    [ "label confinement on o: scanned=6 pruned=0";
      "label confinement on i: scanned=5 pruned=45" ]

(* A user function in the ON condition raises the session label at the
   third outer row.  Each outer row gets exactly the rows its label
   allowed when its probe ran: the first three probes ran under {}, the
   last two under {ta}.  A second function inserts a row under a label
   the inner table did not hold yet, creating a partition mid-join: the
   later probes see it. *)
let test_probe_join_redecides () =
  let db, owner, ta, tb = probe_fixture () in
  let s = Db.connect db ~principal:owner in
  Db.register_scalar db ~name:"raise_at" (fun s args ->
      (match args with
      | [ Value.Int id; _ ] when id = 3 -> Db.add_secrecy s ta
      | _ -> ());
      Value.Int 1);
  let rows =
    Db.query s
      "SELECT o.id, i.v FROM o JOIN i ON o.k = i.k AND raise_at(o.id, i.v) = 1"
  in
  Alcotest.(check (list (list string)))
    "rows as each probe's label allowed"
    [ [ "1"; "10" ]; [ "2"; "20" ]; [ "3"; "30" ]; [ "4"; "40" ]; [ "4"; "41" ];
      [ "5"; "50" ]; [ "5"; "51" ] ]
    (rows_of rows);
  Alcotest.(check bool) "the label was raised mid-join" false
    (Label.is_empty (Db.session_label s));
  (* a new partition: {ta, tb} holds nothing in [i] until the second
     outer row's condition inserts key 5 under it *)
  let s = Db.connect db ~principal:owner in
  Db.add_secrecy s ta;
  Db.add_secrecy s tb;
  let inserted = ref false in
  Db.register_scalar db ~name:"insert_at" (fun s args ->
      (match args with
      | [ Value.Int 2; _ ] when not !inserted ->
          inserted := true;
          ignore (Db.exec s "INSERT INTO i VALUES (5, 53)")
      | _ -> ());
      Value.Int 1);
  let rows =
    Db.query s
      "SELECT o.id, i.v FROM o JOIN i ON o.k = i.k AND insert_at(o.id, i.v) = 1"
  in
  Alcotest.(check (list string))
    "the last probe sees the row inserted under a new label"
    [ "50"; "51"; "52"; "53" ]
    (List.sort compare
       (List.filter_map
          (function [ "5"; v ] -> Some v | _ -> None)
          (rows_of rows)))

(* A probe join whose outer side is empty opens no probe: under
   serializable isolation it takes no lock on the inner table (a writer
   may create a partition there and write the public one) and it counts
   no pruned partition. *)
let test_probe_join_empty_outer () =
  let db, owner, ta, tb = probe_fixture ~isolation:Db.Serializable () in
  let reader = Db.connect db ~principal:owner in
  ignore (Db.exec reader "BEGIN");
  let before = Db.partitions_pruned db in
  let rows =
    Db.query reader "SELECT o.id, i.v FROM o JOIN i ON o.k = i.k WHERE o.id > 99"
  in
  Alcotest.(check int) "no rows" 0 (List.length rows);
  Alcotest.(check int) "no partition pruned" before (Db.partitions_pruned db);
  let writes what tags sql =
    let s = Db.connect db ~principal:owner in
    List.iter (Db.add_secrecy s) tags;
    match Db.exec s sql with
    | Db.Affected 1 -> ()
    | _ -> Alcotest.failf "%s: expected one affected row" what
    | exception e ->
        Alcotest.failf "%s: %s" what (Printexc.to_string e)
  in
  writes "a write to the public partition" [] "INSERT INTO i VALUES (7, 70)";
  writes "a write creating a partition" [ ta; tb ]
    "INSERT INTO i VALUES (7, 73)";
  ignore (Db.exec reader "COMMIT")

(* ------------------------------------------------------------------ *)
(* IVM deltas skip foreign partitions                                  *)
(* ------------------------------------------------------------------ *)

(* A materialized view pinned to one label partition by an exact
   [_label = {…}] filter must ignore commits that only write other
   partitions.  Correctness first: the view still reflects writes to
   its own partition. *)
let test_ivm_partition_skip () =
  let db = Db.create () in
  let admin = Db.connect_admin db in
  let owner = Db.create_principal admin ~name:"owner" in
  let os = Db.connect db ~principal:owner in
  let ta = Db.create_tag os ~name:"ta" () in
  let _tb = Db.create_tag os ~name:"tb" () in
  ignore (Db.exec admin "CREATE TABLE m (id INT PRIMARY KEY, v INT)");
  let sa = Db.connect db ~principal:owner in
  Db.add_secrecy sa ta;
  ignore (Db.exec sa "INSERT INTO m VALUES (1, 10)");
  ignore
    (Db.exec sa
       "CREATE MATERIALIZED VIEW mv AS SELECT id, v FROM m WHERE _label = \
        {ta}");
  let stat () =
    match List.filter (fun st -> st.Ifdb_engine.Ivm.vs_name = "mv")
            (Db.view_stats db) with
    | [ st ] -> st
    | _ -> Alcotest.fail "mv not registered"
  in
  Alcotest.(check bool) "delta maintenance on" true (stat ()).Ifdb_engine.Ivm.vs_supported;
  (* a commit entirely in another partition: provably irrelevant *)
  let sb = Db.connect db ~principal:owner in
  Db.add_secrecy sb _tb;
  ignore (Db.exec sb "INSERT INTO m VALUES (2, 20)");
  let st = stat () in
  Alcotest.(check bool) "foreign-partition commit skipped" true
    (st.Ifdb_engine.Ivm.vs_skipped >= 1);
  (* a commit in the pinned partition must still be applied *)
  ignore (Db.exec sa "INSERT INTO m VALUES (3, 30)");
  let reader = Db.connect db ~principal:owner in
  Db.add_secrecy reader ta;
  let rows = Db.query reader "SELECT id, v FROM mv ORDER BY id" in
  Alcotest.(check (list (list string)))
    "view reflects its own partition only"
    [ [ "1"; "10" ]; [ "3"; "30" ] ]
    (List.map
       (fun t -> List.map Value.to_string (Array.to_list (Tuple.values t)))
       rows);
  let st = stat () in
  Alcotest.(check bool) "own-partition commit applied" true
    (st.Ifdb_engine.Ivm.vs_deltas >= 1)

let suites =
  [
    ( "partition",
      [
        qcheck_model ~count:40 ~parallelism:1 "model oracle (serial)";
        qcheck_model ~count:12 ~parallelism:par_width "model oracle (parallel)";
        Alcotest.test_case "pruning observable" `Quick test_pruning_observable;
        Alcotest.test_case "index segments follow heap partitions" `Quick
          test_index_segments;
        Alcotest.test_case "vacuum retires a cached verdict" `Quick
          test_vacuum_retires_verdict;
        Alcotest.test_case "probe join EXPLAIN ANALYZE golden" `Quick
          test_probe_join_explain_golden;
        Alcotest.test_case "probe join re-decides per probe" `Quick
          test_probe_join_redecides;
        Alcotest.test_case "probe join with an empty outer side" `Quick
          test_probe_join_empty_outer;
        Alcotest.test_case "fused serial aggregate in EXPLAIN ANALYZE" `Quick
          test_fused_aggregate_explain;
        Alcotest.test_case "IVM skips foreign partitions" `Quick
          test_ivm_partition_skip;
      ] );
  ]
