(* Morsel-parallel execution: equivalence with the serial executor and
   preservation of the DIFC semantics under parallelism.

   The central property is that a database created with [parallelism:n]
   answers every query with exactly the rows (values {e and} labels) of
   a [parallelism:1] database holding the same data — confinement,
   polyinstantiation and declassifying views included, because the
   parallel scan path applies the Label Confinement Rule through the
   same access-layer filter as the serial one.

   [IFDB_TEST_PARALLELISM] overrides the domain count (CI runs the
   suite at 1 and at a multi-domain setting); [morsel_size:16] keeps
   morsel counts high enough that modest test tables genuinely cut
   into parallel work. *)

module Db = Ifdb_core.Database
module Label = Ifdb_difc.Label
module Value = Ifdb_rel.Value
module Tuple = Ifdb_rel.Tuple

let par_width =
  match Sys.getenv_opt "IFDB_TEST_PARALLELISM" with
  | Some s -> ( try max 1 (int_of_string s) with _ -> 4)
  | None -> 4

(* A row as a comparable rendering of (values, label). *)
let row_key t =
  ( List.map Value.to_string (Array.to_list (Tuple.values t)),
    Label.to_string (Tuple.label t) )

let multiset rows = List.sort compare (List.map row_key rows)
let row_list rows = List.map row_key rows

(* ------------------------------------------------------------------ *)
(* A labeled two-table fixture, buildable at any parallelism           *)
(* ------------------------------------------------------------------ *)

type fixture = {
  fx_db : Db.t;
  fx_owner_s : Db.session; (* owner of every tag, label empty *)
  fx_tags : Ifdb_difc.Tag.t array; (* 3 tags; rows tagged 0-2 or public *)
}

(* [rows1]: (k, v, tag index 0-3 where 3 = public) for table t1;
   [rows2]: (k, w) public rows for table t2. *)
let build ~parallelism (rows1, rows2) =
  let db = Db.create ~parallelism ~morsel_size:16 () in
  let admin = Db.connect_admin db in
  let owner = Db.create_principal admin ~name:"owner" in
  let os = Db.connect db ~principal:owner in
  let fx_tags =
    Array.init 3 (fun i -> Db.create_tag os ~name:(Printf.sprintf "t%d" i) ())
  in
  ignore (Db.exec admin "CREATE TABLE t1 (k INT, v INT)");
  ignore (Db.exec admin "CREATE TABLE t2 (k INT, w INT)");
  let insert_group tag_idx rows =
    if rows <> [] then begin
      let values =
        String.concat ", "
          (List.map (fun (k, v, _) -> Printf.sprintf "(%d, %d)" k v) rows)
      in
      let stmt = "INSERT INTO t1 VALUES " ^ values in
      if tag_idx < 3 then
        Db.with_label os (Label.singleton fx_tags.(tag_idx)) (fun () ->
            ignore (Db.exec os stmt))
      else ignore (Db.exec os stmt)
    end
  in
  (* one multi-row INSERT per label, in tag order: both databases insert
     in the same order, so heaps are slot-for-slot identical *)
  for tag = 0 to 3 do
    insert_group tag (List.filter (fun (_, _, t) -> t = tag) rows1)
  done;
  if rows2 <> [] then
    ignore
      (Db.exec os
         ("INSERT INTO t2 VALUES "
         ^ String.concat ", "
             (List.map (fun (k, w) -> Printf.sprintf "(%d, %d)" k w) rows2)));
  { fx_db = db; fx_owner_s = os; fx_tags }

let session_with_tags fx mask =
  let s = Db.connect fx.fx_db ~principal:(Db.session_principal fx.fx_owner_s) in
  Array.iteri
    (fun i tag -> if mask land (1 lsl i) <> 0 then Db.add_secrecy s tag)
    fx.fx_tags;
  s

(* Queries over the fixture.  [`Exact] results must match the serial
   row order (the parallel executor preserves scan order); [`Multiset]
   results may reorder groups (SQL leaves GROUP BY output order
   unspecified, and the parallel merge visits groups worker-first). *)
let queries =
  [
    (`Exact, "SELECT k, v FROM t1");
    (`Exact, "SELECT v FROM t1 WHERE v >= 50");
    (`Exact, "SELECT k + 1, v * 2 FROM t1 WHERE k < 8");
    (`Exact, "SELECT DISTINCT k FROM t1");
    (`Exact, "SELECT k FROM t1 ORDER BY v, k LIMIT 5");
    (`Multiset, "SELECT k, COUNT(*), SUM(v), MIN(v), MAX(v) FROM t1 GROUP BY k");
    (`Multiset, "SELECT COUNT(*), SUM(v), AVG(v) FROM t1");
    (`Multiset, "SELECT k, COUNT(DISTINCT v) FROM t1 GROUP BY k");
    (`Exact, "SELECT t1.v, t2.w FROM t1 JOIN t2 ON t1.k = t2.k");
    (`Exact, "SELECT t1.v, t2.w FROM t1 LEFT JOIN t2 ON t1.k = t2.k");
    (`Exact,
     "SELECT t1.v, t2.w FROM t1 JOIN t2 ON t1.k = t2.k WHERE t1.v + t2.w > 40");
  ]

let check_equivalent ~serial_s ~par_s =
  List.iter
    (fun (mode, q) ->
      let a = Db.query serial_s q and b = Db.query par_s q in
      match mode with
      | `Exact ->
          Alcotest.(check (list (pair (list string) string)))
            (q ^ " (order)") (row_list a) (row_list b)
      | `Multiset ->
          Alcotest.(check (list (pair (list string) string)))
            (q ^ " (multiset)") (multiset a) (multiset b))
    queries

(* ------------------------------------------------------------------ *)
(* Property: parallel = serial on random labeled data                  *)
(* ------------------------------------------------------------------ *)

let gen_data =
  QCheck.Gen.(
    pair
      (list_size (int_range 40 160)
         (triple (int_range 0 9) (int_range 0 99) (int_range 0 3)))
      (list_size (int_bound 40) (pair (int_range 0 9) (int_range 0 99))))

let print_data (rows1, rows2) =
  Printf.sprintf "t1=%d rows, t2=%d rows" (List.length rows1)
    (List.length rows2)

let equivalence_prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:20
       ~name:"parallel executor = serial executor (values and labels)"
       (QCheck.make ~print:print_data gen_data)
       (fun data ->
         let fx1 = build ~parallelism:1 data in
         let fxn = build ~parallelism:par_width data in
         (* one low session (only tag 0) and one high session (all tags):
            equivalence must hold at every clearance *)
         List.iter
           (fun mask ->
             check_equivalent
               ~serial_s:(session_with_tags fx1 mask)
               ~par_s:(session_with_tags fxn mask))
           [ 0b001; 0b111 ];
         true))

(* ------------------------------------------------------------------ *)
(* DIFC semantics at parallelism:n, explicitly                         *)
(* ------------------------------------------------------------------ *)

let test_parallel_confinement () =
  let rows1 =
    List.init 120 (fun i -> (i mod 10, i, 0))
    @ List.init 80 (fun i -> (i mod 10, i, 1))
    @ List.init 50 (fun i -> (i mod 10, i, 3))
  in
  let fx = build ~parallelism:par_width (rows1, []) in
  let count s = List.length (Db.query s "SELECT * FROM t1") in
  Alcotest.(check int) "empty label sees only public" 50
    (count (session_with_tags fx 0));
  Alcotest.(check int) "tag0 sees tag0 + public" 170
    (count (session_with_tags fx 0b001));
  Alcotest.(check int) "tag1 sees tag1 + public" 130
    (count (session_with_tags fx 0b010));
  Alcotest.(check int) "tag0+tag1 sees all" 250
    (count (session_with_tags fx 0b011));
  (* labels ride along unchanged *)
  let s = session_with_tags fx 0b001 in
  let tagged =
    List.filter
      (fun r -> not (Label.is_empty (Tuple.label r)))
      (Db.query s "SELECT * FROM t1")
  in
  Alcotest.(check int) "tagged rows keep their label" 120 (List.length tagged)

let test_parallel_polyinstantiation () =
  let db = Db.create ~parallelism:par_width ~morsel_size:16 () in
  let admin = Db.connect_admin db in
  let alice = Db.create_principal admin ~name:"alice" in
  let bob = Db.create_principal admin ~name:"bob" in
  let asess = Db.connect db ~principal:alice in
  let a_tag = Db.create_tag asess ~name:"alice_medical" () in
  ignore
    (Db.exec admin
       "CREATE TABLE Patients (name TEXT PRIMARY KEY, notes TEXT)");
  (* enough filler that the scan cuts into several morsels *)
  ignore
    (Db.exec admin
       ("INSERT INTO Patients VALUES "
       ^ String.concat ", "
           (List.init 60 (fun i -> Printf.sprintf "('p%03d', 'x')" i))));
  Db.add_secrecy asess a_tag;
  ignore (Db.exec asess "INSERT INTO Patients VALUES ('Alice', 'hiv')");
  (* empty-label insert of the same key: polyinstantiation admits it *)
  let bsess = Db.connect db ~principal:bob in
  (match Db.exec bsess "INSERT INTO Patients VALUES ('Alice', 'fake')" with
  | Db.Affected 1 -> ()
  | _ -> Alcotest.fail "polyinstantiating insert must succeed");
  let alice_rows s =
    List.length (Db.query s "SELECT * FROM Patients WHERE name = 'Alice'")
  in
  Alcotest.(check int) "low client sees one Alice" 1 (alice_rows bsess);
  Alcotest.(check int) "high client sees both Alices" 2 (alice_rows asess);
  Alcotest.(check int) "low client: fillers + its Alice" 61
    (List.length (Db.query bsess "SELECT * FROM Patients"))

let test_parallel_declassifying_view () =
  let db = Db.create ~parallelism:par_width ~morsel_size:16 () in
  let admin = Db.connect_admin db in
  let chair = Db.create_principal admin ~name:"chair" in
  let chair_s = Db.connect db ~principal:chair in
  let all_contacts = Db.create_tag chair_s ~name:"all_contacts" () in
  ignore
    (Db.exec admin
       "CREATE TABLE ContactInfo (contactId INT PRIMARY KEY, name TEXT, \
        isPC BOOL)");
  Db.add_secrecy chair_s all_contacts;
  ignore
    (Db.exec chair_s
       ("INSERT INTO ContactInfo VALUES "
       ^ String.concat ", "
           (List.init 64 (fun i ->
                Printf.sprintf "(%d, 'c%02d', %s)" i i
                  (if i mod 2 = 0 then "TRUE" else "FALSE")))));
  Db.declassify chair_s all_contacts;
  ignore
    (Db.exec chair_s
       "CREATE VIEW PCMembers AS SELECT name FROM ContactInfo WHERE isPC = \
        TRUE WITH DECLASSIFYING (all_contacts)");
  let user = Db.create_principal admin ~name:"user" in
  let user_s = Db.connect db ~principal:user in
  let rows = Db.query user_s "SELECT name FROM PCMembers" in
  Alcotest.(check int) "view widens to the PC half" 32 (List.length rows);
  List.iter
    (fun row ->
      Alcotest.(check bool) "declassified label" true
        (Label.is_empty (Tuple.label row)))
    rows;
  Alcotest.(check int) "base table still confined" 0
    (List.length (Db.query user_s "SELECT * FROM ContactInfo"))

let test_parallel_equals_serial_fixed () =
  (* deterministic complement to the property: a fixed dataset through
     every query shape *)
  let rows1 =
    List.init 200 (fun i -> (i mod 10, (i * 37) mod 100, i mod 4))
  in
  let rows2 = List.init 30 (fun i -> (i mod 10, i)) in
  let fx1 = build ~parallelism:1 (rows1, rows2) in
  let fxn = build ~parallelism:par_width (rows1, rows2) in
  List.iter
    (fun mask ->
      check_equivalent
        ~serial_s:(session_with_tags fx1 mask)
        ~par_s:(session_with_tags fxn mask))
    [ 0; 0b001; 0b011; 0b111 ]

(* ------------------------------------------------------------------ *)
(* Engagement: the parallel machinery genuinely runs                   *)
(* ------------------------------------------------------------------ *)

let test_pool_uses_multiple_domains () =
  let pool = Ifdb_engine.Domain_pool.get ~parallelism:4 in
  let started = Atomic.make 0 in
  let doms = Array.make 4 (-1) in
  Ifdb_engine.Domain_pool.parallel_for pool ~width:4 ~tasks:4
    (fun ~worker:_ i ->
      doms.(i) <- (Domain.self () :> int);
      Atomic.incr started;
      (* hold each task until a second one has started: completes only
         if two domains are inside the batch concurrently *)
      let spins = ref 0 in
      while Atomic.get started < 2 && !spins < 200_000_000 do
        incr spins;
        Domain.cpu_relax ()
      done);
  let distinct =
    List.sort_uniq compare (List.filter (fun d -> d >= 0) (Array.to_list doms))
  in
  Alcotest.(check bool) "tasks ran on at least two domains" true
    (List.length distinct >= 2)

let test_parallel_scan_path_engages () =
  (* a morsel-cut scan touches each page once per morsel it straddles,
     so the hit count exceeds the serial scan's once-per-page count —
     observable proof the morsel path (not the serial fallback) ran *)
  if par_width > 1 then begin
    let data = (List.init 400 (fun i -> (i mod 10, i, 3)), []) in
    let hits fx =
      let pool = Db.pool fx.fx_db in
      Ifdb_storage.Buffer_pool.reset_stats pool;
      ignore (Db.query fx.fx_owner_s "SELECT k, v FROM t1");
      (Ifdb_storage.Buffer_pool.stats pool).Ifdb_storage.Buffer_pool.hits
    in
    let serial_hits = hits (build ~parallelism:1 data) in
    let par_hits = hits (build ~parallelism:par_width data) in
    Alcotest.(check bool)
      (Printf.sprintf "morsel scan re-touches straddled pages (%d > %d)"
         par_hits serial_hits)
      true (par_hits > serial_hits)
  end

(* The parallel path is chosen by the versions a scan keeps, not by the
   table's size: at parallelism 2, an own scan of one 10-row partition
   in a 64-partition, 640-row table runs on the caller alone, while a
   fleet scan of the same table still cuts into morsels. *)
let test_own_scan_stays_serial () =
  let db = Db.create ~parallelism:2 ~morsel_size:16 () in
  let admin = Db.connect_admin db in
  let fleet = Db.create_tag admin ~name:"fleet" () in
  let tags =
    Array.init 64 (fun g ->
        Db.create_tag admin ~name:(Printf.sprintf "g%d" g) ~compounds:[ fleet ]
          ())
  in
  ignore (Db.exec admin "CREATE TABLE r (id INT PRIMARY KEY, v INT)");
  let reader tag =
    let s = Db.connect_admin db in
    Db.add_secrecy s tag;
    s
  in
  Array.iteri
    (fun g tag ->
      ignore
        (Db.exec (reader tag)
           ("INSERT INTO r VALUES "
           ^ String.concat ", "
               (List.init 10 (fun i -> Printf.sprintf "(%d, %d)" ((10 * g) + i) i))
           )))
    tags;
  let tasks () =
    List.assoc "ifdb_domain_pool_tasks_total" (Db.metrics_snapshot db)
  in
  let before = tasks () in
  Alcotest.(check int) "own scan sees its partition" 10
    (List.length (Db.query (reader tags.(5)) "SELECT id, v FROM r"));
  Alcotest.(check (float 0.)) "own scan ran no pool task" before (tasks ());
  Alcotest.(check int) "fleet scan sees every partition" 640
    (List.length (Db.query (reader fleet) "SELECT id, v FROM r"));
  Alcotest.(check bool) "fleet scan ran on the pool" true (tasks () > before)

(* ------------------------------------------------------------------ *)
(* Index-nested-loop left join: the probe runs once per outer row      *)
(* ------------------------------------------------------------------ *)

let test_probe_join_single_probe () =
  let db = Db.create ~ifc:false () in
  let s = Db.connect_admin db in
  ignore (Db.exec s "CREATE TABLE outer_t (k INT, v INT)");
  ignore (Db.exec s "CREATE TABLE inner_t (k INT PRIMARY KEY, w INT)");
  ignore
    (Db.exec s
       ("INSERT INTO outer_t VALUES "
       ^ String.concat ", " (List.init 20 (fun i -> Printf.sprintf "(%d, %d)" i i))));
  ignore
    (Db.exec s
       ("INSERT INTO inner_t VALUES "
       ^ String.concat ", "
           (List.init 20 (fun i -> Printf.sprintf "(%d, %d)" i (i * 10)))));
  let evals = ref 0 in
  Db.register_scalar db ~name:"probed" (fun _ args ->
      incr evals;
      match args with [ v ] -> v | _ -> Value.Null);
  let rows =
    Db.query s
      "SELECT outer_t.v, inner_t.w FROM outer_t LEFT JOIN inner_t ON \
       outer_t.k = inner_t.k AND probed(inner_t.w) >= 0"
  in
  Alcotest.(check int) "all outer rows matched" 20 (List.length rows);
  (* each outer row finds exactly one index candidate; the residual
     condition must be evaluated once for it, not re-evaluated by a
     second traversal of the match sequence *)
  Alcotest.(check int) "one probe per outer row" 20 !evals

let suites =
  [
    ( "parallel.equivalence",
      [
        equivalence_prop;
        Alcotest.test_case "fixed dataset, all query shapes" `Quick
          test_parallel_equals_serial_fixed;
      ] );
    ( "parallel.difc",
      [
        Alcotest.test_case "confinement at parallelism:n" `Quick
          test_parallel_confinement;
        Alcotest.test_case "polyinstantiation at parallelism:n" `Quick
          test_parallel_polyinstantiation;
        Alcotest.test_case "declassifying view at parallelism:n" `Quick
          test_parallel_declassifying_view;
      ] );
    ( "parallel.engagement",
      [
        Alcotest.test_case "pool spans domains" `Quick
          test_pool_uses_multiple_domains;
        Alcotest.test_case "morsel scan path runs" `Quick
          test_parallel_scan_path_engages;
        Alcotest.test_case "own scans of a large table stay serial" `Quick
          test_own_scan_stays_serial;
      ] );
    ( "parallel.joins",
      [
        Alcotest.test_case "probe join probes once per outer row" `Quick
          test_probe_join_single_probe;
      ] );
  ]
