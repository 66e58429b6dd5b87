(* Tests for the IFDB core: Query by Label, transactions, constraints —
   each rule in sections 4-5 of the paper as an explicit test, mostly
   using the paper's own running examples. *)

module Db = Ifdb_core.Database
module Errors = Ifdb_core.Errors
module Label = Ifdb_difc.Label
module Tag = Ifdb_difc.Tag
module Value = Ifdb_rel.Value
module Tuple = Ifdb_rel.Tuple
module Catalog = Ifdb_engine.Catalog

let ( => ) row i = Tuple.get row i
let text s = Value.Text s
let check_val = Alcotest.testable Value.pp Value.equal

let ints_of_rows rows = List.map (fun r -> Value.to_int (r => 0)) rows
let texts_of_rows rows = List.map (fun r -> Value.to_text (r => 0)) rows

(* The paper's Figure 2 medical database: three patients, each with a
   per-patient medical tag. *)
type medical = {
  db : Db.t;
  admin : Db.session;
  alice_medical : Tag.t;
  bob_medical : Tag.t;
  cathy_medical : Tag.t;
  alice : Ifdb_difc.Principal.t;
  bob : Ifdb_difc.Principal.t;
}

let medical_db ?isolation () =
  let db = Db.create ?isolation () in
  let admin = Db.connect_admin db in
  let mk_user name =
    let p = Db.create_principal admin ~name in
    p
  in
  let alice = mk_user "alice" and bob = mk_user "bob" and cathy = mk_user "cathy" in
  let tag_for owner name =
    let s = Db.connect db ~principal:owner in
    Db.create_tag s ~name ()
  in
  let alice_medical = tag_for alice "alice_medical" in
  let bob_medical = tag_for bob "bob_medical" in
  let cathy_medical = tag_for cathy "cathy_medical" in
  ignore
    (Db.exec admin
       "CREATE TABLE HIVPatients (patient_name TEXT NOT NULL, patient_dob TEXT \
        NOT NULL, notes TEXT, PRIMARY KEY (patient_name, patient_dob))");
  let seed (tag, name, dob) =
    let owner_s = Db.connect db ~principal:alice in
    (* insert with exactly the patient's label *)
    Db.add_secrecy owner_s tag;
    ignore
      (Db.exec owner_s
         (Printf.sprintf "INSERT INTO HIVPatients VALUES ('%s', '%s', 'x')" name dob))
  in
  seed (alice_medical, "Alice", "2/1/60");
  seed (bob_medical, "Bob", "6/26/78");
  seed (cathy_medical, "Cathy", "4/22/71");
  { db; admin; alice_medical; bob_medical; cathy_medical; alice; bob }

(* ------------------------------------------------------------------ *)
(* Query by Label: the Label Confinement Rule                          *)
(* ------------------------------------------------------------------ *)

let test_confinement_rule () =
  let m = medical_db () in
  (* a process with label {bob_medical} sees only Bob (paper 4.2) *)
  let s = Db.connect m.db ~principal:m.bob in
  Db.add_secrecy s m.bob_medical;
  let rows =
    Db.query s
      "SELECT patient_name FROM HIVPatients WHERE patient_name = 'Bob' AND \
       patient_dob = '6/26/78'"
  in
  Alcotest.(check (list string)) "bob sees bob" [ "Bob" ] (texts_of_rows rows);
  (* with an empty label: no tuples *)
  let s0 = Db.connect m.db ~principal:m.bob in
  Alcotest.(check int) "empty label sees nothing" 0
    (List.length (Db.query s0 "SELECT * FROM HIVPatients"));
  (* the negative query from section 4.2 leaks nothing: a process with
     {bob_medical} asking for non-cancer patients sees only tuples
     within its label *)
  let rows = Db.query s "SELECT patient_name FROM HIVPatients" in
  Alcotest.(check (list string)) "only covered tuples" [ "Bob" ] (texts_of_rows rows)

let test_confinement_multiple_tags () =
  let m = medical_db () in
  let s = Db.connect m.db ~principal:m.alice in
  Db.add_secrecy s m.alice_medical;
  Db.add_secrecy s m.bob_medical;
  let rows =
    Db.query s "SELECT patient_name FROM HIVPatients ORDER BY patient_name"
  in
  Alcotest.(check (list string)) "two patients" [ "Alice"; "Bob" ] (texts_of_rows rows)

let test_result_labels_confined () =
  let m = medical_db () in
  let s = Db.connect m.db ~principal:m.alice in
  Db.add_secrecy s m.alice_medical;
  List.iter
    (fun row ->
      Alcotest.(check bool) "row label within process label" true
        (Label.subset (Tuple.label row) (Db.session_label s)))
    (Db.query s "SELECT * FROM HIVPatients")

(* ------------------------------------------------------------------ *)
(* Write Rule                                                          *)
(* ------------------------------------------------------------------ *)

let test_insert_gets_process_label () =
  let m = medical_db () in
  let s = Db.connect m.db ~principal:m.alice in
  Db.add_secrecy s m.alice_medical;
  ignore (Db.exec s "INSERT INTO HIVPatients VALUES ('Dan', '8/12/69', 'y')");
  let row =
    Db.query_one s "SELECT * FROM HIVPatients WHERE patient_name = 'Dan'"
  in
  Alcotest.(check bool) "tuple labeled exactly Lp" true
    (Label.equal (Tuple.label row) (Label.singleton m.alice_medical))

let test_write_rule_update_lower_fails () =
  let m = medical_db () in
  let s = Db.connect m.db ~principal:m.alice in
  (* put a public tuple in *)
  ignore (Db.exec s "INSERT INTO HIVPatients VALUES ('Pub', '1/1/70', 'p')");
  Db.add_secrecy s m.alice_medical;
  (* the public tuple is visible but not writable: exact label required *)
  (match
     Db.exec s "UPDATE HIVPatients SET notes = 'z' WHERE patient_name = 'Pub'"
   with
  | exception Errors.Flow_violation _ -> ()
  | _ -> Alcotest.fail "updating a lower-labeled tuple must fail");
  match
    Db.exec s "DELETE FROM HIVPatients WHERE patient_name = 'Pub'"
  with
  | exception Errors.Flow_violation _ -> ()
  | _ -> Alcotest.fail "deleting a lower-labeled tuple must fail"

let test_write_rule_exact_label_ok () =
  let m = medical_db () in
  let s = Db.connect m.db ~principal:m.alice in
  Db.add_secrecy s m.alice_medical;
  (match
     Db.exec s "UPDATE HIVPatients SET notes = 'updated' WHERE patient_name = 'Alice'"
   with
  | Db.Affected 1 -> ()
  | _ -> Alcotest.fail "exact-label update should succeed");
  let row = Db.query_one s "SELECT notes FROM HIVPatients WHERE patient_name = 'Alice'" in
  Alcotest.check check_val "updated" (text "updated") (row => 0);
  (* higher-labeled tuples are invisible: update affects 0 rows, no error *)
  match Db.exec s "UPDATE HIVPatients SET notes = 'q' WHERE patient_name = 'Bob'" with
  | Db.Affected 0 -> ()
  | _ -> Alcotest.fail "invisible tuples are unaffected"

(* ------------------------------------------------------------------ *)
(* _label queries                                                      *)
(* ------------------------------------------------------------------ *)

let test_label_column_queries () =
  let m = medical_db () in
  let s = Db.connect m.db ~principal:m.alice in
  Db.add_secrecy s m.alice_medical;
  Db.add_secrecy s m.bob_medical;
  (* exact-label filter (section 4.2): only Alice's record *)
  let rows =
    Db.query s "SELECT patient_name FROM HIVPatients WHERE _label = {alice_medical}"
  in
  Alcotest.(check (list string)) "exact label" [ "Alice" ] (texts_of_rows rows);
  let rows = Db.query s "SELECT patient_name, _label FROM HIVPatients WHERE _label = {}" in
  Alcotest.(check int) "no public rows" 0 (List.length rows)

(* ------------------------------------------------------------------ *)
(* Declassification and authority                                      *)
(* ------------------------------------------------------------------ *)

let test_declassify_requires_authority () =
  let m = medical_db () in
  let s = Db.connect m.db ~principal:m.bob in
  Db.add_secrecy s m.alice_medical;
  (match Db.declassify s m.alice_medical with
  | exception Errors.Authority_required _ -> ()
  | exception Ifdb_difc.Authority.Denied _ -> ()
  | () -> Alcotest.fail "bob cannot declassify alice's tag");
  (* alice delegates to her doctor bob; now he can *)
  let alice_s = Db.connect m.db ~principal:m.alice in
  Db.delegate alice_s ~tag:m.alice_medical ~grantee:m.bob;
  Db.declassify s m.alice_medical;
  Alcotest.(check bool) "label clean" true (Label.is_empty (Db.session_label s))

let test_perform_addsecrecy_declassify () =
  let m = medical_db () in
  let s = Db.connect m.db ~principal:m.alice in
  ignore (Db.exec s "PERFORM addsecrecy(alice_medical)");
  Alcotest.(check bool) "label raised" true
    (Label.mem m.alice_medical (Db.session_label s));
  ignore (Db.exec s "PERFORM declassify(alice_medical)");
  Alcotest.(check bool) "label lowered" true (Label.is_empty (Db.session_label s))

let test_authority_state_requires_empty_label () =
  let m = medical_db () in
  let s = Db.connect m.db ~principal:m.alice in
  Db.add_secrecy s m.alice_medical;
  (match Db.create_tag s ~name:"t2" () with
  | exception Errors.Flow_violation _ -> ()
  | exception Ifdb_difc.Authority.Not_public _ -> ()
  | _ -> Alcotest.fail "contaminated process cannot mutate authority state");
  match Db.delegate s ~tag:m.alice_medical ~grantee:m.bob with
  | exception Errors.Flow_violation _ -> ()
  | exception Ifdb_difc.Authority.Not_public _ -> ()
  | _ -> Alcotest.fail "contaminated delegate must fail"

let test_with_reduced_authority () =
  let m = medical_db () in
  let s = Db.connect m.db ~principal:m.alice in
  Db.add_secrecy s m.alice_medical;
  Db.with_reduced_authority s (fun () ->
      match Db.declassify s m.alice_medical with
      | exception Errors.Authority_required _ -> ()
      | exception Ifdb_difc.Authority.Denied _ -> ()
      | () -> Alcotest.fail "reduced authority cannot declassify");
  (* back to alice: now it works *)
  Db.declassify s m.alice_medical

(* ------------------------------------------------------------------ *)
(* Compound tags in queries                                            *)
(* ------------------------------------------------------------------ *)

let test_compound_tag_statistics () =
  let db = Db.create () in
  let admin = Db.connect_admin db in
  let sys = Db.create_principal admin ~name:"system" in
  let sys_s = Db.connect db ~principal:sys in
  let all_medical = Db.create_tag sys_s ~name:"all_medical" () in
  let alice = Db.create_principal admin ~name:"alice" in
  let alice_s = Db.connect db ~principal:alice in
  let alice_tag = Db.create_tag alice_s ~name:"alice_m" ~compounds:[ all_medical ] () in
  let bob = Db.create_principal admin ~name:"bob" in
  let bob_s = Db.connect db ~principal:bob in
  let bob_tag = Db.create_tag bob_s ~name:"bob_m" ~compounds:[ all_medical ] () in
  ignore (Db.exec admin "CREATE TABLE Visits (patient TEXT NOT NULL, cost INT NOT NULL)");
  Db.add_secrecy alice_s alice_tag;
  ignore (Db.exec alice_s "INSERT INTO Visits VALUES ('Alice', 100)");
  Db.add_secrecy bob_s bob_tag;
  ignore (Db.exec bob_s "INSERT INTO Visits VALUES ('Bob', 300)");
  (* a statistics job carrying just {all_medical} reads everything *)
  let stats = Db.connect db ~principal:sys in
  Db.add_secrecy stats all_medical;
  let row = Db.query_one stats "SELECT SUM(cost), COUNT(*) FROM Visits" in
  Alcotest.check check_val "sum over all patients" (Value.Int 400) (row => 0);
  Alcotest.check check_val "count" (Value.Int 2) (row => 1)

(* ------------------------------------------------------------------ *)
(* Declassifying views (section 4.3, HotCRP's PCMembers)               *)
(* ------------------------------------------------------------------ *)

let test_declassifying_view () =
  let db = Db.create () in
  let admin = Db.connect_admin db in
  let chair = Db.create_principal admin ~name:"chair" in
  let chair_s = Db.connect db ~principal:chair in
  let all_contacts = Db.create_tag chair_s ~name:"all_contacts" () in
  ignore
    (Db.exec admin
       "CREATE TABLE ContactInfo (contactId INT PRIMARY KEY, firstName TEXT, \
        lastName TEXT, email TEXT, isPC BOOL)");
  (* each contact is sensitive *)
  Db.add_secrecy chair_s all_contacts;
  ignore
    (Db.exec chair_s
       "INSERT INTO ContactInfo VALUES (1, 'Ada', 'Lovelace', 'ada@x', TRUE), \
        (2, 'Bob', 'Karp', 'bob@x', FALSE)");
  Db.declassify chair_s all_contacts;
  (* the chair defines the declassifying view *)
  ignore
    (Db.exec chair_s
       "CREATE VIEW PCMembers AS SELECT firstName, lastName FROM ContactInfo \
        WHERE isPC = TRUE WITH DECLASSIFYING (all_contacts)");
  (* an uncontaminated stranger can read the view … *)
  let user = Db.create_principal admin ~name:"user" in
  let user_s = Db.connect db ~principal:user in
  let rows = Db.query user_s "SELECT firstName FROM PCMembers" in
  Alcotest.(check (list string)) "sees PC members" [ "Ada" ] (texts_of_rows rows);
  (* … with public result labels … *)
  List.iter
    (fun row ->
      Alcotest.(check bool) "declassified label" true
        (Label.is_empty (Tuple.label row)))
    rows;
  (* … but not the base table *)
  Alcotest.(check int) "base table hidden" 0
    (List.length (Db.query user_s "SELECT * FROM ContactInfo"))

let test_declassifying_view_requires_authority () =
  let db = Db.create () in
  let admin = Db.connect_admin db in
  let owner = Db.create_principal admin ~name:"owner" in
  let owner_s = Db.connect db ~principal:owner in
  ignore (Db.create_tag owner_s ~name:"secret" ());
  ignore (Db.exec admin "CREATE TABLE T (a INT PRIMARY KEY)");
  let mallory = Db.create_principal admin ~name:"mallory" in
  let mallory_s = Db.connect db ~principal:mallory in
  match
    Db.exec mallory_s "CREATE VIEW V AS SELECT a FROM T WITH DECLASSIFYING (secret)"
  with
  | exception Errors.Authority_required _ -> ()
  | _ -> Alcotest.fail "creating a declassifying view requires the authority"

let test_plain_view_no_declassification () =
  let m = medical_db () in
  ignore
    (Db.exec m.admin "CREATE VIEW Names AS SELECT patient_name FROM HIVPatients");
  let s = Db.connect m.db ~principal:m.bob in
  Alcotest.(check int) "plain view still confined" 0
    (List.length (Db.query s "SELECT * FROM Names"));
  Db.add_secrecy s m.bob_medical;
  Alcotest.(check (list string)) "bob via view" [ "Bob" ]
    (texts_of_rows (Db.query s "SELECT * FROM Names"))

(* Data independence (section 4.4): an outer join view yields NULLs for
   the fields the process may not see. *)
let test_outer_join_nulls_for_sensitive () =
  let db = Db.create () in
  let admin = Db.connect_admin db in
  let u = Db.create_principal admin ~name:"u" in
  let us = Db.connect db ~principal:u in
  let pay_tag = Db.create_tag us ~name:"u_payment" () in
  let contact_tag = Db.create_tag us ~name:"u_contact" () in
  ignore (Db.exec admin "CREATE TABLE Payment (uid INT PRIMARY KEY, card TEXT)");
  ignore (Db.exec admin "CREATE TABLE Contact (uid INT PRIMARY KEY, email TEXT)");
  Db.add_secrecy us pay_tag;
  ignore (Db.exec us "INSERT INTO Payment VALUES (1, 'visa-1234')");
  Db.declassify us pay_tag;
  Db.add_secrecy us contact_tag;
  ignore (Db.exec us "INSERT INTO Contact VALUES (1, 'u@example.org')");
  Db.declassify us contact_tag;
  (* a process holding only the payment tag *)
  Db.add_secrecy us pay_tag;
  let row =
    Db.query_one us
      "SELECT p.uid, p.card, c.email FROM Payment p LEFT JOIN Contact c ON \
       c.uid = p.uid"
  in
  Alcotest.check check_val "card visible" (text "visa-1234") (row => 1);
  Alcotest.check check_val "email NULLed out" Value.Null (row => 2)

(* ------------------------------------------------------------------ *)
(* Transactions (section 5.1)                                          *)
(* ------------------------------------------------------------------ *)

(* The paper's leak: write "Alice has HIV" publicly, raise the label,
   peek at Alice's record, commit iff she is in the table.  The commit
   label rule must refuse the commit. *)
let test_commit_label_rule_blocks_leak () =
  let m = medical_db () in
  ignore (Db.exec m.admin "CREATE TABLE Foo (msg TEXT NOT NULL)");
  let s = Db.connect m.db ~principal:m.bob in
  ignore (Db.exec s "BEGIN");
  ignore (Db.exec s "INSERT INTO Foo VALUES ('Alice has HIV')");
  Db.add_secrecy s m.alice_medical;
  (* bob could now decide to commit or abort based on what he reads *)
  (match Db.exec s "COMMIT" with
  | exception Errors.Flow_violation _ -> ()
  | _ -> Alcotest.fail "commit with raised label over public write must fail");
  (* the transaction aborted: nothing was leaked *)
  let s2 = Db.connect m.db ~principal:m.bob in
  Alcotest.(check int) "no leak" 0 (List.length (Db.query s2 "SELECT * FROM Foo"))

let test_commit_label_rule_declassify_allows () =
  let m = medical_db () in
  ignore (Db.exec m.admin "CREATE TABLE Foo2 (msg TEXT NOT NULL)");
  let s = Db.connect m.db ~principal:m.alice in
  ignore (Db.exec s "BEGIN");
  ignore (Db.exec s "INSERT INTO Foo2 VALUES ('x')");
  Db.add_secrecy s m.alice_medical;
  ignore (Db.query s "SELECT * FROM HIVPatients");
  (* alice owns the tag: she may declassify and then commit *)
  Db.declassify s m.alice_medical;
  (match Db.exec s "COMMIT" with
  | Db.Done _ -> ()
  | _ -> Alcotest.fail "commit after declassify should work");
  Alcotest.(check int) "committed" 1 (List.length (Db.query s "SELECT * FROM Foo2"))

let test_mixed_label_transaction () =
  (* label changes mid-transaction: contact info and password with
     different labels in one transaction (the motivating example) *)
  let db = Db.create () in
  let admin = Db.connect_admin db in
  let u = Db.create_principal admin ~name:"u" in
  let us = Db.connect db ~principal:u in
  let t_contact = Db.create_tag us ~name:"c" () in
  let t_pass = Db.create_tag us ~name:"p" () in
  ignore (Db.exec admin "CREATE TABLE Contacts (uid INT, email TEXT)");
  ignore (Db.exec admin "CREATE TABLE Passwords (uid INT, hash TEXT)");
  ignore (Db.exec us "BEGIN");
  Db.add_secrecy us t_contact;
  ignore (Db.exec us "INSERT INTO Contacts VALUES (1, 'u@x')");
  Db.declassify us t_contact;
  Db.add_secrecy us t_pass;
  ignore (Db.exec us "INSERT INTO Passwords VALUES (1, 'h4sh')");
  Db.declassify us t_pass;
  ignore (Db.exec us "COMMIT");
  Db.add_secrecy us t_contact;
  Alcotest.(check int) "contact" 1 (List.length (Db.query us "SELECT * FROM Contacts"))

let test_clearance_rule_serializable () =
  let m = medical_db ~isolation:Db.Serializable () in
  let s = Db.connect m.db ~principal:m.bob in
  ignore (Db.exec s "BEGIN");
  (* bob has no authority for alice_medical: raising in a serializable
     transaction violates the clearance rule *)
  (match Db.add_secrecy s m.alice_medical with
  | exception Errors.Authority_required _ -> ()
  | () -> Alcotest.fail "clearance rule should refuse the raise");
  (* his own tag is fine *)
  Db.add_secrecy s m.bob_medical;
  ignore (Db.exec s "ROLLBACK");
  (* outside a transaction the raise is allowed *)
  Db.add_secrecy s m.alice_medical

let test_snapshot_mode_no_clearance () =
  let m = medical_db ~isolation:Db.Snapshot () in
  let s = Db.connect m.db ~principal:m.bob in
  ignore (Db.exec s "BEGIN");
  Db.add_secrecy s m.alice_medical; (* fine under SI *)
  ignore (Db.exec s "ROLLBACK")

(* Write skew: the textbook SI anomaly.  Two on-call doctors each
   verify the other is still on call and then sign off.  Snapshot
   isolation lets both commit (the anomaly); Serializable mode's
   table locking makes one fail. *)
let write_skew_scenario iso =
  let db = Db.create ~isolation:iso () in
  let admin = Db.connect_admin db in
  ignore (Db.exec admin "CREATE TABLE oncall (doc TEXT PRIMARY KEY, active INT)");
  ignore (Db.exec admin "INSERT INTO oncall VALUES ('a', 1), ('b', 1)");
  let s1 = Db.connect_admin db in
  let s2 = Db.connect_admin db in
  let outcome = ref `Both_committed in
  (try
     ignore (Db.exec s1 "BEGIN");
     ignore (Db.exec s2 "BEGIN");
     ignore (Db.query s1 "SELECT * FROM oncall WHERE active = 1");
     ignore (Db.query s2 "SELECT * FROM oncall WHERE active = 1");
     ignore (Db.exec s1 "UPDATE oncall SET active = 0 WHERE doc = 'a'");
     ignore (Db.exec s2 "UPDATE oncall SET active = 0 WHERE doc = 'b'");
     ignore (Db.exec s1 "COMMIT");
     ignore (Db.exec s2 "COMMIT")
   with Ifdb_txn.Manager.Serialization_failure _ -> outcome := `One_failed);
  let reader = Db.connect_admin db in
  let active =
    Value.to_int
      (Tuple.get
         (Db.query_one reader "SELECT COUNT(*) FROM oncall WHERE active = 1")
         0)
  in
  (!outcome, active)

let test_write_skew_under_si () =
  (* snapshot isolation exhibits the anomaly: both commit and nobody is
     left on call — exactly why the paper needs no clearance rule under
     SI but does under serializability *)
  let outcome, active = write_skew_scenario Db.Snapshot in
  Alcotest.(check bool) "both committed" true (outcome = `Both_committed);
  Alcotest.(check int) "anomaly: nobody on call" 0 active

let test_write_skew_prevented_serializable () =
  let outcome, active = write_skew_scenario Db.Serializable in
  Alcotest.(check bool) "one transaction failed" true (outcome = `One_failed);
  Alcotest.(check bool) "someone still on call" true (active >= 1)

let test_serializable_locks_released () =
  let db = Db.create ~isolation:Db.Serializable () in
  let admin = Db.connect_admin db in
  ignore (Db.exec admin "CREATE TABLE t (a INT)");
  let s1 = Db.connect_admin db in
  ignore (Db.exec s1 "BEGIN");
  ignore (Db.exec s1 "INSERT INTO t VALUES (1)");
  ignore (Db.exec s1 "COMMIT");
  (* after commit the lock is gone: another txn proceeds freely *)
  let s2 = Db.connect_admin db in
  ignore (Db.exec s2 "BEGIN");
  ignore (Db.exec s2 "INSERT INTO t VALUES (2)");
  ignore (Db.exec s2 "COMMIT");
  Alcotest.(check int) "both rows" 2 (List.length (Db.query s2 "SELECT * FROM t"))

(* Serializable locks are per label partition plus one partition
   directory per table.  A reader's open transaction has scanned [t]
   with rows under {} and {ta}; its empty label keeps the {} partition
   and prunes {ta}.  Writers then conflict exactly with what that scan
   could have observed. *)
let test_serializable_partition_locks () =
  let db = Db.create ~isolation:Db.Serializable () in
  let admin = Db.connect_admin db in
  let owner = Db.create_principal admin ~name:"owner" in
  let os = Db.connect db ~principal:owner in
  let ta = Db.create_tag os ~name:"ta" () in
  let tb = Db.create_tag os ~name:"tb" () in
  let session tags =
    let s = Db.connect db ~principal:owner in
    List.iter (Db.add_secrecy s) tags;
    s
  in
  ignore (Db.exec admin "CREATE TABLE t (id INT PRIMARY KEY)");
  ignore (Db.exec admin "INSERT INTO t VALUES (1)");
  ignore (Db.exec (session [ ta ]) "INSERT INTO t VALUES (2)");
  let reader = session [] in
  ignore (Db.exec reader "BEGIN");
  Alcotest.(check int) "the reader sees the public row" 1
    (List.length (Db.query reader "SELECT * FROM t"));
  let conflicts what s sql =
    let got =
      match Db.exec s sql with
      | exception Ifdb_txn.Manager.Serialization_failure _ -> true
      | _ -> false
    in
    Alcotest.(check bool) what true got
  in
  let proceeds what s sql =
    match Db.exec s sql with
    | Db.Affected 1 -> ()
    | _ -> Alcotest.failf "%s: expected one affected row" what
    | exception e ->
        Alcotest.failf "%s: unexpected %s" what (Printexc.to_string e)
  in
  conflicts "(a) an insert into the read partition" (session [])
    "INSERT INTO t VALUES (3)";
  proceeds "(b) an insert into the pruned partition" (session [ ta ])
    "INSERT INTO t VALUES (4)";
  conflicts "(c) an insert creating a partition locks the directory"
    (session [ tb ]) "INSERT INTO t VALUES (5)";
  conflicts "(d) deleting a row the reader saw" (session [])
    "DELETE FROM t WHERE id = 1";
  proceeds "(e) deleting a row of the pruned partition" (session [ ta ])
    "DELETE FROM t WHERE id = 2";
  ignore (Db.exec reader "COMMIT")

let test_rollback_undoes () =
  let m = medical_db () in
  let s = Db.connect m.db ~principal:m.alice in
  ignore (Db.exec s "BEGIN");
  ignore (Db.exec s "INSERT INTO HIVPatients VALUES ('Temp', '1/1/99', 't')");
  ignore (Db.exec s "ROLLBACK");
  Alcotest.(check int) "rolled back" 0
    (List.length (Db.query s "SELECT * FROM HIVPatients WHERE patient_name = 'Temp'"))

(* ------------------------------------------------------------------ *)
(* Uniqueness and polyinstantiation (section 5.2.1)                    *)
(* ------------------------------------------------------------------ *)

let test_polyinstantiation_paper_example () =
  let m = medical_db () in
  (* 1: Dan not present: insert succeeds with any label *)
  let s = Db.connect m.db ~principal:m.alice in
  Db.add_secrecy s m.alice_medical;
  ignore (Db.exec s "INSERT INTO HIVPatients VALUES ('Dan', '8/12/69', 'd')");
  (* 2: visible conflict: fails, revealing nothing new *)
  (match Db.exec s "INSERT INTO HIVPatients VALUES ('Alice', '2/1/60', 'dup')" with
  | exception Errors.Constraint_violation _ -> ()
  | _ -> Alcotest.fail "visible duplicate must fail");
  (* 3: the problematic insert: empty-label process inserts a key that
     exists only under a higher label — polyinstantiation admits it *)
  let s0 = Db.connect m.db ~principal:m.bob in
  (match Db.exec s0 "INSERT INTO HIVPatients VALUES ('Alice', '2/1/60', 'fake')" with
  | Db.Affected 1 -> ()
  | _ -> Alcotest.fail "polyinstantiating insert must succeed");
  (* the empty-label client sees one Alice; a high-label client sees the
     conflict exposed (two Alices, distinguished by label) *)
  Alcotest.(check int) "low client sees one" 1
    (List.length (Db.query s0 "SELECT * FROM HIVPatients WHERE patient_name = 'Alice'"));
  let high = Db.connect m.db ~principal:m.alice in
  Db.add_secrecy high m.alice_medical;
  Alcotest.(check int) "high client sees both" 2
    (List.length (Db.query high "SELECT * FROM HIVPatients WHERE patient_name = 'Alice'"));
  (* exact-label query hides the mistake (section 5.2.1) *)
  Alcotest.(check int) "exact-label filter" 1
    (List.length
       (Db.query high
          "SELECT * FROM HIVPatients WHERE patient_name = 'Alice' AND _label = \
           {alice_medical}"))

let test_label_constraint_prevents_polyinstantiation () =
  let m = medical_db () in
  (* require: any tuple for Alice must carry exactly {alice_medical} *)
  let required = Label.singleton m.alice_medical in
  Db.add_label_constraint m.db ~name:"alice_label" ~table:"HIVPatients"
    (fun tuple ->
      if Value.equal (Tuple.get tuple 0) (text "Alice") then
        Some (Catalog.Exactly required)
      else None);
  let s0 = Db.connect m.db ~principal:m.bob in
  match Db.exec s0 "INSERT INTO HIVPatients VALUES ('Alice', '2/1/60', 'fake')" with
  | exception Errors.Constraint_violation _ -> ()
  | _ -> Alcotest.fail "label constraint must block the mislabeled insert"

let test_label_constraint_superset () =
  let m = medical_db () in
  Db.add_label_constraint m.db ~name:"min_label" ~table:"HIVPatients" (fun _ ->
      Some (Catalog.Superset (Label.singleton m.cathy_medical)));
  let s = Db.connect m.db ~principal:m.alice in
  Db.add_secrecy s m.alice_medical;
  (match Db.exec s "INSERT INTO HIVPatients VALUES ('E', '1/1/01', 'e')" with
  | exception Errors.Constraint_violation _ -> ()
  | _ -> Alcotest.fail "superset constraint must reject");
  Db.add_secrecy s m.cathy_medical;
  match Db.exec s "INSERT INTO HIVPatients VALUES ('E', '1/1/01', 'e')" with
  | Db.Affected 1 -> ()
  | _ -> Alcotest.fail "superset satisfied"

(* ------------------------------------------------------------------ *)
(* Foreign keys (section 5.2.2)                                        *)
(* ------------------------------------------------------------------ *)

type fk_env = {
  fdb : Db.t;
  fadmin : Db.session;
  owner : Ifdb_difc.Principal.t;
  probe : Ifdb_difc.Principal.t;
  alice_tag : Tag.t;
}

let fk_db () =
  let fdb = Db.create () in
  let fadmin = Db.connect_admin fdb in
  let owner = Db.create_principal fadmin ~name:"owner" in
  let probe = Db.create_principal fadmin ~name:"probe" in
  let owner_s = Db.connect fdb ~principal:owner in
  let alice_tag = Db.create_tag owner_s ~name:"alice_hiv" () in
  ignore
    (Db.exec fadmin "CREATE TABLE HIVPatients2 (pname TEXT PRIMARY KEY)");
  ignore
    (Db.exec fadmin
       "CREATE TABLE HIVRecords (rid INT PRIMARY KEY, pname TEXT, FOREIGN KEY \
        (pname) REFERENCES HIVPatients2 (pname))");
  Db.add_secrecy owner_s alice_tag;
  ignore (Db.exec owner_s "INSERT INTO HIVPatients2 VALUES ('Alice')");
  Db.declassify owner_s alice_tag;
  { fdb; fadmin; owner; probe; alice_tag }

let test_fk_probing_attack_blocked () =
  let f = fk_db () in
  (* the attack: an empty-label process learns whether Alice is an HIV
     patient by attempting a referencing insert *)
  let s = Db.connect f.fdb ~principal:f.probe in
  match Db.exec s "INSERT INTO HIVRecords VALUES (1, 'Alice')" with
  | exception Errors.Authority_required _ -> ()
  | _ -> Alcotest.fail "FK rule must require DECLASSIFYING for the label gap"

let test_fk_missing_target_fails () =
  let f = fk_db () in
  let s = Db.connect f.fdb ~principal:f.probe in
  match Db.exec s "INSERT INTO HIVRecords VALUES (1, 'Nobody')" with
  | exception Errors.Constraint_violation _ -> ()
  | _ -> Alcotest.fail "missing referenced row must fail"

let test_fk_declassifying_clause () =
  let f = fk_db () in
  let s = Db.connect f.fdb ~principal:f.owner in
  (* the owner has authority and says so explicitly *)
  (match
     Db.exec s "INSERT INTO HIVRecords VALUES (1, 'Alice') DECLASSIFYING (alice_hiv)"
   with
  | Db.Affected 1 -> ()
  | _ -> Alcotest.fail "owner with DECLASSIFYING clause must succeed");
  (* without authority, the clause itself is refused *)
  let s2 = Db.connect f.fdb ~principal:f.probe in
  match
    Db.exec s2 "INSERT INTO HIVRecords VALUES (2, 'Alice') DECLASSIFYING (alice_hiv)"
  with
  | exception Errors.Authority_required _ -> ()
  | _ -> Alcotest.fail "clause without authority must fail"

let test_fk_same_label_no_clause_needed () =
  let f = fk_db () in
  let s = Db.connect f.fdb ~principal:f.owner in
  Db.add_secrecy s f.alice_tag;
  (* both sides labeled {alice_hiv}: symmetric difference is empty *)
  match Db.exec s "INSERT INTO HIVRecords VALUES (3, 'Alice')" with
  | Db.Affected 1 -> ()
  | _ -> Alcotest.fail "equal labels need no DECLASSIFYING"

let test_fk_delete_restricted () =
  let f = fk_db () in
  let s = Db.connect f.fdb ~principal:f.owner in
  ignore
    (Db.exec s "INSERT INTO HIVRecords VALUES (1, 'Alice') DECLASSIFYING (alice_hiv)");
  Db.add_secrecy s f.alice_tag;
  (match Db.exec s "DELETE FROM HIVPatients2 WHERE pname = 'Alice'" with
  | exception Errors.Constraint_violation _ -> ()
  | _ -> Alcotest.fail "delete of referenced tuple must be restricted");
  (* removing the referencing row unblocks the delete *)
  Db.declassify s f.alice_tag;
  ignore (Db.exec s "DELETE FROM HIVRecords WHERE rid = 1");
  Db.add_secrecy s f.alice_tag;
  match Db.exec s "DELETE FROM HIVPatients2 WHERE pname = 'Alice'" with
  | Db.Affected 1 -> ()
  | _ -> Alcotest.fail "unreferenced delete should pass"

(* ------------------------------------------------------------------ *)
(* Triggers (section 5.2.3)                                            *)
(* ------------------------------------------------------------------ *)

let test_ordinary_trigger_runs_as_caller () =
  let db = Db.create () in
  let admin = Db.connect_admin db in
  ignore (Db.exec admin "CREATE TABLE T (a INT)");
  ignore (Db.exec admin "CREATE TABLE Audit (a INT)");
  Db.create_trigger admin ~name:"audit" ~table:"T" ~kinds:[ `Insert ]
    (fun s ev ->
      match ev.Db.ev_new with
      | Some row ->
          ignore
            (Db.exec s
               (Printf.sprintf "INSERT INTO Audit VALUES (%d)"
                  (Value.to_int (Tuple.get row 0))))
      | None -> ());
  let u = Db.create_principal admin ~name:"u" in
  let us = Db.connect db ~principal:u in
  let tag = Db.create_tag us ~name:"t" () in
  Db.add_secrecy us tag;
  ignore (Db.exec us "INSERT INTO T VALUES (7)");
  (* the audit row was written with the caller's contamination *)
  let row = Db.query_one us "SELECT a, _label FROM Audit" in
  Alcotest.check check_val "audited" (Value.Int 7) (row => 0);
  Alcotest.(check bool) "audit row carries caller label" true
    (Label.equal (Tuple.label row) (Label.singleton tag));
  (* an uncontaminated reader cannot see the audit row *)
  let clean = Db.connect db ~principal:u in
  Alcotest.(check int) "confined" 0 (List.length (Db.query clean "SELECT * FROM Audit"))

let test_authority_closure_trigger () =
  (* the CarTel driveupdate pattern: the trigger reads high-labeled
     data under its closure authority and writes lower-labeled rows,
     without contaminating the inserting process *)
  let db = Db.create () in
  let admin = Db.connect_admin db in
  let sys = Db.create_principal admin ~name:"sys" in
  let sys_s = Db.connect db ~principal:sys in
  let loc_tag = Db.create_tag sys_s ~name:"alice_location" () in
  let drv_tag = Db.create_tag sys_s ~name:"alice_drives" () in
  ignore (Db.exec admin "CREATE TABLE Locations (lat INT, lng INT)");
  ignore (Db.exec admin "CREATE TABLE Drives (dist INT)");
  let closure =
    Db.closure_principal sys_s ~name:"driveupdate" ~tags:[ loc_tag ]
  in
  Db.create_trigger admin ~name:"driveupdate" ~table:"Locations"
    ~kinds:[ `Insert ] ~timing:`Deferred ~authority:closure
    (fun s _ev ->
      (* runs with the query label {drv,loc}; writes Drives at {drv}
         by declassifying loc under the closure's authority *)
      Db.declassify s loc_tag;
      ignore (Db.exec s "INSERT INTO Drives VALUES (42)"));
  let writer = Db.connect db ~principal:sys in
  ignore (Db.exec writer "BEGIN");
  Db.add_secrecy writer drv_tag;
  Db.add_secrecy writer loc_tag;
  ignore (Db.exec writer "INSERT INTO Locations VALUES (1, 2)");
  (* the trusted ingester declassifies the location tag before commit,
     so the commit label is within the trigger's Drives write (the
     commit-label rule applies to the whole write set) *)
  Db.declassify writer loc_tag;
  ignore (Db.exec writer "COMMIT");
  (* reader with only the drives tag can see the derived drive but not
     raw locations *)
  let reader = Db.connect db ~principal:sys in
  Db.add_secrecy reader drv_tag;
  Alcotest.(check int) "drive visible" 1
    (List.length (Db.query reader "SELECT * FROM Drives"));
  Alcotest.(check int) "raw locations hidden" 0
    (List.length (Db.query reader "SELECT * FROM Locations"))

let test_deferred_trigger_uses_query_label () =
  (* a deferred trigger runs at commit with the label the session had
     when the statement executed, not the commit label *)
  let db = Db.create () in
  let admin = Db.connect_admin db in
  ignore (Db.exec admin "CREATE TABLE T2 (a INT)");
  let seen = ref None in
  Db.create_trigger admin ~name:"capture" ~table:"T2" ~kinds:[ `Insert ]
    ~timing:`Deferred (fun s _ev -> seen := Some (Db.session_label s));
  let u = Db.create_principal admin ~name:"u" in
  let us = Db.connect db ~principal:u in
  let t1 = Db.create_tag us ~name:"t1" () in
  let t2 = Db.create_tag us ~name:"t2" () in
  ignore (Db.exec us "BEGIN");
  Db.add_secrecy us t1;
  ignore (Db.exec us "INSERT INTO T2 VALUES (1)");
  Db.add_secrecy us t2;
  (* u owns both tags; the commit label must drop to within the write
     set's label {t1}, so declassify everything — the trigger must
     still observe the label the statement ran with, {t1} *)
  Db.declassify us t1;
  Db.declassify us t2;
  ignore (Db.exec us "COMMIT");
  match !seen with
  | Some l ->
      Alcotest.(check bool) "trigger saw query label {t1}" true
        (Label.equal l (Label.singleton t1))
  | None -> Alcotest.fail "deferred trigger did not run"

(* ------------------------------------------------------------------ *)
(* Stored authority closures (procedures)                              *)
(* ------------------------------------------------------------------ *)

let test_stored_authority_closure () =
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
  let result = ref 0 in
  Db.register_procedure owner_s ~name:"summarize" ~authority:closure
    (fun s _args ->
      Db.with_label s (Label.singleton secret) (fun () ->
          let row = Db.query_one s "SELECT SUM(v) FROM S" in
          result := Value.to_int (Tuple.get row 0));
      Value.Null);
  (* an unprivileged caller invokes the closure: it can compute over
     the secret without the caller gaining or needing authority *)
  let nobody = Db.create_principal admin ~name:"nobody" in
  let ns = Db.connect db ~principal:nobody in
  ignore (Db.exec ns "PERFORM summarize()");
  Alcotest.(check int) "closure computed over secret" 99 !result;
  Alcotest.(check bool) "caller ends uncontaminated" true
    (Label.is_empty (Db.session_label ns))

(* ------------------------------------------------------------------ *)
(* Relabeling views and the per-tuple iterator (extensions)            *)
(* ------------------------------------------------------------------ *)

(* Section 4.3's sophisticated declassifying view: a billing view that
   replaces p_medical with p_billing for each patient. *)
let test_relabeling_view () =
  let db = Db.create () in
  let admin = Db.connect_admin db in
  let hospital = Db.create_principal admin ~name:"hospital" in
  let hs = Db.connect db ~principal:hospital in
  let medical = Db.create_tag hs ~name:"alice_medical2" () in
  let billing = Db.create_tag hs ~name:"alice_billing2" () in
  ignore
    (Db.exec admin
       "CREATE TABLE MedicalRecords (patient TEXT, diagnosis TEXT, cost INT)");
  Db.add_secrecy hs medical;
  ignore (Db.exec hs "INSERT INTO MedicalRecords VALUES ('Alice', 'flu', 150)");
  Db.declassify hs medical;
  Db.create_relabeling_view hs ~name:"Billing"
    ~query:"SELECT patient, cost FROM MedicalRecords"
    ~replace:[ (medical, billing) ];
  (* a billing clerk holding only the billing tag can read the view *)
  let clerk = Db.create_principal admin ~name:"clerk" in
  let cs = Db.connect db ~principal:clerk in
  Db.add_secrecy cs billing;
  let rows = Db.query cs "SELECT patient, cost FROM Billing" in
  Alcotest.(check int) "clerk sees billing row" 1 (List.length rows);
  List.iter
    (fun row ->
      Alcotest.(check bool) "row relabeled to billing" true
        (Label.equal (Tuple.label row) (Label.singleton billing)))
    rows;
  (* but not the medical base table *)
  Alcotest.(check int) "base table hidden" 0
    (List.length (Db.query cs "SELECT * FROM MedicalRecords"));
  (* and creating such a view requires authority over the from-tags *)
  let mallory = Db.create_principal admin ~name:"mallory" in
  let ms = Db.connect db ~principal:mallory in
  match
    Db.create_relabeling_view ms ~name:"Steal"
      ~query:"SELECT patient FROM MedicalRecords"
      ~replace:[ (medical, billing) ]
  with
  | exception Errors.Authority_required _ -> ()
  | exception Ifdb_difc.Authority.Denied _ -> ()
  | () -> Alcotest.fail "relabeling view without authority must fail"

let test_query_each_iterator () =
  (* future work, section 10: handle each tuple in its own context with
     that tuple's label *)
  let db = Db.create () in
  let admin = Db.connect_admin db in
  let sys = Db.create_principal admin ~name:"sys" in
  let ss = Db.connect db ~principal:sys in
  let all = Db.create_tag ss ~name:"all_data" () in
  ignore (Db.exec admin "CREATE TABLE PerUser (uid INT, v INT)");
  let user_tags =
    List.init 3 (fun i ->
        let p = Db.create_principal admin ~name:(Printf.sprintf "u%d" i) in
        let us = Db.connect db ~principal:p in
        let tag = Db.create_tag us ~name:(Printf.sprintf "u%d_tag" i) ~compounds:[ all ] () in
        Db.add_secrecy us tag;
        ignore (Db.exec us (Printf.sprintf "INSERT INTO PerUser VALUES (%d, %d)" i (i * 10)));
        tag)
  in
  (* the iterating process stays clean while each tuple is handled in a
     per-tuple context carrying exactly that tuple's label *)
  let seen = ref [] in
  let n =
    Db.query_each ss ~extra:(Label.singleton all)
      "SELECT uid, v FROM PerUser ORDER BY uid"
      (fun sub row ->
        seen := (Value.to_int (row => 0), Db.session_label sub) :: !seen)
  in
  Alcotest.(check int) "three rows" 3 n;
  Alcotest.(check bool) "caller stays clean" true
    (Label.is_empty (Db.session_label ss));
  List.iteri
    (fun i tag ->
      let _, lbl = List.find (fun (uid, _) -> uid = i) !seen in
      Alcotest.(check bool)
        (Printf.sprintf "row %d context labeled with its tag" i)
        true (Label.mem tag lbl))
    user_tags;
  (* without ~extra the confined query yields nothing *)
  Alcotest.(check int) "confined without extra" 0
    (Db.query_each ss "SELECT * FROM PerUser" (fun _ _ -> ()))

(* ------------------------------------------------------------------ *)
(* Baseline mode (ifc:false)                                           *)
(* ------------------------------------------------------------------ *)

let test_baseline_mode_plain_sql () =
  let db = Db.create ~ifc:false () in
  let s = Db.connect_admin db in
  ignore (Db.exec s "CREATE TABLE T (a INT PRIMARY KEY, b TEXT)");
  ignore (Db.exec s "INSERT INTO T VALUES (1, 'x'), (2, 'y')");
  Alcotest.(check int) "sees all" 2 (List.length (Db.query s "SELECT * FROM T"));
  (match Db.exec s "INSERT INTO T VALUES (1, 'dup')" with
  | exception Errors.Constraint_violation _ -> ()
  | _ -> Alcotest.fail "unique still enforced");
  (match Db.exec s "UPDATE T SET b = 'z' WHERE a = 1" with
  | Db.Affected 1 -> ()
  | _ -> Alcotest.fail "update works");
  (* labels are not stored: tuples are unlabeled *)
  List.iter
    (fun row ->
      Alcotest.(check bool) "no labels" true (Label.is_empty (Tuple.label row)))
    (Db.query s "SELECT * FROM T")

(* ------------------------------------------------------------------ *)
(* Maintenance                                                         *)
(* ------------------------------------------------------------------ *)

let test_vacuum_core () =
  let db = Db.create () in
  let s = Db.connect_admin db in
  ignore (Db.exec s "CREATE TABLE T (a INT)");
  ignore (Db.exec s "INSERT INTO T VALUES (1), (2), (3)");
  ignore (Db.exec s "UPDATE T SET a = a + 10");
  ignore (Db.exec s "DELETE FROM T WHERE a = 11");
  let removed = Db.vacuum db in
  (* 3 superseded originals + 1 deleted new version *)
  Alcotest.(check int) "dead versions removed" 4 removed;
  Alcotest.(check (list int)) "data intact" [ 12; 13 ]
    (List.sort Int.compare (ints_of_rows (Db.query s "SELECT a FROM T")))

(* The vacuum horizon is the oldest open snapshot's xmin: B began while
   A's update ran, so B keeps seeing the version A superseded after A
   commits, and vacuum must not reclaim it until B closes. *)
let test_vacuum_spares_open_snapshot () =
  let db = Db.create () in
  let a = Db.connect_admin db and b = Db.connect_admin db in
  ignore (Db.exec a "CREATE TABLE t (k INT PRIMARY KEY, v INT)");
  ignore (Db.exec a "INSERT INTO t VALUES (1, 10), (2, 20)");
  let count () = Value.to_int (Db.query_one b "SELECT COUNT(*) FROM t" => 0) in
  ignore (Db.exec a "BEGIN");
  ignore (Db.exec a "UPDATE t SET v = 11 WHERE k = 1");
  ignore (Db.exec b "BEGIN");
  Alcotest.(check int) "B sees both rows" 2 (count ());
  ignore (Db.exec a "COMMIT");
  Alcotest.(check int) "nothing B can see is reclaimed" 0 (Db.vacuum db);
  Alcotest.(check int) "B still sees both rows" 2 (count ());
  ignore (Db.exec b "COMMIT");
  Alcotest.(check int) "reclaimed once B closes" 1 (Db.vacuum db);
  Alcotest.(check int) "both rows after vacuum" 2 (count ())

(* MVCC and vacuum oracle.  Sessions interleave explicit and implicit
   transactions over a keyed table, with vacuum at random points.  At
   each vacuum: every open transaction's SELECT reads the same before
   and after, vacuum removes exactly the versions a reference sweep over
   the whole heap calls dead, and none remain.  The reference horizon
   is the smallest xid running when an open transaction began (or its
   own xid), tracked here from [Manager.live_xids]. *)
type mv_op =
  | Mv_begin of int
  | Mv_insert of int * int * int
  | Mv_update of int * int * int
  | Mv_delete of int * int
  | Mv_commit of int
  | Mv_rollback of int
  | Mv_vacuum

let mv_sql = function
  | Mv_begin _ -> "BEGIN"
  | Mv_insert (_, k, v) -> Printf.sprintf "INSERT INTO t VALUES (%d, %d)" k v
  | Mv_update (_, k, v) -> Printf.sprintf "UPDATE t SET v = %d WHERE k = %d" v k
  | Mv_delete (_, k) -> Printf.sprintf "DELETE FROM t WHERE k = %d" k
  | Mv_commit _ -> "COMMIT"
  | Mv_rollback _ -> "ROLLBACK"
  | Mv_vacuum -> "VACUUM"

let mvcc_vacuum_prop =
  let gen =
    QCheck.Gen.(
      let* n = int_range 2 3 in
      let sess = int_bound (n - 1) and key = int_bound 3 and v = int_bound 99 in
      let+ ops =
        list_size (int_range 5 60)
          (frequency
             [ (3, map (fun i -> Mv_begin i) sess);
               (3, map3 (fun i k v -> Mv_insert (i, k, v)) sess key v);
               (4, map3 (fun i k v -> Mv_update (i, k, v)) sess key v);
               (2, map2 (fun i k -> Mv_delete (i, k)) sess key);
               (2, map (fun i -> Mv_commit i) sess);
               (1, map (fun i -> Mv_rollback i) sess);
               (3, return Mv_vacuum) ])
      in
      (n, ops))
  in
  let print (n, ops) =
    Printf.sprintf "%d sessions: %s" n
      (String.concat "; "
         (List.map
            (fun op ->
              match op with
              | Mv_begin i | Mv_insert (i, _, _) | Mv_update (i, _, _)
              | Mv_delete (i, _) | Mv_commit i | Mv_rollback i ->
                  Printf.sprintf "s%d %s" i (mv_sql op)
              | Mv_vacuum -> mv_sql op)
            ops))
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"open snapshots survive vacuum"
       (QCheck.make ~print
          ~shrink:QCheck.Shrink.(pair nil list)
          gen)
       (fun (n, ops) ->
         let db = Db.create () in
         let admin = Db.connect_admin db in
         ignore (Db.exec admin "CREATE TABLE t (k INT PRIMARY KEY, v INT)");
         ignore (Db.exec admin "INSERT INTO t VALUES (0, 0), (1, 1)");
         let mgr = Db.manager db in
         let heap = (Catalog.table (Db.catalog db) "t").Catalog.tbl_heap in
         let sessions = Array.init n (fun _ -> Db.connect_admin db) in
         (* per session: the reference snapshot xmin of its open
            explicit transaction *)
         let xmin = Array.make n None in
         let exec i sql =
           try ignore (Db.exec sessions.(i) sql)
           with _ -> xmin.(i) <- None (* an error aborts the transaction *)
         in
         let rows i =
           List.map
             (fun r -> (Value.to_int (r => 0), Value.to_int (r => 1)))
             (Db.query sessions.(i) "SELECT k, v FROM t ORDER BY k")
         in
         let dead horizon (v : Ifdb_storage.Heap.version) =
           let status = Ifdb_txn.Manager.status_of mgr in
           status v.Ifdb_storage.Heap.xmin = Ifdb_txn.Manager.Aborted
           || v.Ifdb_storage.Heap.xmax <> 0
              && status v.Ifdb_storage.Heap.xmax = Ifdb_txn.Manager.Committed
              && v.Ifdb_storage.Heap.xmax < horizon
         in
         let count_dead horizon =
           let c = ref 0 in
           Ifdb_storage.Heap.iter heap (fun v -> if dead horizon v then incr c);
           !c
         in
         List.for_all
           (fun op ->
             match op with
             | Mv_begin i when xmin.(i) = None ->
                 let running = Ifdb_txn.Manager.live_xids mgr in
                 exec i (mv_sql op);
                 let own =
                   List.fold_left max 0 (Ifdb_txn.Manager.live_xids mgr)
                 in
                 xmin.(i) <- Some (List.fold_left min own running);
                 true
             | Mv_begin _ -> true
             | Mv_insert (i, _, _) | Mv_update (i, _, _) | Mv_delete (i, _) ->
                 exec i (mv_sql op);
                 true
             | Mv_commit i | Mv_rollback i ->
                 if xmin.(i) <> None then begin
                   exec i (mv_sql op);
                   xmin.(i) <- None
                 end;
                 true
             | Mv_vacuum ->
                 let open_txns =
                   List.filter (fun i -> xmin.(i) <> None) (List.init n Fun.id)
                 in
                 let horizon =
                   Array.fold_left
                     (fun h x -> match x with Some x -> min h x | None -> h)
                     max_int xmin
                 in
                 let before = List.map rows open_txns in
                 let expected = count_dead horizon in
                 let removed = Db.vacuum db in
                 List.map rows open_txns = before
                 && removed = expected
                 && count_dead horizon = 0)
           ops))

let suites =
  [
    ( "core.query_by_label",
      [
        Alcotest.test_case "confinement rule" `Quick test_confinement_rule;
        Alcotest.test_case "multiple tags" `Quick test_confinement_multiple_tags;
        Alcotest.test_case "result labels confined" `Quick test_result_labels_confined;
        Alcotest.test_case "insert gets process label" `Quick
          test_insert_gets_process_label;
        Alcotest.test_case "write rule blocks lower" `Quick
          test_write_rule_update_lower_fails;
        Alcotest.test_case "write rule exact ok" `Quick test_write_rule_exact_label_ok;
        Alcotest.test_case "_label queries" `Quick test_label_column_queries;
        Alcotest.test_case "compound-tag statistics" `Quick
          test_compound_tag_statistics;
      ] );
    ( "core.authority",
      [
        Alcotest.test_case "declassify needs authority" `Quick
          test_declassify_requires_authority;
        Alcotest.test_case "PERFORM addsecrecy/declassify" `Quick
          test_perform_addsecrecy_declassify;
        Alcotest.test_case "authority ops need empty label" `Quick
          test_authority_state_requires_empty_label;
        Alcotest.test_case "reduced authority" `Quick test_with_reduced_authority;
      ] );
    ( "core.views",
      [
        Alcotest.test_case "declassifying view" `Quick test_declassifying_view;
        Alcotest.test_case "declassifying view needs authority" `Quick
          test_declassifying_view_requires_authority;
        Alcotest.test_case "plain view confined" `Quick test_plain_view_no_declassification;
        Alcotest.test_case "outer join NULLs sensitive fields" `Quick
          test_outer_join_nulls_for_sensitive;
      ] );
    ( "core.transactions",
      [
        Alcotest.test_case "commit label rule blocks leak" `Quick
          test_commit_label_rule_blocks_leak;
        Alcotest.test_case "declassify then commit" `Quick
          test_commit_label_rule_declassify_allows;
        Alcotest.test_case "mixed-label transaction" `Quick test_mixed_label_transaction;
        Alcotest.test_case "clearance rule (serializable)" `Quick
          test_clearance_rule_serializable;
        Alcotest.test_case "no clearance under SI" `Quick test_snapshot_mode_no_clearance;
        Alcotest.test_case "write skew under SI (anomaly)" `Quick
          test_write_skew_under_si;
        Alcotest.test_case "write skew prevented (serializable)" `Quick
          test_write_skew_prevented_serializable;
        Alcotest.test_case "serializable locks released" `Quick
          test_serializable_locks_released;
        Alcotest.test_case "serializable partition-granularity locks" `Quick
          test_serializable_partition_locks;
        Alcotest.test_case "rollback" `Quick test_rollback_undoes;
      ] );
    ( "core.constraints",
      [
        Alcotest.test_case "polyinstantiation (paper example)" `Quick
          test_polyinstantiation_paper_example;
        Alcotest.test_case "label constraint prevents polyinst" `Quick
          test_label_constraint_prevents_polyinstantiation;
        Alcotest.test_case "label constraint superset" `Quick
          test_label_constraint_superset;
        Alcotest.test_case "FK probing attack blocked" `Quick
          test_fk_probing_attack_blocked;
        Alcotest.test_case "FK missing target" `Quick test_fk_missing_target_fails;
        Alcotest.test_case "FK DECLASSIFYING clause" `Quick test_fk_declassifying_clause;
        Alcotest.test_case "FK same label no clause" `Quick
          test_fk_same_label_no_clause_needed;
        Alcotest.test_case "FK delete restricted" `Quick test_fk_delete_restricted;
      ] );
    ( "core.triggers",
      [
        Alcotest.test_case "ordinary trigger as caller" `Quick
          test_ordinary_trigger_runs_as_caller;
        Alcotest.test_case "authority closure trigger" `Quick
          test_authority_closure_trigger;
        Alcotest.test_case "deferred trigger query label" `Quick
          test_deferred_trigger_uses_query_label;
      ] );
    ( "core.closures",
      [ Alcotest.test_case "stored authority closure" `Quick test_stored_authority_closure ] );
    ( "core.extensions",
      [
        Alcotest.test_case "relabeling view (billing)" `Quick test_relabeling_view;
        Alcotest.test_case "per-tuple iterator" `Quick test_query_each_iterator;
      ] );
    ( "core.baseline",
      [ Alcotest.test_case "ifc off = plain SQL" `Quick test_baseline_mode_plain_sql ] );
    ( "core.maintenance",
      [
        Alcotest.test_case "vacuum" `Quick test_vacuum_core;
        Alcotest.test_case "vacuum spares an open snapshot" `Quick
          test_vacuum_spares_open_snapshot;
        mvcc_vacuum_prop;
      ] );
  ]
