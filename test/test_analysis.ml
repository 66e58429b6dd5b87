(* Tests for the static label-flow analyzer (lib/analysis) and the lint
   driver: one unit test per diagnostic class, a QCheck soundness
   property tying analyzer verdicts to runtime behavior, the
   prepare-time hook (warnings + strict mode), proven-empty scan
   pruning, and the checked-in lint corpus goldens. *)

module Db = Ifdb_core.Database
module Lint = Ifdb_core.Lint
module Errors = Ifdb_core.Errors
module Diag = Ifdb_analysis.Diag
module Label = Ifdb_difc.Label
module Buffer_pool = Ifdb_storage.Buffer_pool

let has_error code diags =
  List.exists (fun (d : Diag.t) -> d.Diag.d_code = code && Diag.is_error d) diags

let has_warning code diags =
  List.exists
    (fun (d : Diag.t) -> d.Diag.d_code = code && not (Diag.is_error d))
    diags

let any_error diags = List.exists Diag.is_error diags

let dump diags =
  String.concat "; " (List.map Diag.to_string diags)

(* Fixture: table [t(k INT)] holding two committed rows under each of
   six labels drawn from tags ta, tb, tc (all owned by [owner]). *)
type fx = { db : Db.t; admin : Db.session; owner : Ifdb_difc.Principal.t }

let labels6 = [ []; [ "ta" ]; [ "tb" ]; [ "ta"; "tb" ]; [ "tc" ]; [ "ta"; "tc" ] ]

let fixture ?strict_analysis () =
  let db = Db.create ?strict_analysis () in
  let admin = Db.connect_admin db in
  let owner = Db.create_principal admin ~name:"owner" in
  let os = Db.connect db ~principal:owner in
  List.iter (fun name -> ignore (Db.create_tag os ~name ())) [ "ta"; "tb"; "tc" ];
  ignore (Db.exec admin "CREATE TABLE t (k INT)");
  List.iter
    (fun names ->
      let s = Db.connect db ~principal:owner in
      List.iter (fun n -> Db.add_secrecy s (Db.find_tag db n)) names;
      ignore (Db.exec s "INSERT INTO t VALUES (1)");
      ignore (Db.exec s "INSERT INTO t VALUES (2)"))
    labels6;
  { db; admin; owner }

let connect_with fx names =
  let s = Db.connect fx.db ~principal:fx.owner in
  List.iter (fun n -> Db.add_secrecy s (Db.find_tag fx.db n)) names;
  s

(* ------------------------------------------------------------------ *)
(* Unit tests, one per diagnostic class                                *)
(* ------------------------------------------------------------------ *)

let test_doomed_write () =
  let fx = fixture () in
  let s = connect_with fx [ "ta" ] in
  (* session {ta} sees {} and {ta}; a bare UPDATE must try to write the
     {} rows and die on the Write Rule *)
  let diags = Db.analyze s "UPDATE t SET k = 0" in
  Alcotest.(check bool)
    ("doomed-write error: " ^ dump diags)
    true
    (has_error Diag.Doomed_write diags);
  (match Db.exec s "UPDATE t SET k = 0" with
  | _ -> Alcotest.fail "doomed UPDATE must raise at runtime"
  | exception Errors.Flow_violation _ -> ());
  (* the label-literal form: visible foreign partition, no other
     predicate *)
  let s2 = connect_with fx [ "ta"; "tb" ] in
  let diags = Db.analyze s2 "DELETE FROM t WHERE _label = {ta}" in
  Alcotest.(check bool)
    ("label-literal doomed delete: " ^ dump diags)
    true
    (has_error Diag.Doomed_write diags);
  (match Db.exec s2 "DELETE FROM t WHERE _label = {ta}" with
  | _ -> Alcotest.fail "doomed DELETE must raise at runtime"
  | exception Errors.Flow_violation _ -> ())

let test_doomed_write_demoted_by_predicate () =
  let fx = fixture () in
  let s = connect_with fx [ "ta" ] in
  (* a further predicate makes the match data-dependent: warning, not
     error — and here it matches nothing, so execution succeeds *)
  let diags = Db.analyze s "UPDATE t SET k = 0 WHERE k > 100" in
  Alcotest.(check bool)
    ("no error with restricting predicate: " ^ dump diags)
    false (any_error diags);
  match Db.exec s "UPDATE t SET k = 0 WHERE k > 100" with
  | Db.Affected 0 -> ()
  | _ -> Alcotest.fail "expected Affected 0"

let test_vacuous_query () =
  let fx = fixture () in
  let s = Db.connect fx.db ~principal:fx.owner in
  (* empty session label: {ta} partitions are invisible *)
  let sql = "SELECT * FROM t WHERE _label = {ta}" in
  let diags = Db.analyze s sql in
  Alcotest.(check bool)
    ("vacuous-query warning: " ^ dump diags)
    true
    (has_warning Diag.Vacuous_query diags);
  Alcotest.(check bool) "no error for vacuous select" false (any_error diags);
  Alcotest.(check int) "matches nothing" 0 (List.length (Db.query s sql))

let test_overbroad_declassify_and_revocation () =
  let fx = fixture () in
  let os = Db.connect fx.db ~principal:fx.owner in
  let view = "CREATE VIEW v AS SELECT k FROM t WITH DECLASSIFYING (ta)" in
  (* the owner has authority and ta occurs in the data: clean *)
  Alcotest.(check bool)
    "owner's declassifying view is clean" false
    (any_error (Db.analyze os view));
  (* delegation makes bob's identical view clean; revocation dooms it *)
  let bob = Db.create_principal fx.admin ~name:"bob" in
  let ta = Db.find_tag fx.db "ta" in
  Db.delegate os ~tag:ta ~grantee:bob;
  let bs = Db.connect fx.db ~principal:bob in
  Alcotest.(check bool)
    "delegated principal's view is clean" false
    (any_error (Db.analyze bs view));
  Db.revoke os ~tag:ta ~grantee:bob;
  let diags = Db.analyze bs view in
  Alcotest.(check bool)
    ("revocation dooms the view: " ^ dump diags)
    true
    (has_error Diag.Overbroad_declassify diags)

let test_useless_declassify_warns () =
  let fx = fixture () in
  let os = Db.connect fx.db ~principal:fx.owner in
  ignore (Db.create_tag os ~name:"unused" ());
  let diags =
    Db.analyze os "CREATE VIEW v AS SELECT k FROM t WITH DECLASSIFYING (unused)"
  in
  Alcotest.(check bool)
    ("declassifying an absent tag warns: " ^ dump diags)
    true
    (has_warning Diag.Overbroad_declassify diags)

let test_commit_trap () =
  let fx = fixture () in
  (* owner holds authority: the trap is flagged as fixable *)
  let s = connect_with fx [] in
  ignore (Db.exec s "BEGIN");
  ignore (Db.exec s "INSERT INTO t VALUES (7)");
  Db.add_secrecy s (Db.find_tag fx.db "ta");
  let diags = Db.analyze s "COMMIT" in
  Alcotest.(check bool)
    ("commit-trap error: " ^ dump diags)
    true
    (has_error Diag.Commit_trap diags);
  let msg =
    match List.find_opt Diag.is_error diags with
    | Some d -> d.Diag.d_message
    | None -> ""
  in
  let contains hay needle =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool)
    "owner's trap mentions the declassify fix" true
    (contains msg "could declassify");
  (match Db.exec s "COMMIT" with
  | _ -> Alcotest.fail "trapped COMMIT must raise"
  | exception Errors.Flow_violation _ -> ());
  (* a principal without authority gets the unfixable wording *)
  let mallory = Db.create_principal fx.admin ~name:"mallory" in
  let ms = Db.connect fx.db ~principal:mallory in
  ignore (Db.exec ms "BEGIN");
  ignore (Db.exec ms "INSERT INTO t VALUES (8)");
  Db.add_secrecy ms (Db.find_tag fx.db "ta");
  let diags = Db.analyze ms "COMMIT" in
  let msg =
    match List.find_opt Diag.is_error diags with
    | Some d -> d.Diag.d_message
    | None -> ""
  in
  Alcotest.(check bool)
    ("unfixable trap says roll back: " ^ msg)
    true
    (contains msg "only roll back");
  match Db.exec ms "ROLLBACK" with
  | Db.Done _ -> ()
  | _ -> Alcotest.fail "rollback"

let test_fk_leak () =
  let fx = fixture () in
  (* creating a table whose FK points at labeled partitions warns *)
  let diags =
    Db.analyze fx.admin
      "CREATE TABLE child (id INT, pk INT, FOREIGN KEY (pk) REFERENCES t (k))"
  in
  Alcotest.(check bool)
    ("fk-leak warning on CREATE TABLE: " ^ dump diags)
    true
    (has_warning Diag.Fk_leak diags)

let test_fk_infeasible_insert () =
  let db = Db.create () in
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
  (* every live parent row is {secret}; an unlabeled INSERT with a
     definite (non-NULL constant) FK value cannot satisfy the Foreign
     Key Rule without DECLASSIFYING *)
  let s = Db.connect db ~principal:owner in
  let diags = Db.analyze s "INSERT INTO child VALUES (10, 1)" in
  Alcotest.(check bool)
    ("fk-leak error on definite insert: " ^ dump diags)
    true
    (has_error Diag.Fk_leak diags);
  (* a NULL reference never engages the FK: clean *)
  let diags = Db.analyze s "INSERT INTO child VALUES (10, NULL)" in
  Alcotest.(check bool)
    ("NULL reference is clean: " ^ dump diags)
    false (any_error diags)

(* ------------------------------------------------------------------ *)
(* The prepare-time hook                                               *)
(* ------------------------------------------------------------------ *)

let test_session_warnings () =
  let fx = fixture () in
  let s = Db.connect fx.db ~principal:fx.owner in
  ignore (Db.exec s "SELECT * FROM t WHERE _label = {ta}");
  Alcotest.(check bool)
    "vacuous warning attached to the session" true
    (has_warning Diag.Vacuous_query (Db.session_warnings s));
  ignore (Db.exec s "SELECT * FROM t");
  Alcotest.(check int)
    "clean statement clears the warnings" 0
    (List.length (Db.session_warnings s))

let test_strict_mode () =
  let fx = fixture ~strict_analysis:true () in
  let s = connect_with fx [ "ta" ] in
  (match Db.exec s "UPDATE t SET k = 0" with
  | _ -> Alcotest.fail "strict mode must reject the doomed UPDATE at prepare"
  | exception Errors.Flow_violation m ->
      Alcotest.(check bool)
        ("prepare-time rejection is marked: " ^ m)
        true
        (String.length m >= 15 && String.sub m 0 15 = "static analysis"));
  (* warnings do not reject, even in strict mode *)
  match Db.exec s "SELECT * FROM t WHERE _label = {tb}" with
  | Db.Rows { tuples = []; _ } -> ()
  | _ -> Alcotest.fail "vacuous SELECT still runs (and matches nothing)"

let test_scan_pruning_skips_pages () =
  let db = Db.create () in
  let admin = Db.connect_admin db in
  let owner = Db.create_principal admin ~name:"owner" in
  let os = Db.connect db ~principal:owner in
  ignore (Db.create_tag os ~name:"secret" ());
  ignore (Db.exec admin "CREATE TABLE p (k INT)");
  let ws = Db.connect db ~principal:owner in
  Db.add_secrecy ws (Db.find_tag db "secret");
  for i = 1 to 200 do
    ignore (Db.exec ws (Printf.sprintf "INSERT INTO p VALUES (%d)" i))
  done;
  let pool = Db.pool db in
  let touches () =
    let s = Buffer_pool.stats pool in
    s.Buffer_pool.hits + s.Buffer_pool.misses
  in
  (* a reader that can see the rows pays page accesses... *)
  Buffer_pool.reset_stats pool;
  Alcotest.(check int) "owner sees all rows" 200
    (List.length (Db.query ws "SELECT * FROM p"));
  let visible_touches = touches () in
  Alcotest.(check bool) "visible scan touches pages" true (visible_touches > 0);
  (* ...but a scan proven empty by the label partition counts is
     pruned before it touches the heap at all *)
  let blind = Db.connect db ~principal:owner in
  Buffer_pool.reset_stats pool;
  Alcotest.(check int) "blind reader sees nothing" 0
    (List.length (Db.query blind "SELECT * FROM p"));
  Alcotest.(check int) "pruned scan touches no pages" 0 (touches ())

(* ------------------------------------------------------------------ *)
(* QCheck: analyzer verdicts are sound w.r.t. the runtime              *)
(* ------------------------------------------------------------------ *)

let label_lit names = "{" ^ String.concat ", " names ^ "}"

let stmt_of kind li =
  let l = label_lit (List.nth labels6 li) in
  match kind with
  | 0 -> "UPDATE t SET k = 0"
  | 1 -> "DELETE FROM t"
  | 2 -> "UPDATE t SET k = 0 WHERE _label = " ^ l
  | 3 -> "DELETE FROM t WHERE _label = " ^ l
  | 4 -> "INSERT INTO t VALUES (42)"
  | _ -> "SELECT * FROM t WHERE _label = " ^ l

let session_tags bits =
  List.filteri (fun i _ -> bits land (1 lsl i) <> 0) [ "ta"; "tb"; "tc" ]

let soundness_prop (bits, kind, li) =
  (* fresh database per iteration: the analyzer's Error verdicts are
     promises about the *current committed data*, so the data must not
     drift across iterations *)
  let fx = fixture () in
  let s = connect_with fx (session_tags bits) in
  let sql = stmt_of kind li in
  let diags = Db.analyze s sql in
  let doomed = any_error diags in
  if kind = 5 then
    (* reads are never doomed; a vacuous verdict means zero rows *)
    (not doomed)
    && ((not (has_warning Diag.Vacuous_query diags))
       || Db.query s sql = [])
  else
    match Db.exec s sql with
    | _ -> not doomed
    | exception Errors.Flow_violation _ -> doomed
    | exception _ -> false

let soundness =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:100
       ~name:"doomed verdicts match runtime Flow_violation exactly"
       (QCheck.make
          ~print:(fun (bits, kind, li) ->
            Printf.sprintf "session=%s stmt=%s"
              (label_lit (session_tags bits))
              (stmt_of kind li))
          QCheck.Gen.(triple (int_bound 7) (int_bound 5) (int_bound 5)))
       soundness_prop)

(* ------------------------------------------------------------------ *)
(* Lint corpus goldens                                                 *)
(* ------------------------------------------------------------------ *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Every corpus script is linted in both modes: trace mode against
   FILE.expected, per-statement mode against FILE.stmt.expected.
   Expect-annotations must hold in both (expect-trace / expect-stmt
   scope a code to one mode), and both reports must match their
   goldens byte for byte. *)
let test_lint_corpus () =
  (* [dune runtest] runs in a copy of test/; a test binary started from
     the repository root finds the corpus under test/ *)
  let dir =
    List.find Sys.file_exists [ "lint_corpus"; Filename.concat "test" "lint_corpus" ]
  in
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".sql")
    |> List.sort compare
  in
  Alcotest.(check bool) "corpus present" true (List.length files >= 9);
  List.iter
    (fun f ->
      let path = Filename.concat dir f in
      let text = read_file path in
      let check mode suffix tag =
        let out = Lint.lint_script mode text in
        List.iter
          (fun fl -> Alcotest.fail (f ^ " (" ^ tag ^ "): " ^ fl))
          out.Lint.o_failures;
        Alcotest.(check string)
          (f ^ " (" ^ tag ^ "): report matches golden")
          (read_file (path ^ suffix))
          out.Lint.o_report
      in
      check Lint.trace_mode ".expected" "trace";
      check Lint.sql_mode ".stmt.expected" "stmt")
    files

let suites =
  [
    ( "analysis",
      [
        Alcotest.test_case "doomed write" `Quick test_doomed_write;
        Alcotest.test_case "predicate demotes doomed write" `Quick
          test_doomed_write_demoted_by_predicate;
        Alcotest.test_case "vacuous query" `Quick test_vacuous_query;
        Alcotest.test_case "overbroad declassify + revocation" `Quick
          test_overbroad_declassify_and_revocation;
        Alcotest.test_case "useless declassify warns" `Quick
          test_useless_declassify_warns;
        Alcotest.test_case "commit trap" `Quick test_commit_trap;
        Alcotest.test_case "fk leak on create table" `Quick test_fk_leak;
        Alcotest.test_case "fk infeasible insert" `Quick
          test_fk_infeasible_insert;
        Alcotest.test_case "session warnings" `Quick test_session_warnings;
        Alcotest.test_case "strict mode" `Quick test_strict_mode;
        Alcotest.test_case "proven-empty scan pruning" `Quick
          test_scan_pruning_skips_pages;
        soundness;
      ] );
    ("lint corpus", [ Alcotest.test_case "goldens" `Quick test_lint_corpus ]);
  ]
