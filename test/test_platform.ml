(* Tests for the application platform: authority cache, process label
   tracking, output gate, web tier. *)

module Db = Ifdb_core.Database
module Errors = Ifdb_core.Errors
module Process = Ifdb_platform.Process
module Gate = Ifdb_platform.Gate
module Auth_cache = Ifdb_platform.Auth_cache
module Web = Ifdb_platform.Web
module Label = Ifdb_difc.Label
module Authority = Ifdb_difc.Authority

let fresh () =
  let db = Db.create () in
  let admin = Db.connect_admin db in
  let alice = Db.create_principal admin ~name:"alice" in
  let alice_s = Db.connect db ~principal:alice in
  let tag = Db.create_tag alice_s ~name:"alice_tag" () in
  (db, admin, alice, tag)

(* ------------------------------------------------------------------ *)
(* Auth cache                                                          *)
(* ------------------------------------------------------------------ *)

let test_cache_hits () =
  let db, _, alice, tag = fresh () in
  let cache = Auth_cache.create (Db.authority db) in
  Alcotest.(check bool) "first answer" true (Auth_cache.has_authority cache alice tag);
  Alcotest.(check bool) "second answer" true (Auth_cache.has_authority cache alice tag);
  let s = Auth_cache.stats cache in
  Alcotest.(check int) "one miss" 1 s.Auth_cache.misses;
  Alcotest.(check int) "one hit" 1 s.Auth_cache.hits

let test_cache_invalidation () =
  let db, admin, alice, tag = fresh () in
  let cache = Auth_cache.create (Db.authority db) in
  let bob = Db.create_principal admin ~name:"bob" in
  Alcotest.(check bool) "bob has nothing" false (Auth_cache.has_authority cache bob tag);
  (* delegation bumps the generation; the stale negative answer must go *)
  let alice_s = Db.connect db ~principal:alice in
  Db.delegate alice_s ~tag ~grantee:bob;
  Alcotest.(check bool) "bob now authorized" true
    (Auth_cache.has_authority cache bob tag);
  Db.revoke alice_s ~tag ~grantee:bob;
  Alcotest.(check bool) "revocation visible" false
    (Auth_cache.has_authority cache bob tag)

(* ------------------------------------------------------------------ *)
(* Process & gate                                                      *)
(* ------------------------------------------------------------------ *)

let test_gate_blocks_contaminated () =
  let db, _, alice, tag = fresh () in
  let bob_s = Db.connect db ~principal:(Db.create_principal (Db.connect_admin db) ~name:"bob") in
  let proc = Process.create bob_s in
  let gate = Gate.create () in
  Gate.send gate proc "public ok";
  Process.add_secrecy proc tag;
  (match Gate.send gate proc "secret!!" with
  | exception Errors.Flow_violation _ -> ()
  | () -> Alcotest.fail "contaminated send must fail");
  Alcotest.(check (list string)) "only public output" [ "public ok" ]
    (Gate.output gate);
  Alcotest.(check int) "blocked counted" 1 (Gate.blocked_count gate);
  ignore alice

let test_process_release () =
  let db, _, alice, tag = fresh () in
  let proc = Process.create (Db.connect db ~principal:alice) in
  Process.add_secrecy proc tag;
  Alcotest.(check bool) "owner can release" true (Process.can_release proc);
  Process.release proc;
  Alcotest.(check bool) "label clear" true (Label.is_empty (Process.label proc));
  let gate = Gate.create () in
  Gate.send gate proc "after release"

let test_process_release_denied () =
  let db, admin, _alice, tag = fresh () in
  let bob = Db.create_principal admin ~name:"bob" in
  let proc = Process.create (Db.connect db ~principal:bob) in
  Process.add_secrecy proc tag;
  Alcotest.(check bool) "bob cannot release" false (Process.can_release proc);
  match Process.release proc with
  | exception Errors.Authority_required _ -> ()
  | () -> Alcotest.fail "release without authority must fail"

let test_process_op_count () =
  let db, _, alice, tag = fresh () in
  let proc = Process.create (Db.connect db ~principal:alice) in
  let before = Process.op_count proc in
  Process.add_secrecy proc tag;
  ignore (Process.can_release proc);
  Process.declassify proc tag;
  Alcotest.(check bool) "ops counted" true (Process.op_count proc >= before + 3)

(* ------------------------------------------------------------------ *)
(* Web tier                                                            *)
(* ------------------------------------------------------------------ *)

let web_fixture () =
  let db = Db.create () in
  let admin = Db.connect_admin db in
  ignore (Db.exec admin "CREATE TABLE Notes (owner TEXT, body TEXT)");
  let alice = Db.create_principal admin ~name:"alice" in
  let alice_s = Db.connect db ~principal:alice in
  let tag = Db.create_tag alice_s ~name:"alice_notes" () in
  Db.add_secrecy alice_s tag;
  ignore (Db.exec alice_s "INSERT INTO Notes VALUES ('alice', 'my secret note')");
  Db.declassify alice_s tag;
  let web = Web.create db in
  (* a correct handler: raise, read, release *)
  Web.route web "notes.php" (fun proc _params ->
      Process.add_secrecy proc tag;
      let rows =
        Db.query (Process.session proc) "SELECT body FROM Notes WHERE owner = 'alice'"
      in
      let body =
        String.concat ";"
          (List.map
             (fun r -> Ifdb_rel.Value.to_text (Ifdb_rel.Tuple.get r 0))
             rows)
      in
      Process.release proc;
      body);
  (* a buggy handler: reads and forgets to think about authority *)
  Web.route web "leak.php" (fun proc _params ->
      Process.add_secrecy proc tag;
      let rows = Db.query (Process.session proc) "SELECT body FROM Notes" in
      String.concat ";"
        (List.map (fun r -> Ifdb_rel.Value.to_text (Ifdb_rel.Tuple.get r 0)) rows));
  (db, web, admin, alice, tag)

let test_web_ok_response () =
  let _, web, _, alice, _ = web_fixture () in
  let r = Web.handle web ~path:"notes.php" ~user:alice ~params:[] in
  Alcotest.(check bool) "ok" true (r.Web.status = `Ok);
  Alcotest.(check string) "body" "my secret note" r.Web.body

let test_web_blocks_unauthorized () =
  let db, web, admin, _, _ = web_fixture () in
  let mallory = Db.create_principal admin ~name:"mallory" in
  let r = Web.handle web ~path:"notes.php" ~user:mallory ~params:[] in
  Alcotest.(check bool) "blocked" true (r.Web.status = `Blocked);
  Alcotest.(check string) "no body" "" r.Web.body;
  Alcotest.(check int) "gate emitted nothing" 0
    (Gate.sent_count (Web.gate web));
  ignore db

let test_web_blocks_buggy_handler () =
  let db, web, admin, _, _ = web_fixture () in
  let mallory = Db.create_principal admin ~name:"mallory" in
  (* even a handler with no auth logic at all cannot leak *)
  let r = Web.handle web ~path:"leak.php" ~user:mallory ~params:[] in
  Alcotest.(check bool) "blocked" true (r.Web.status = `Blocked);
  Alcotest.(check int) "counted" 1 (Web.blocked web);
  ignore db

let test_web_404 () =
  let _, web, _, alice, _ = web_fixture () in
  let r = Web.handle web ~path:"nope.php" ~user:alice ~params:[] in
  Alcotest.(check bool) "error" true (r.Web.status = `Error)

let test_web_cost_model () =
  let _, web, _, alice, _ = web_fixture () in
  let cpu0 = Web.sim_cpu_ns web in
  ignore (Web.handle web ~path:"notes.php" ~user:alice ~params:[]);
  let with_if = Web.sim_cpu_ns web - cpu0 in
  Alcotest.(check bool) "base + per-op cost" true (with_if > 200_000);
  (* the plain-PHP platform charges no label-op cost *)
  let db2, web2, _, alice2, tag2 =
    let db = Db.create ~ifc:false () in
    let admin = Db.connect_admin db in
    ignore (Db.exec admin "CREATE TABLE Notes (owner TEXT, body TEXT)");
    ignore (Db.exec admin "INSERT INTO Notes VALUES ('alice', 'note')");
    let alice = Db.create_principal admin ~name:"alice" in
    let web = Web.create ~if_platform:false db in
    Web.route web "notes.php" (fun proc _ ->
        let rows = Db.query (Process.session proc) "SELECT body FROM Notes" in
        String.concat ";"
          (List.map (fun r -> Ifdb_rel.Value.to_text (Ifdb_rel.Tuple.get r 0)) rows));
    (db, web, admin, alice, ())
  in
  let cpu0 = Web.sim_cpu_ns web2 in
  ignore (Web.handle web2 ~path:"notes.php" ~user:alice2 ~params:[]);
  let baseline = Web.sim_cpu_ns web2 - cpu0 in
  Alcotest.(check bool)
    (Printf.sprintf "IF platform (%d ns) dearer than baseline (%d ns)" with_if baseline)
    true (with_if > baseline);
  ignore (db2, tag2)

let suites =
  [
    ( "platform.cache",
      [
        Alcotest.test_case "hit/miss accounting" `Quick test_cache_hits;
        Alcotest.test_case "generation invalidation" `Quick test_cache_invalidation;
      ] );
    ( "platform.process",
      [
        Alcotest.test_case "gate blocks contaminated" `Quick
          test_gate_blocks_contaminated;
        Alcotest.test_case "release with authority" `Quick test_process_release;
        Alcotest.test_case "release denied" `Quick test_process_release_denied;
        Alcotest.test_case "op counting" `Quick test_process_op_count;
      ] );
    ( "platform.web",
      [
        Alcotest.test_case "ok response" `Quick test_web_ok_response;
        Alcotest.test_case "blocks unauthorized" `Quick test_web_blocks_unauthorized;
        Alcotest.test_case "blocks buggy handler" `Quick test_web_blocks_buggy_handler;
        Alcotest.test_case "404" `Quick test_web_404;
        Alcotest.test_case "cost model" `Quick test_web_cost_model;
      ] );
  ]
