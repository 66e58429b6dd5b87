(* Tests for the label store: hash-consed label interning, the
   memoized flow cache and its generation-stamped invalidation, and
   the end-to-end behaviour of interned labels under polyinstantiation
   and authority changes. *)

open Ifdb_difc
module Db = Ifdb_core.Database
module Errors = Ifdb_core.Errors
module Value = Ifdb_rel.Value
module Tuple = Ifdb_rel.Tuple

let lbl ints = Label.of_ints (Array.of_list ints)

let mk_auth () =
  let a = Authority.create () in
  let p name = Authority.create_principal a ~actor_label:Label.empty ~name in
  (a, p)

let mk_tag a ?compounds owner name =
  Authority.create_tag a ~actor_label:Label.empty ~owner ~name ?compounds ()

(* ------------------------------------------------------------------ *)
(* Interning                                                           *)
(* ------------------------------------------------------------------ *)

let test_intern_dedup () =
  let a, _ = mk_auth () in
  let store = Label_store.create a in
  Alcotest.(check int) "empty is id 0" Label_store.empty_id
    (Label_store.intern store Label.empty);
  Alcotest.(check int) "empty_id is 0" 0 Label_store.empty_id;
  let id1 = Label_store.intern store (lbl [ 1; 2 ]) in
  let id2 = Label_store.intern store (lbl [ 3 ]) in
  let id1' = Label_store.intern store (lbl [ 1; 2 ]) in
  Alcotest.(check int) "same label, same id" id1 id1';
  Alcotest.(check bool) "distinct labels, distinct ids" true (id1 <> id2);
  (* ids are dense, in interning order, starting after the empty slot *)
  Alcotest.(check int) "first id" 1 id1;
  Alcotest.(check int) "second id" 2 id2;
  Alcotest.(check int) "size counts empty + 2" 3 (Label_store.size store);
  Alcotest.(check int) "stats agree" 3 (Label_store.stats store).interned

let test_intern_canonical () =
  let a, _ = mk_auth () in
  let store = Label_store.create a in
  let id = Label_store.intern store (lbl [ 4; 7 ]) in
  let c1 = Label_store.label_of store id in
  let c2 = Label_store.label_of store id in
  Alcotest.(check bool) "label_of returns the shared value" true (c1 == c2);
  Alcotest.(check bool) "canonical equals the interned label" true
    (Label.equal c1 (lbl [ 4; 7 ]));
  (match Label_store.label_of store 999 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unknown id should raise");
  match Label_store.label_of store (-1) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative id should raise"

let test_intern_many_growth () =
  (* exceed the initial table capacity to exercise array growth *)
  let a, _ = mk_auth () in
  let store = Label_store.create a in
  let ids =
    List.init 200 (fun i -> Label_store.intern store (lbl [ i + 1; 1000 ]))
  in
  List.iteri
    (fun i id ->
      Alcotest.(check bool) "roundtrip after growth" true
        (Label.equal (lbl [ i + 1; 1000 ]) (Label_store.label_of store id)))
    ids;
  Alcotest.(check int) "all distinct" 201 (Label_store.size store)

(* ------------------------------------------------------------------ *)
(* Flow cache: correctness, memoization, short circuits                *)
(* ------------------------------------------------------------------ *)

let test_flows_id_matches_authority () =
  let a, p = mk_auth () in
  let sys = p "system" and alice = p "alice" in
  let all = mk_tag a sys "all_drives" in
  let mine = mk_tag a ~compounds:[ all ] alice "alice_drives" in
  let store = Label_store.create a in
  let check src dst msg =
    let sid = Label_store.intern store src
    and did = Label_store.intern store dst in
    Alcotest.(check bool) msg
      (Authority.flows a ~src ~dst)
      (Label_store.flows_id store ~src:sid ~dst:did);
    (* and again, through the cache *)
    Alcotest.(check bool) (msg ^ " (cached)")
      (Authority.flows a ~src ~dst)
      (Label_store.flows_id store ~src:sid ~dst:did)
  in
  check (Label.singleton mine) (Label.singleton all) "member -> compound";
  check (Label.singleton all) (Label.singleton mine) "no reverse flow";
  check Label.empty (Label.singleton all) "public flows anywhere";
  check (Label.singleton mine) Label.empty "contaminated does not flow to public";
  check
    (Label.of_list [ mine; all ])
    (Label.singleton all)
    "mixed label flows via compound"

let test_flow_memoization_stats () =
  let a, p = mk_auth () in
  let alice = p "alice" in
  let t1 = mk_tag a alice "t1" and t2 = mk_tag a alice "t2" in
  let store = Label_store.create a in
  let src = Label_store.intern store (Label.singleton t1) in
  let dst = Label_store.intern store (Label.of_list [ t1; t2 ]) in
  ignore (Label_store.flows_id store ~src ~dst);
  let s1 = Label_store.stats store in
  Alcotest.(check int) "first probe misses" 1 s1.flow_misses;
  Alcotest.(check int) "no hit yet" 0 s1.flow_hits;
  ignore (Label_store.flows_id store ~src ~dst);
  ignore (Label_store.flows_id store ~src ~dst);
  let s2 = Label_store.stats store in
  Alcotest.(check int) "repeats hit" 2 s2.flow_hits;
  Alcotest.(check int) "still one miss" 1 s2.flow_misses;
  (* src = dst and empty src short-circuit without touching the cache *)
  Label_store.reset_stats store;
  Alcotest.(check bool) "refl" true (Label_store.flows_id store ~src ~dst:src);
  Alcotest.(check bool) "empty src" true
    (Label_store.flows_id store ~src:Label_store.empty_id ~dst);
  let s3 = Label_store.stats store in
  Alcotest.(check int) "no misses" 0 s3.flow_misses;
  Alcotest.(check int) "no hits" 0 s3.flow_hits

(* The domain-local memo must not pin verdicts of stores nobody holds:
   a process that creates many databases (one per benchmark repeat, one
   per test) would otherwise grow with every store it ever probed. *)
let test_dropped_stores_release_memo () =
  let memoize_in_fresh_store () =
    let a, p = mk_auth () in
    let owner = p "owner" in
    let tags = List.init 33 (fun i -> mk_tag a owner (Printf.sprintf "t%d" i)) in
    let store = Label_store.create a in
    let ids =
      List.map (fun t -> Label_store.intern store (Label.singleton t)) tags
    in
    (* 33 singletons give 33 * 32 ordered pairs of distinct labels *)
    let pairs =
      List.concat_map
        (fun src ->
          List.filter_map
            (fun dst -> if src <> dst then Some (src, dst) else None)
            ids)
        ids
    in
    List.iteri
      (fun i (src, dst) ->
        if i < 1000 then ignore (Label_store.flows_id store ~src ~dst))
      pairs;
    Alcotest.(check int) "1000 verdicts derived" 1000
      (Label_store.stats store).flow_misses
  in
  let live_words () =
    Gc.full_major ();
    (Gc.quick_stat ()).Gc.live_words
  in
  (* the first store sizes this domain's memo table *)
  memoize_in_fresh_store ();
  let before = live_words () in
  for _ = 1 to 200 do
    memoize_in_fresh_store ()
  done;
  let grown_mb =
    float_of_int ((live_words () - before) * (Sys.word_size / 8)) /. 1e6
  in
  Alcotest.(check bool)
    (Printf.sprintf "live heap grew %.2f MB over 200 dropped stores" grown_mb)
    true (grown_mb < 1.0)

(* ------------------------------------------------------------------ *)
(* Invalidation: any authority-state mutation drops cached verdicts    *)
(* ------------------------------------------------------------------ *)

(* Prime the cache with one (src, dst) verdict, run [mutate], and
   check the next probe recomputes instead of hitting. *)
let check_invalidates name mutate =
  let a, p = mk_auth () in
  let alice = p "alice" and bob = p "bob" in
  let t1 = mk_tag a alice "t1" and t2 = mk_tag a alice "t2" in
  let store = Label_store.create a in
  let src = Label_store.intern store (Label.singleton t1) in
  let dst = Label_store.intern store (Label.of_list [ t1; t2 ]) in
  ignore (Label_store.flows_id store ~src ~dst);
  ignore (Label_store.flows_id store ~src ~dst);
  let before = Label_store.stats store in
  Alcotest.(check int) (name ^ ": primed") 1 before.flow_hits;
  mutate a ~alice ~bob ~t1;
  ignore (Label_store.flows_id store ~src ~dst);
  let after = Label_store.stats store in
  Alcotest.(check int) (name ^ ": probe after mutation recomputes") 2
    after.flow_misses;
  Alcotest.(check int) (name ^ ": no new hit") 1 after.flow_hits;
  Alcotest.(check int) (name ^ ": invalidation recorded") 1 after.invalidations;
  (* and the cache re-fills for the new generation *)
  ignore (Label_store.flows_id store ~src ~dst);
  Alcotest.(check int) (name ^ ": warm again")
    2 (Label_store.stats store).flow_hits

let test_invalidate_on_compound_creation () =
  check_invalidates "compound tag creation" (fun a ~alice ~bob:_ ~t1 ->
      ignore (mk_tag a ~compounds:[ t1 ] alice "late_member"))

let test_invalidate_on_delegation () =
  check_invalidates "delegation" (fun a ~alice ~bob ~t1 ->
      Authority.delegate a ~actor:alice ~actor_label:Label.empty ~tag:t1
        ~grantee:bob)

let test_invalidate_on_revocation () =
  check_invalidates "revocation" (fun a ~alice ~bob ~t1 ->
      Authority.delegate a ~actor:alice ~actor_label:Label.empty ~tag:t1
        ~grantee:bob;
      (* two generation bumps with no probe in between collapse into
         the single wholesale invalidation the next probe observes *)
      Authority.revoke a ~actor:alice ~actor_label:Label.empty ~tag:t1
        ~grantee:bob)

(* ------------------------------------------------------------------ *)
(* End-to-end: database scans go through the store                     *)
(* ------------------------------------------------------------------ *)

(* CarTel-flavoured fixture: rows labeled {user_tag}, read by an
   analyst whose label carries the covering compound tag. *)
let scan_fixture () =
  let db = Db.create () in
  let admin = Db.connect_admin db in
  let all = Db.create_tag admin ~name:"all_drives" () in
  let user = Db.create_tag admin ~name:"user_drives" ~compounds:[ all ] () in
  ignore (Db.exec admin "CREATE TABLE drives (id INT PRIMARY KEY, mi INT)");
  let writer = Db.connect_admin db in
  Db.add_secrecy writer user;
  ignore (Db.exec writer "INSERT INTO drives VALUES (1, 10), (2, 20), (3, 30)");
  let analyst = Db.connect_admin db in
  Db.add_secrecy analyst all;
  (db, admin, analyst, user)

let count_rows s sql = List.length (Db.query s sql)

(* The first scan decides the table's partitions for this reader once
   (the analyzer and the executor share that verdict); a repeat reads
   the cached verdict and makes no flow check at all. *)
let test_db_scans_hit_flow_cache () =
  let db, _, analyst, _ = scan_fixture () in
  let store = Db.label_store db in
  Label_store.reset_stats store;
  Alcotest.(check int) "sees all rows" 3
    (count_rows analyst "SELECT * FROM drives");
  let s1 = Label_store.stats store in
  Alcotest.(check bool) "first scan derives at least one verdict" true
    (s1.flow_misses >= 1);
  Alcotest.(check int) "verdicts per distinct label pair, not per tuple" 1
    s1.flow_misses;
  Label_store.reset_stats store;
  Alcotest.(check int) "again" 3 (count_rows analyst "SELECT * FROM drives");
  let s2 = Label_store.stats store in
  Alcotest.(check int) "second scan answers from the cache" 0 s2.flow_misses;
  Alcotest.(check int) "and makes no flow check at all" 0 s2.flow_hits

let test_db_invalidation_after_compound_creation () =
  let db, admin, analyst, user = scan_fixture () in
  let store = Db.label_store db in
  ignore (count_rows analyst "SELECT * FROM drives");
  Label_store.reset_stats store;
  ignore (count_rows analyst "SELECT * FROM drives");
  Alcotest.(check int) "warm before mutation" 0
    (Label_store.stats store).flow_misses;
  (* authority change: a new compound tag moves the generation *)
  ignore (Db.create_tag admin ~name:"other_compound" ~compounds:[ user ] ());
  Label_store.reset_stats store;
  Alcotest.(check int) "query still correct" 3
    (count_rows analyst "SELECT * FROM drives");
  let s = Label_store.stats store in
  Alcotest.(check bool) "cached verdict was dropped and rederived" true
    (s.flow_misses >= 1)

let test_db_invalidation_after_revocation () =
  let db, admin, analyst, user = scan_fixture () in
  let store = Db.label_store db in
  let p = Db.create_principal admin ~name:"aide" in
  Db.delegate admin ~tag:user ~grantee:p;
  ignore (count_rows analyst "SELECT * FROM drives");
  Label_store.reset_stats store;
  ignore (count_rows analyst "SELECT * FROM drives");
  Alcotest.(check int) "warm before revoke" 0
    (Label_store.stats store).flow_misses;
  Db.revoke admin ~tag:user ~grantee:p;
  Label_store.reset_stats store;
  Alcotest.(check int) "query still correct" 3
    (count_rows analyst "SELECT * FROM drives");
  let s = Label_store.stats store in
  Alcotest.(check bool) "revocation dropped the cached verdict" true
    (s.flow_misses >= 1)

(* ------------------------------------------------------------------ *)
(* Polyinstantiation with interning                                    *)
(* ------------------------------------------------------------------ *)

let poly_fixture () =
  let db = Db.create () in
  let admin = Db.connect_admin db in
  let ta = Db.create_tag admin ~name:"a" () in
  let tb = Db.create_tag admin ~name:"b" () in
  ignore (Db.exec admin "CREATE TABLE t (k INT PRIMARY KEY, v INT)");
  let sa = Db.connect_admin db in
  Db.add_secrecy sa ta;
  let sb = Db.connect_admin db in
  Db.add_secrecy sb tb;
  (db, admin, sa, sb, ta, tb)

let test_polyinstantiation_interned () =
  let _, admin, sa, sb, ta, tb = poly_fixture () in
  (* the same user-visible key under two labels: both inserts land *)
  ignore (Db.exec sa "INSERT INTO t VALUES (1, 100)");
  ignore (Db.exec sb "INSERT INTO t VALUES (1, 200)");
  ignore (Db.exec sa "INSERT INTO t VALUES (2, 101)");
  (* each writer sees exactly its own instance *)
  let va =
    Value.to_int (Tuple.get (Db.query_one sa "SELECT v FROM t WHERE k = 1") 0)
  in
  let vb =
    Value.to_int (Tuple.get (Db.query_one sb "SELECT v FROM t WHERE k = 1") 0)
  in
  Alcotest.(check int) "a's instance" 100 va;
  Alcotest.(check int) "b's instance" 200 vb;
  (* an observer labeled {a, b} sees both polyinstantiated rows *)
  Db.add_secrecy admin ta;
  Db.add_secrecy admin tb;
  Alcotest.(check int) "high observer sees both" 2
    (List.length (Db.query admin "SELECT v FROM t WHERE k = 1"));
  (* uniqueness still bites within one label *)
  (match Db.exec sa "INSERT INTO t VALUES (1, 999)" with
  | exception Errors.Constraint_violation _ -> ()
  | _ -> Alcotest.fail "duplicate (key, label) must be rejected");
  (* interning: both of a's rows share one canonical label id *)
  let rows = Db.query sa "SELECT v FROM t" in
  Alcotest.(check int) "a sees its two rows" 2 (List.length rows);
  match rows with
  | [ r1; r2 ] ->
      Alcotest.(check bool) "projected rows keep their interned id" true
        (Tuple.label_id r1 >= 0);
      Alcotest.(check int) "same label, same id" (Tuple.label_id r1)
        (Tuple.label_id r2);
      Alcotest.(check bool) "and physically one label array" true
        (Tuple.label r1 == Tuple.label r2)
  | _ -> Alcotest.fail "expected two rows"

let suites =
  [
    ( "difc.label_store",
      [
        Alcotest.test_case "intern dedup & dense ids" `Quick test_intern_dedup;
        Alcotest.test_case "canonical label_of" `Quick test_intern_canonical;
        Alcotest.test_case "table growth" `Quick test_intern_many_growth;
        Alcotest.test_case "flows_id = Authority.flows" `Quick
          test_flows_id_matches_authority;
        Alcotest.test_case "memoization stats" `Quick test_flow_memoization_stats;
        Alcotest.test_case "dropped stores release the domain memo" `Quick
          test_dropped_stores_release_memo;
        Alcotest.test_case "invalidated by compound-tag creation" `Quick
          test_invalidate_on_compound_creation;
        Alcotest.test_case "invalidated by delegation" `Quick
          test_invalidate_on_delegation;
        Alcotest.test_case "invalidated by revocation" `Quick
          test_invalidate_on_revocation;
      ] );
    ( "difc.label_store.db",
      [
        Alcotest.test_case "scans hit the flow cache" `Quick
          test_db_scans_hit_flow_cache;
        Alcotest.test_case "compound creation invalidates (security)" `Quick
          test_db_invalidation_after_compound_creation;
        Alcotest.test_case "revocation invalidates (security)" `Quick
          test_db_invalidation_after_revocation;
        Alcotest.test_case "polyinstantiation with interning" `Quick
          test_polyinstantiation_interned;
      ] );
  ]
