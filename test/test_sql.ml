(* Tests for the SQL front end: lexer, parser, printer round-trips. *)

open Ifdb_sql
module Value = Ifdb_rel.Value
module Datatype = Ifdb_rel.Datatype

(* ------------------------------------------------------------------ *)
(* Lexer                                                               *)
(* ------------------------------------------------------------------ *)

let test_lexer_basics () =
  let toks =
    Array.to_list
      (Lexer.tokenize "SELECT a, b2 FROM t WHERE x <= 3.5 -- comment\n AND y <> 'it''s'")
  in
  let expect =
    Token.
      [ Ident "SELECT"; Ident "a"; Comma; Ident "b2"; Ident "FROM"; Ident "t";
        Ident "WHERE"; Ident "x"; Le; Float_lit 3.5; Ident "AND"; Ident "y";
        Neq; String_lit "it's"; Eof ]
  in
  Alcotest.(check int) "token count" (List.length expect) (List.length toks);
  List.iter2
    (fun a b -> Alcotest.(check string) "token" (Token.to_string a) (Token.to_string b))
    expect toks

let test_lexer_operators () =
  let toks =
    Array.to_list (Lexer.tokenize "( ) { } , . ; * + - / % = <> != < <= > >= ||")
  in
  Alcotest.(check int) "count" 21 (List.length toks);
  Alcotest.(check string) "neq both spellings" "<>"
    (Token.to_string (List.nth toks 14))

let test_lexer_exponents () =
  match Array.to_list (Lexer.tokenize "1e3 2.5E-2 7") with
  | [ Token.Float_lit a; Token.Float_lit b; Token.Int_lit c; Token.Eof ] ->
      Alcotest.(check (float 0.0001)) "1e3" 1000.0 a;
      Alcotest.(check (float 0.0001)) "2.5e-2" 0.025 b;
      Alcotest.(check int) "7" 7 c
  | _ -> Alcotest.fail "bad token stream"

let test_lexer_errors () =
  (match Lexer.tokenize "'unterminated" with
  | exception Lexer.Lex_error _ -> ()
  | _ -> Alcotest.fail "expected Lex_error");
  match Lexer.tokenize "a ? b" with
  | exception Lexer.Lex_error _ -> ()
  | _ -> Alcotest.fail "expected Lex_error on ?"

(* A shape masks each literal's value and keeps its kind; the blanks
   after a literal do not count. *)
let test_shape_keys () =
  let key text =
    match Shape.of_text text with Some sh -> sh.Shape.key | None -> "-"
  in
  let same = "SELECT a FROM t WHERE b = 1 AND c = 'x'" in
  Alcotest.(check string) "values masked" (key same)
    (key "SELECT a FROM t WHERE b = 22   AND c = 'it''s'");
  List.iter
    (fun other ->
      Alcotest.(check bool) ("differs from " ^ other) false (key same = key other))
    [ "SELECT a FROM t WHERE b = 1.5 AND c = 'x'";
      "SELECT a FROM t WHERE b = 1 AND c = 2";
      "SELECT a FROM t WHERE b = 1 AND d = 'x'" ];
  Alcotest.(check string) "not SELECT or DML" "-" (key "BEGIN");
  Alcotest.(check string) "own placeholders" "-" (key "SELECT a FROM t WHERE b = $1");
  match Shape.of_text "UPDATE t SET c = 'it''s' WHERE b = 7" with
  | Some sh ->
      Alcotest.(check (list string)) "literal values in order" [ "'it's'"; "7" ]
        (List.map Value.to_string (Array.to_list sh.Shape.values))
  | None -> Alcotest.fail "UPDATE has a shape"

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

let p = Parser.parse_one
let pe = Parser.parse_expr

let test_parse_select_simple () =
  match p "SELECT * FROM PatientRecords WHERE condition <> 'cancer'" with
  | Ast.S_select s ->
      Alcotest.(check int) "one item" 1 (List.length s.Ast.items);
      Alcotest.(check bool) "star" true (List.hd s.Ast.items = Ast.Sel_star);
      (match s.Ast.from with
      | Some (Ast.T_table ("PatientRecords", None)) -> ()
      | _ -> Alcotest.fail "from");
      Alcotest.(check bool) "where present" true (s.Ast.where <> None)
  | _ -> Alcotest.fail "expected select"

let test_parse_select_full () =
  match
    p
      "SELECT DISTINCT d.uid, COUNT(*) AS n, AVG(speed) avgspeed \
       FROM drives d JOIN cars c ON d.carid = c.carid \
       LEFT OUTER JOIN friends f ON f.uid = d.uid \
       WHERE d.dist > 10 AND c.make LIKE 'Toy%' \
       GROUP BY d.uid HAVING COUNT(*) > 2 \
       ORDER BY n DESC, d.uid LIMIT 10 OFFSET 5"
  with
  | Ast.S_select s ->
      Alcotest.(check bool) "distinct" true s.Ast.distinct;
      Alcotest.(check int) "items" 3 (List.length s.Ast.items);
      (match List.nth s.Ast.items 2 with
      | Ast.Sel_expr (Ast.E_fn ("AVG", _), Some "avgspeed") -> ()
      | _ -> Alcotest.fail "bare alias");
      (match s.Ast.from with
      | Some (Ast.T_join (Ast.T_join (_, Ast.Inner, _, Some _), Ast.Left, _, Some _)) -> ()
      | _ -> Alcotest.fail "join tree shape");
      Alcotest.(check int) "group by" 1 (List.length s.Ast.group_by);
      Alcotest.(check bool) "having" true (s.Ast.having <> None);
      Alcotest.(check int) "order by" 2 (List.length s.Ast.order_by);
      Alcotest.(check (option int)) "limit" (Some 10) s.Ast.limit;
      Alcotest.(check (option int)) "offset" (Some 5) s.Ast.offset
  | _ -> Alcotest.fail "expected select"

let test_parse_from_comma () =
  match p "SELECT * FROM a, b WHERE a.x = b.x" with
  | Ast.S_select { Ast.from = Some (Ast.T_join (_, Ast.Inner, _, None)); _ } -> ()
  | _ -> Alcotest.fail "comma join"

let test_parse_subquery () =
  match p "SELECT n FROM (SELECT COUNT(*) AS n FROM t) AS sub" with
  | Ast.S_select { Ast.from = Some (Ast.T_subquery (_, "sub")); _ } -> ()
  | _ -> Alcotest.fail "subquery in FROM"

let test_parse_insert_declassifying () =
  match
    p "INSERT INTO Drives (carid, dist) VALUES (1, 2.5), (2, 3.5) \
       DECLASSIFYING (alice_drives, alice_cars)"
  with
  | Ast.S_insert { i_table = "Drives"; i_columns = Some [ "carid"; "dist" ];
                   i_rows; i_declassifying; i_select = None } ->
      Alcotest.(check int) "two rows" 2 (List.length i_rows);
      Alcotest.(check (list string)) "declassifying"
        [ "alice_drives"; "alice_cars" ] i_declassifying
  | _ -> Alcotest.fail "insert"

let test_parse_update_delete () =
  (match p "UPDATE t SET a = a + 1, b = 'x' WHERE id = 3" with
  | Ast.S_update { u_sets; u_where = Some _; _ } ->
      Alcotest.(check int) "two sets" 2 (List.length u_sets)
  | _ -> Alcotest.fail "update");
  match p "DELETE FROM t" with
  | Ast.S_delete { d_where = None; _ } -> ()
  | _ -> Alcotest.fail "delete"

let test_parse_create_table () =
  match
    p
      "CREATE TABLE HIVPatients (\
         patient_name TEXT NOT NULL, \
         patient_dob TEXT NOT NULL, \
         severity INT, \
         doctor INT REFERENCES doctors (id), \
         PRIMARY KEY (patient_name, patient_dob), \
         UNIQUE (severity), \
         FOREIGN KEY (doctor) REFERENCES doctors (id))"
  with
  | Ast.S_create_table { ct_name = "HIVPatients"; ct_columns; ct_constraints } ->
      Alcotest.(check int) "4 columns" 4 (List.length ct_columns);
      Alcotest.(check bool) "not null" true (List.hd ct_columns).Ast.cd_not_null;
      (* column-level REFERENCES plus the 3 table constraints *)
      Alcotest.(check int) "constraints" 4 (List.length ct_constraints)
  | _ -> Alcotest.fail "create table"

let test_parse_create_view_declassifying () =
  match
    p
      "CREATE VIEW PCMembers AS SELECT firstName, lastName FROM ContactInfo \
       WHERE IsPCMember(contactId) WITH DECLASSIFYING (all_contacts)"
  with
  | Ast.S_create_view { cv_name = "PCMembers"; cv_declassifying = [ "all_contacts" ]; _ } ->
      ()
  | _ -> Alcotest.fail "declassifying view"

let test_parse_misc_statements () =
  Alcotest.(check bool) "begin" true (p "BEGIN TRANSACTION" = Ast.S_begin);
  Alcotest.(check bool) "commit" true (p "COMMIT" = Ast.S_commit);
  Alcotest.(check bool) "rollback" true (p "ABORT" = Ast.S_rollback);
  (match p "PERFORM addsecrecy(alice_medical)" with
  | Ast.S_perform ("addsecrecy", [ Ast.E_col (None, "alice_medical") ]) -> ()
  | _ -> Alcotest.fail "perform");
  (match p "CREATE INDEX i ON t (a, b)" with
  | Ast.S_create_index { ci_cols = [ "a"; "b" ]; _ } -> ()
  | _ -> Alcotest.fail "index");
  match p "DROP VIEW v" with
  | Ast.S_drop (`View, "v") -> ()
  | _ -> Alcotest.fail "drop"

let test_parse_label_literal () =
  match pe "_label = {alice_medical, bob_medical}" with
  | Ast.E_binop (Ast.Eq, Ast.E_col (None, "_label"),
                 Ast.E_label_lit [ "alice_medical"; "bob_medical" ]) ->
      ()
  | _ -> Alcotest.fail "label literal"

let test_parse_precedence () =
  (* a OR b AND c = a OR (b AND c) *)
  (match pe "a OR b AND c" with
  | Ast.E_binop (Ast.Or, Ast.E_col (None, "a"), Ast.E_binop (Ast.And, _, _)) -> ()
  | _ -> Alcotest.fail "or/and");
  (* 1 + 2 * 3 *)
  (match pe "1 + 2 * 3" with
  | Ast.E_binop (Ast.Add, _, Ast.E_binop (Ast.Mul, _, _)) -> ()
  | _ -> Alcotest.fail "add/mul");
  (* NOT a = b  parses as NOT (a = b) *)
  (match pe "NOT a = b" with
  | Ast.E_not (Ast.E_binop (Ast.Eq, _, _)) -> ()
  | _ -> Alcotest.fail "not binds loosely");
  (* x NOT IN (1,2) *)
  (match pe "x NOT IN (1, 2)" with
  | Ast.E_not (Ast.E_in _) -> ()
  | _ -> Alcotest.fail "not in");
  (* -3 folds *)
  match pe "-3" with
  | Ast.E_const (Value.Int (-3)) -> ()
  | _ -> Alcotest.fail "negative literal folding"

let test_parse_multi () =
  let stmts = Parser.parse "BEGIN; INSERT INTO t VALUES (1); COMMIT;" in
  Alcotest.(check int) "three statements" 3 (List.length stmts)

let test_parse_errors () =
  (* note: keywords are not reserved, so "SELECT FROM" parses as a
     projection of a column named FROM — deliberate, as in the lexer *)
  let bad = [ "INSERT t VALUES (1)"; "CREATE BLOB x";
              "SELECT * FROM t WHERE"; "UPDATE t SET"; "" ] in
  List.iter
    (fun sql ->
      match Parser.parse_one sql with
      | exception Parser.Parse_error _ -> ()
      | exception Lexer.Lex_error _ -> ()
      | _ -> Alcotest.failf "should not parse: %s" sql)
    bad

(* ------------------------------------------------------------------ *)
(* Printer round-trip                                                  *)
(* ------------------------------------------------------------------ *)

let roundtrip_stmt sql =
  let ast = Parser.parse_one sql in
  let printed = Printer.stmt_to_string ast in
  let ast2 = Parser.parse_one printed in
  if ast <> ast2 then
    Alcotest.failf "round-trip changed AST:\n  %s\n  -> %s\n  -> %s" sql printed
      (Printer.stmt_to_string ast2)

let test_roundtrip_corpus () =
  List.iter roundtrip_stmt
    [
      "SELECT * FROM t";
      "SELECT a, b AS c, t.d FROM t WHERE a = 1 AND b <> 'x' ORDER BY a DESC LIMIT 3";
      "SELECT DISTINCT x + 1 AS y FROM t GROUP BY x HAVING COUNT(*) > 1";
      "SELECT t.* FROM t";
      "SELECT a FROM t1 JOIN t2 ON t1.x = t2.x LEFT JOIN t3 ON t3.y = t1.y";
      "SELECT n FROM (SELECT COUNT(*) AS n FROM t) AS s";
      "SELECT CASE WHEN a > 1 THEN 'big' ELSE 'small' END FROM t";
      "SELECT * FROM t WHERE a IN (1, 2, 3) AND b LIKE 'x%' AND c IS NOT NULL";
      "SELECT * FROM t WHERE _label = {a_tag, b_tag}";
      "SELECT * FROM t WHERE _label = {}";
      "INSERT INTO t VALUES (1, 'a', NULL, TRUE, 2.5)";
      "INSERT INTO t (a, b) VALUES (1, 2), (3, 4) DECLASSIFYING (tag1)";
      "UPDATE t SET a = a + 1 WHERE b = 2";
      "DELETE FROM t WHERE x IS NULL";
      "CREATE TABLE t (a INT NOT NULL, b TEXT, PRIMARY KEY (a))";
      "CREATE VIEW v AS SELECT a FROM t WITH DECLASSIFYING (x)";
      "CREATE INDEX i ON t (a)";
      "DROP TABLE t";
      "BEGIN";
      "COMMIT";
      "ROLLBACK";
      "PERFORM declassify(foo)";
      "SELECT COUNT(DISTINCT a) FROM t GROUP BY b";
      "SELECT a FROM t UNION SELECT b FROM u";
      "SELECT a FROM t UNION ALL SELECT b FROM u ORDER BY a LIMIT 2";
      "INSERT INTO t (a) SELECT b FROM u WHERE b > 1";
      "SELECT * FROM t WHERE a = (SELECT MAX(b) FROM u)";
      "SELECT * FROM t WHERE EXISTS (SELECT * FROM u WHERE u.b = 1)";
    ]

(* Property: generated expressions survive print → parse. *)
let gen_expr : Ast.expr QCheck.Gen.t =
  let open QCheck.Gen in
  let ident = oneofl [ "a"; "b"; "c"; "xyz" ] in
  let const =
    oneof
      [
        map (fun i -> Ast.E_const (Value.Int i)) (int_range (-50) 50);
        map (fun s -> Ast.E_const (Value.Text s))
          (string_size ~gen:(oneofl [ 'a'; 'b'; '\'' ]) (int_bound 4));
        return (Ast.E_const Value.Null);
        return (Ast.E_const (Value.Bool true));
        map (fun (q, c) -> Ast.E_col (q, c)) (pair (option ident) ident);
        map (fun tags -> Ast.E_label_lit tags) (list_size (int_bound 3) ident);
      ]
  in
  let binop =
    oneofl
      Ast.[ Add; Sub; Mul; Div; Mod; Eq; Neq; Lt; Le; Gt; Ge; And; Or; Concat ]
  in
  fix
    (fun self depth ->
      if depth = 0 then const
      else
        frequency
          [
            (2, const);
            (3, map3 (fun op a b -> Ast.E_binop (op, a, b)) binop (self (depth - 1))
                 (self (depth - 1)));
            (1, map (fun e -> Ast.E_not e) (self (depth - 1)));
            (1, map (fun e -> Ast.E_is_null e) (self (depth - 1)));
            (1, map (fun e -> Ast.E_is_not_null e) (self (depth - 1)));
            (1, map2 (fun e vs -> Ast.E_in (e, vs)) (self (depth - 1))
                 (list_size (int_range 1 3) (self 0)));
            (1, map2 (fun e p -> Ast.E_like (e, p)) (self (depth - 1))
                 (string_size ~gen:(oneofl [ 'a'; '%'; '_' ]) (int_bound 4)));
            (1, map2 (fun name args -> Ast.E_fn (name, args)) ident
                 (list_size (int_bound 2) (self (depth - 1))));
            (1, return Ast.E_count_star);
            (1, map2 (fun branches default -> Ast.E_case (branches, default))
                 (list_size (int_range 1 2)
                    (pair (self (depth - 1)) (self (depth - 1))))
                 (option (self (depth - 1))));
          ])
    3

let expr_roundtrip_prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:1000 ~name:"expr print/parse round-trip"
       (QCheck.make ~print:Printer.expr_to_string gen_expr)
       (fun e ->
         let printed = Printer.expr_to_string e in
         match Parser.parse_expr printed with
         | e2 -> e = e2
         | exception _ -> false))

(* Fuzz: arbitrary byte soup and keyword soup must produce a typed
   error or a parse — never a crash or non-termination. *)
let fuzz_gibberish_prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:2000 ~name:"parser survives gibberish"
       (QCheck.make ~print:(Printf.sprintf "%S")
          QCheck.Gen.(string_size ~gen:(char_range '\x20' '\x7e') (int_bound 60)))
       (fun input ->
         match Parser.parse input with
         | _ -> true
         | exception Parser.Parse_error _ -> true
         | exception Lexer.Lex_error _ -> true))

let fuzz_token_soup_prop =
  let vocab =
    [| "SELECT"; "FROM"; "WHERE"; "INSERT"; "INTO"; "VALUES"; "UPDATE"; "SET";
       "DELETE"; "JOIN"; "LEFT"; "ON"; "GROUP"; "BY"; "ORDER"; "HAVING";
       "LIMIT"; "UNION"; "ALL"; "EXISTS"; "BETWEEN"; "AND"; "OR"; "NOT";
       "NULL"; "CASE"; "WHEN"; "THEN"; "END"; "DECLASSIFYING"; "WITH"; "AS";
       "t"; "u"; "a"; "b"; "("; ")"; ","; "="; "<"; ">"; "*"; "+"; "-"; "{";
       "}"; "'x'"; "1"; "2.5"; "_label" |]
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:2000 ~name:"parser survives keyword soup"
       (QCheck.make
          ~print:(fun ws -> String.concat " " ws)
          QCheck.Gen.(
            list_size (int_bound 25)
              (map (fun i -> vocab.(i)) (int_bound (Array.length vocab - 1)))))
       (fun words ->
         match Parser.parse (String.concat " " words) with
         | _ -> true
         | exception Parser.Parse_error _ -> true
         | exception Lexer.Lex_error _ -> true))

let suites =
  [
    ( "sql.lexer",
      [
        Alcotest.test_case "basics" `Quick test_lexer_basics;
        Alcotest.test_case "operators" `Quick test_lexer_operators;
        Alcotest.test_case "exponents" `Quick test_lexer_exponents;
        Alcotest.test_case "errors" `Quick test_lexer_errors;
        Alcotest.test_case "shape keys" `Quick test_shape_keys;
      ] );
    ( "sql.parser",
      [
        Alcotest.test_case "simple select" `Quick test_parse_select_simple;
        Alcotest.test_case "full select" `Quick test_parse_select_full;
        Alcotest.test_case "comma joins" `Quick test_parse_from_comma;
        Alcotest.test_case "subquery in FROM" `Quick test_parse_subquery;
        Alcotest.test_case "insert declassifying" `Quick test_parse_insert_declassifying;
        Alcotest.test_case "update/delete" `Quick test_parse_update_delete;
        Alcotest.test_case "create table" `Quick test_parse_create_table;
        Alcotest.test_case "declassifying view" `Quick
          test_parse_create_view_declassifying;
        Alcotest.test_case "misc statements" `Quick test_parse_misc_statements;
        Alcotest.test_case "label literal" `Quick test_parse_label_literal;
        Alcotest.test_case "precedence" `Quick test_parse_precedence;
        Alcotest.test_case "multi-statement" `Quick test_parse_multi;
        Alcotest.test_case "parse errors" `Quick test_parse_errors;
      ] );
    ( "sql.printer",
      [
        Alcotest.test_case "statement corpus round-trip" `Quick test_roundtrip_corpus;
        expr_roundtrip_prop;
        fuzz_gibberish_prop;
        fuzz_token_soup_prop;
      ] );
  ]
