(** Recursive-descent parser for the SQL dialect.

    The dialect covers what the paper's applications and benchmarks
    need: SELECT with joins (inner and left outer), grouping,
    aggregates, ordering and limits; INSERT/UPDATE/DELETE; DDL for
    tables, views and indexes; transaction control; stored-procedure
    invocation ([PERFORM f(...)]); and the IFDB extensions
    ([DECLASSIFYING] clauses, label literals, the [_label] column).
    Subqueries are supported in FROM; scalar subqueries are not. *)

exception Parse_error of string

val parse : string -> Ast.stmt list
(** Parse a semicolon-separated script. *)

val parse_tokens : Token.t array -> Ast.stmt list
(** [parse] over an already lexed token array, which must end with
    [Eof].  The tree's structure depends only on the tokens' kinds and
    identifiers: a literal's value only fills its constant. *)

val parse_one : string -> Ast.stmt
(** Parse exactly one statement (trailing semicolon allowed). *)

val parse_expr : string -> Ast.expr
(** Parse a standalone expression (used by tests and the REPL). *)
