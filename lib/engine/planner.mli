(** Lowering SQL ASTs to executable plans.

    The planner resolves names, expands views (wrapping declassifying
    views in {!Plan.Declassify} nodes and widening the readable label
    inside them, per section 4.3 of the paper), lowers expressions
    to {!Ifdb_rel.Expr}, picks equality-prefix index scans, extracts
    hash-join keys, and compiles grouping/aggregation. *)

module A = Ifdb_sql.Ast
module Expr = Ifdb_rel.Expr
module Value = Ifdb_rel.Value
module Label = Ifdb_difc.Label

exception Plan_error of string

type pctx = {
  pc_catalog : Catalog.t;
  pc_auth : Ifdb_difc.Authority.t;  (** for tag-name resolution in label
                                        literals and compound-aware
                                        declassification *)
  pc_exec : Executor.ctx option;
      (** execution context used to lower uncorrelated scalar
          subqueries and EXISTS (they evaluate lazily, at most once per
          statement); [None] in plan-only contexts *)
}

val plan_select : pctx -> ?extra:Label.t -> A.select -> Plan.t * string list
(** Plan a SELECT.  Returns the plan and the output column names.
    [extra] is the set of additionally readable tags inherited from an
    enclosing declassifying view (used when views nest). *)

val lower_expr_for_table :
  pctx -> Ifdb_rel.Schema.t -> A.expr -> Expr.t
(** Lower expressions whose names refer to a single table's columns
    (the DML VALUES/WHERE/SET case).  [_label] resolves to the row
    label; label literals resolve against the authority state.
    [lower_expr_for_table ctx schema] builds the table's column binding
    once and returns the lowering function: apply it once per
    statement and lower each of its expressions with the result. *)

val best_prefix :
  Catalog.table ->
  Expr.t ->
  (string
  * Expr.t array
  * ((Expr.t * bool) option * (Expr.t * bool) option) option)
  option
(** Given a lowered predicate over a table's rows, find the index with
    the longest equality-prefix usable for a lookup: returns the index
    name, the prefix key expressions (non-NULL literals or [$n]
    placeholders), and an optional range (lo, hi bounds, each
    [(expr, inclusive)]) on the component after the prefix.  Key
    expressions are evaluated at scan start, so one plan serves every
    parameter binding. *)

val conjuncts : Expr.t -> Expr.t list
(** Split a predicate on top-level ANDs. *)
