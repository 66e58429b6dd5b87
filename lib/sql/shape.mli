(** Statement shapes, which the implicit plan cache keys literal SQL on.

    A statement's shape is its token stream with each literal's value
    masked and its kind (integer, float, string) kept.  The parser
    builds the same tree for every text of one shape, up to the values
    of its constants, so a check made on one text holds for all of
    them. *)

type t = private {
  key : string;
      (** the text with each literal, and the blanks after it, replaced
          by a byte naming its kind: equal keys mean equal shapes *)
  text : string;
  values : Ifdb_rel.Value.t array;  (** the literals' values, in order *)
}

val of_text : string -> t option
(** The shape of a statement text, from one pass of the lexer that
    builds no identifier.  [None] for a statement that is not a SELECT,
    INSERT, UPDATE or DELETE, or that has [$n] placeholders of its own:
    no shape entry is made for those.  Raises [Lexer.Lex_error] where
    [Lexer.tokenize] would, unless it returns [None] first. *)

val lift : t -> Token.t array -> Ast.stmt -> (Ast.stmt * bool array) option
(** [lift shape tokens stmt], where [tokens] is [Lexer.tokenize] of the
    shape's text and [stmt] their parse:
    the statement's [$k] template, with literal [k] replaced by [$k],
    and whether [$k] binds the literal negated.

    The template is parsed from the tokens with each literal replaced by
    its placeholder and compared with [stmt] node by node.  [None]
    unless every difference is a constant [v_k] opposite [$k], or a
    folded negative number [-v_k] opposite [-$k] (which becomes [$k]
    bound to [-v_k]), and every placeholder sits in a value position: a
    WHERE or ON predicate outside IN lists and function arguments, a SET
    right-hand side or a VALUES item.  Elsewhere a placeholder is not
    the same as a literal: an IN list of literals lowers to a membership
    test, GROUP BY, HAVING and ORDER BY match expressions by their
    syntax, and LIMIT, OFFSET and LIKE accept only literal tokens. *)

val values : t -> bool array -> Ifdb_rel.Value.t array
(** The bindings of a text of a lifted shape: its literals in order,
    negated where [lift] said so. *)
