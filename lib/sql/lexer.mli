(** Hand-written SQL lexer.

    Supports: identifiers (letters, digits, [_], starting with a letter
    or [_]), integer and float literals, single-quoted strings with
    [''] escaping, [--] line comments, and the operator/punctuation set
    of the dialect, including [{…}] label-literal braces and [||]. *)

exception Lex_error of string * int
(** Message and byte offset.  An integer literal or a [$n] placeholder
    too large for an [int] is one, at the offset of its first digit. *)

val scan :
  string -> ident:(int -> int -> unit) -> tok:(Token.t -> int -> unit) -> unit
(** The lexer proper: calls [ident start stop] for each identifier
    [input.[start .. stop-1]], and [tok t start] for every other token
    starting at byte [start], [Eof] last at the input's length.  An
    identifier costs no allocation here, so a caller that only needs the
    literals skips building the identifiers' strings. *)

val tokenize : string -> Token.t array
(** Whole-input tokenization; the array always ends with [Eof]. *)

val token_start : string -> int -> int
(** Byte offset at which token [n] (0-based) starts; the input's length
    past the last one. *)
