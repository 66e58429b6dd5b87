exception Lex_error of string * int

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_digit c = c >= '0' && c <= '9'

(* one table load per character in the identifier loop, the lexer's
   hottest *)
let ident_chars =
  String.init 256 (fun k ->
      let c = Char.chr k in
      if is_ident_start c || is_digit c then '\001' else '\000')

let is_ident_char c = String.unsafe_get ident_chars (Char.code c) = '\001'

(* The digits [start, stop) as an int.  One too large for an OCaml
   int is a typed lexical error at its own offset, never an escaping
   [Failure]. *)
let int_at input start stop =
  let v = ref 0 in
  for k = start to stop - 1 do
    let d = Char.code input.[k] - Char.code '0' in
    if !v > (max_int - d) / 10 then
      raise (Lex_error ("integer out of range", start));
    v := (!v * 10) + d
  done;
  !v

let scan input ~ident ~tok =
  let n = String.length input in
  let i = ref 0 in
  while !i < n do
    let c = input.[!i] in
    let start = !i in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr i
    else if c = '-' && !i + 1 < n && input.[!i + 1] = '-' then begin
      (* line comment *)
      while !i < n && input.[!i] <> '\n' do incr i done
    end
    else if is_ident_start c then begin
      while !i < n && is_ident_char (String.unsafe_get input !i) do incr i done;
      ident start !i
    end
    else if is_digit c then begin
      while !i < n && is_digit input.[!i] do incr i done;
      let is_float = ref false in
      if !i < n && input.[!i] = '.' && !i + 1 < n && is_digit input.[!i + 1] then begin
        is_float := true;
        incr i;
        while !i < n && is_digit input.[!i] do incr i done
      end;
      if !i < n && (input.[!i] = 'e' || input.[!i] = 'E')
         && (!i + 1 < n
             && (is_digit input.[!i + 1]
                 || ((input.[!i + 1] = '+' || input.[!i + 1] = '-')
                     && !i + 2 < n && is_digit input.[!i + 2])))
      then begin
        is_float := true;
        incr i;
        if input.[!i] = '+' || input.[!i] = '-' then incr i;
        while !i < n && is_digit input.[!i] do incr i done
      end;
      if !is_float then
        tok
          (Token.Float_lit (float_of_string (String.sub input start (!i - start))))
          start
      else tok (Token.Int_lit (int_at input start !i)) start
    end
    else if c = '\'' then begin
      (* a string without [''] is one copy of its span *)
      incr i;
      let escaped = ref false and closed = ref false in
      while not !closed do
        if !i >= n then raise (Lex_error ("unterminated string literal", !i));
        if input.[!i] = '\'' then
          if !i + 1 < n && input.[!i + 1] = '\'' then begin
            escaped := true;
            i := !i + 2
          end
          else closed := true
        else incr i
      done;
      let body = String.sub input (start + 1) (!i - start - 1) in
      incr i;
      let body =
        if not !escaped then body
        else
          String.concat "'"
            (List.filteri (fun k _ -> k mod 2 = 0) (String.split_on_char '\'' body))
      in
      tok (Token.String_lit body) start
    end
    else if c = '$' then begin
      incr i;
      let digits = !i in
      while !i < n && is_digit input.[!i] do incr i done;
      if !i = digits then
        raise (Lex_error ("expected digits after $ placeholder", !i));
      tok (Token.Param (int_at input digits !i)) start
    end
    else begin
      let two =
        if !i + 1 >= n then None
        else
          match (c, input.[!i + 1]) with
          | '<', '>' | '!', '=' -> Some Token.Neq
          | '<', '=' -> Some Token.Le
          | '>', '=' -> Some Token.Ge
          | '|', '|' -> Some Token.Concat
          | _ -> None
      in
      match two with
      | Some t -> tok t start; i := !i + 2
      | None ->
          (match c with
          | '(' -> tok Token.Lparen start
          | ')' -> tok Token.Rparen start
          | '{' -> tok Token.Lbrace start
          | '}' -> tok Token.Rbrace start
          | ',' -> tok Token.Comma start
          | '.' -> tok Token.Dot start
          | ';' -> tok Token.Semicolon start
          | '*' -> tok Token.Star start
          | '+' -> tok Token.Plus start
          | '-' -> tok Token.Minus start
          | '/' -> tok Token.Slash start
          | '%' -> tok Token.Percent start
          | '=' -> tok Token.Eq start
          | '<' -> tok Token.Lt start
          | '>' -> tok Token.Gt start
          | _ -> raise (Lex_error (Printf.sprintf "unexpected character %C" c, !i)));
          incr i
    end
  done;
  tok Token.Eof n

let tokenize input =
  let toks = ref [] in
  scan input
    ~ident:(fun start stop ->
      toks := Token.Ident (String.sub input start (stop - start)) :: !toks)
    ~tok:(fun t _ -> toks := t :: !toks);
  Array.of_list (List.rev !toks)

exception Found of int

let token_start input n =
  let k = ref 0 in
  let at start = if !k = n then raise (Found start) else incr k in
  match scan input ~ident:(fun start _ -> at start) ~tok:(fun _ start -> at start) with
  | () -> String.length input
  | exception Found start -> start
