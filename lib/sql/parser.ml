exception Parse_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Parse_error s)) fmt

type state = { toks : Token.t array; mutable pos : int }

let peek st = st.toks.(st.pos)
let peek2 st =
  if st.pos + 1 < Array.length st.toks then st.toks.(st.pos + 1) else Token.Eof
let peek3 st =
  if st.pos + 2 < Array.length st.toks then st.toks.(st.pos + 2) else Token.Eof
let advance st = st.pos <- st.pos + 1

let expect st tok =
  if peek st = tok then advance st
  else fail "expected %s but found %s" (Token.to_string tok)
         (Token.to_string (peek st))

(* Case-insensitive keyword matching over Ident tokens. *)
let is_kw st kw =
  match peek st with
  | Token.Ident s -> String.lowercase_ascii s = kw
  | _ -> false

let is_kw2 st kw =
  match peek2 st with
  | Token.Ident s -> String.lowercase_ascii s = kw
  | _ -> false

let eat_kw st kw = if is_kw st kw then (advance st; true) else false

let expect_kw st kw =
  if not (eat_kw st kw) then
    fail "expected %s but found %s" (String.uppercase_ascii kw)
      (Token.to_string (peek st))

let ident st =
  match peek st with
  | Token.Ident s -> advance st; s
  | t -> fail "expected identifier but found %s" (Token.to_string t)

let int_lit st =
  match peek st with
  | Token.Int_lit i -> advance st; i
  | t -> fail "expected integer but found %s" (Token.to_string t)

let comma_separated st f =
  let rec go acc =
    let x = f st in
    if peek st = Token.Comma then begin advance st; go (x :: acc) end
    else List.rev (x :: acc)
  in
  go []

let paren_ident_list st =
  expect st Token.Lparen;
  let ids = comma_separated st ident in
  expect st Token.Rparen;
  ids

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

let rec parse_or st =
  let lhs = parse_and st in
  if eat_kw st "or" then Ast.E_binop (Ast.Or, lhs, parse_or st) else lhs

and parse_and st =
  let lhs = parse_not st in
  if eat_kw st "and" then Ast.E_binop (Ast.And, lhs, parse_and st) else lhs

and parse_not st =
  if is_kw st "not" then begin
    advance st;
    Ast.E_not (parse_not st)
  end
  else parse_cmp st

and parse_cmp st =
  let lhs = parse_add st in
  match peek st with
  | Token.Eq -> advance st; Ast.E_binop (Ast.Eq, lhs, parse_add st)
  | Token.Neq -> advance st; Ast.E_binop (Ast.Neq, lhs, parse_add st)
  | Token.Lt -> advance st; Ast.E_binop (Ast.Lt, lhs, parse_add st)
  | Token.Le -> advance st; Ast.E_binop (Ast.Le, lhs, parse_add st)
  | Token.Gt -> advance st; Ast.E_binop (Ast.Gt, lhs, parse_add st)
  | Token.Ge -> advance st; Ast.E_binop (Ast.Ge, lhs, parse_add st)
  | Token.Ident _ when is_kw st "is" ->
      advance st;
      if eat_kw st "not" then begin
        expect_kw st "null";
        Ast.E_is_not_null lhs
      end
      else begin
        expect_kw st "null";
        Ast.E_is_null lhs
      end
  | Token.Ident _ when is_kw st "in" ->
      advance st;
      expect st Token.Lparen;
      let vs = comma_separated st parse_or in
      expect st Token.Rparen;
      Ast.E_in (lhs, vs)
  | Token.Ident _ when is_kw st "like" ->
      advance st;
      (match peek st with
      | Token.String_lit p -> advance st; Ast.E_like (lhs, p)
      | t -> fail "LIKE expects a string literal, found %s" (Token.to_string t))
  | Token.Ident _ when is_kw st "between" ->
      advance st;
      let lo = parse_add st in
      expect_kw st "and";
      let hi = parse_add st in
      Ast.E_binop
        (Ast.And, Ast.E_binop (Ast.Ge, lhs, lo), Ast.E_binop (Ast.Le, lhs, hi))
  | Token.Ident _
    when is_kw st "not" && (is_kw2 st "in" || is_kw2 st "like" || is_kw2 st "between")
    ->
      advance st;
      if is_kw st "between" then begin
        advance st;
        let lo = parse_add st in
        expect_kw st "and";
        let hi = parse_add st in
        Ast.E_not
          (Ast.E_binop
             (Ast.And, Ast.E_binop (Ast.Ge, lhs, lo), Ast.E_binop (Ast.Le, lhs, hi)))
      end
      else if eat_kw st "in" then begin
        expect st Token.Lparen;
        let vs = comma_separated st parse_or in
        expect st Token.Rparen;
        Ast.E_not (Ast.E_in (lhs, vs))
      end
      else begin
        expect_kw st "like";
        match peek st with
        | Token.String_lit p -> advance st; Ast.E_not (Ast.E_like (lhs, p))
        | t -> fail "LIKE expects a string literal, found %s" (Token.to_string t)
      end
  | _ -> lhs

and parse_add st =
  let rec go lhs =
    match peek st with
    | Token.Plus -> advance st; go (Ast.E_binop (Ast.Add, lhs, parse_mul st))
    | Token.Minus -> advance st; go (Ast.E_binop (Ast.Sub, lhs, parse_mul st))
    | Token.Concat -> advance st; go (Ast.E_binop (Ast.Concat, lhs, parse_mul st))
    | _ -> lhs
  in
  go (parse_mul st)

and parse_mul st =
  let rec go lhs =
    match peek st with
    | Token.Star -> advance st; go (Ast.E_binop (Ast.Mul, lhs, parse_unary st))
    | Token.Slash -> advance st; go (Ast.E_binop (Ast.Div, lhs, parse_unary st))
    | Token.Percent -> advance st; go (Ast.E_binop (Ast.Mod, lhs, parse_unary st))
    | _ -> lhs
  in
  go (parse_unary st)

and parse_unary st =
  match peek st with
  | Token.Minus ->
      advance st;
      (* fold a negated numeric literal into the constant, so printing
         and reparsing are stable *)
      (match parse_unary st with
      | Ast.E_const (Ifdb_rel.Value.Int i) -> Ast.E_const (Ifdb_rel.Value.Int (-i))
      | Ast.E_const (Ifdb_rel.Value.Float f) ->
          Ast.E_const (Ifdb_rel.Value.Float (-.f))
      | e -> Ast.E_neg e)
  | _ -> parse_primary st

and parse_primary st =
  match peek st with
  | Token.Param n ->
      advance st;
      if n < 1 then fail "parameter placeholders are numbered from $1";
      Ast.E_param n
  | Token.Int_lit i -> advance st; Ast.E_const (Ifdb_rel.Value.Int i)
  | Token.Float_lit f -> advance st; Ast.E_const (Ifdb_rel.Value.Float f)
  | Token.String_lit s -> advance st; Ast.E_const (Ifdb_rel.Value.Text s)
  | Token.Lparen ->
      advance st;
      if is_kw st "select" then begin
        let sel = parse_select st in
        expect st Token.Rparen;
        Ast.E_scalar_subquery sel
      end
      else begin
        let e = parse_or st in
        expect st Token.Rparen;
        e
      end
  | Token.Lbrace ->
      (* label literal: {tag, tag, …} or {} *)
      advance st;
      if peek st = Token.Rbrace then begin
        advance st;
        Ast.E_label_lit []
      end
      else begin
        let tags = comma_separated st ident in
        expect st Token.Rbrace;
        Ast.E_label_lit tags
      end
  | Token.Ident s -> (
      let lower = String.lowercase_ascii s in
      match lower with
      | "null" -> advance st; Ast.E_const Ifdb_rel.Value.Null
      | "true" -> advance st; Ast.E_const (Ifdb_rel.Value.Bool true)
      | "false" -> advance st; Ast.E_const (Ifdb_rel.Value.Bool false)
      | "exists" ->
          advance st;
          expect st Token.Lparen;
          let sel = parse_select st in
          expect st Token.Rparen;
          Ast.E_exists sel
      | "case" ->
          advance st;
          let branches = ref [] in
          while is_kw st "when" do
            advance st;
            let cond = parse_or st in
            expect_kw st "then";
            let v = parse_or st in
            branches := (cond, v) :: !branches
          done;
          let default = if eat_kw st "else" then Some (parse_or st) else None in
          expect_kw st "end";
          Ast.E_case (List.rev !branches, default)
      | _ ->
          advance st;
          if peek st = Token.Lparen then begin
            advance st;
            if lower = "count" && peek st = Token.Star then begin
              advance st;
              expect st Token.Rparen;
              Ast.E_count_star
            end
            else if lower = "count" && is_kw st "distinct" then begin
              advance st;
              let e = parse_or st in
              expect st Token.Rparen;
              Ast.E_count_distinct e
            end
            else if peek st = Token.Rparen then begin
              advance st;
              Ast.E_fn (s, [])
            end
            else begin
              let args = comma_separated st parse_or in
              expect st Token.Rparen;
              Ast.E_fn (s, args)
            end
          end
          else if peek st = Token.Dot then
            match peek2 st with
            | Token.Ident col -> advance st; advance st; Ast.E_col (Some s, col)
            | _ -> Ast.E_col (None, s) (* leave the dot for the caller: table-dot-star *)
          else Ast.E_col (None, s))
  | t -> fail "unexpected token %s in expression" (Token.to_string t)

(* ------------------------------------------------------------------ *)
(* SELECT                                                              *)
(* ------------------------------------------------------------------ *)

and parse_select st : Ast.select =
  expect_kw st "select";
  let distinct = eat_kw st "distinct" in
  let items = comma_separated st parse_select_item in
  let from =
    if eat_kw st "from" then Some (parse_table_expr st) else None
  in
  let where = if eat_kw st "where" then Some (parse_or st) else None in
  let group_by =
    if is_kw st "group" then begin
      advance st;
      expect_kw st "by";
      comma_separated st parse_or
    end
    else []
  in
  let having = if eat_kw st "having" then Some (parse_or st) else None in
  let order_by =
    if is_kw st "order" then begin
      advance st;
      expect_kw st "by";
      comma_separated st (fun st ->
          let e = parse_or st in
          let dir =
            if eat_kw st "desc" then Ast.Desc
            else begin
              ignore (eat_kw st "asc");
              Ast.Asc
            end
          in
          (e, dir))
    end
    else []
  in
  let limit = if eat_kw st "limit" then Some (int_lit st) else None in
  let offset = if eat_kw st "offset" then Some (int_lit st) else None in
  let unions = ref [] in
  while is_kw st "union" do
    advance st;
    let kind = if eat_kw st "all" then `Union_all else `Union in
    unions := (kind, parse_select st) :: !unions
  done;
  {
    Ast.distinct;
    items;
    from;
    where;
    group_by;
    having;
    order_by;
    limit;
    offset;
    unions = List.rev !unions;
  }

and parse_select_item st =
  if peek st = Token.Star then begin
    advance st;
    Ast.Sel_star
  end
  else
    match (peek st, peek2 st, peek3 st) with
    | Token.Ident t, Token.Dot, Token.Star ->
        advance st; advance st; advance st;
        Ast.Sel_table_star t
    | _ ->
        let e = parse_or st in
        let alias =
          if eat_kw st "as" then Some (ident st)
          else
            (* bare alias: an identifier that is not a clause keyword *)
            match peek st with
            | Token.Ident s
              when not
                     (List.mem (String.lowercase_ascii s)
                        [ "from"; "where"; "group"; "having"; "order"; "limit";
                          "offset"; "union"; "as"; "asc"; "desc"; "with";
                          "declassifying" ]) ->
                advance st;
                Some s
            | _ -> None
        in
        Ast.Sel_expr (e, alias)

and parse_table_expr st =
  (* comma-separated FROM list desugars to inner joins with no ON *)
  let first = parse_join_chain st in
  let rec go acc =
    if peek st = Token.Comma then begin
      advance st;
      let next = parse_join_chain st in
      go (Ast.T_join (acc, Ast.Inner, next, None))
    end
    else acc
  in
  go first

and parse_join_chain st =
  let lhs = ref (parse_table_primary st) in
  let continue_ = ref true in
  while !continue_ do
    if is_kw st "join" || (is_kw st "inner" && is_kw2 st "join") then begin
      ignore (eat_kw st "inner");
      expect_kw st "join";
      let rhs = parse_table_primary st in
      expect_kw st "on";
      let cond = parse_or st in
      lhs := Ast.T_join (!lhs, Ast.Inner, rhs, Some cond)
    end
    else if is_kw st "left" then begin
      advance st;
      ignore (eat_kw st "outer");
      expect_kw st "join";
      let rhs = parse_table_primary st in
      expect_kw st "on";
      let cond = parse_or st in
      lhs := Ast.T_join (!lhs, Ast.Left, rhs, Some cond)
    end
    else continue_ := false
  done;
  !lhs

and parse_table_primary st =
  if peek st = Token.Lparen then begin
    advance st;
    let sub = parse_select st in
    expect st Token.Rparen;
    ignore (eat_kw st "as");
    let alias = ident st in
    Ast.T_subquery (sub, alias)
  end
  else begin
    let name = ident st in
    let alias =
      if eat_kw st "as" then Some (ident st)
      else
        match peek st with
        | Token.Ident s
          when not
                 (List.mem (String.lowercase_ascii s)
                    [ "join"; "inner"; "left"; "outer"; "on"; "where"; "group";
                      "having"; "order"; "limit"; "offset"; "as"; "with";
                      "declassifying"; "union" ]) ->
            advance st;
            Some s
        | _ -> None
    in
    Ast.T_table (name, alias)
  end

(* ------------------------------------------------------------------ *)
(* Other statements                                                    *)
(* ------------------------------------------------------------------ *)

let parse_declassifying st =
  if eat_kw st "declassifying" then paren_ident_list st else []

let parse_insert st =
  expect_kw st "insert";
  expect_kw st "into";
  let table = ident st in
  let columns =
    if peek st = Token.Lparen then Some (paren_ident_list st) else None
  in
  if is_kw st "select" then begin
    let sel = parse_select st in
    let declassifying = parse_declassifying st in
    Ast.S_insert { i_table = table; i_columns = columns; i_rows = [];
                   i_select = Some sel; i_declassifying = declassifying }
  end
  else begin
    expect_kw st "values";
    let row st =
      expect st Token.Lparen;
      let vs = comma_separated st parse_or in
      expect st Token.Rparen;
      vs
    in
    let rows = comma_separated st row in
    let declassifying = parse_declassifying st in
    Ast.S_insert { i_table = table; i_columns = columns; i_rows = rows;
                   i_select = None; i_declassifying = declassifying }
  end

let parse_update st =
  expect_kw st "update";
  let table = ident st in
  expect_kw st "set";
  let set st =
    let col = ident st in
    expect st Token.Eq;
    let e = parse_or st in
    (col, e)
  in
  let sets = comma_separated st set in
  let where = if eat_kw st "where" then Some (parse_or st) else None in
  Ast.S_update { u_table = table; u_sets = sets; u_where = where }

let parse_delete st =
  expect_kw st "delete";
  expect_kw st "from";
  let table = ident st in
  let where = if eat_kw st "where" then Some (parse_or st) else None in
  Ast.S_delete { d_table = table; d_where = where }

let parse_datatype st =
  let tyname = ident st in
  (* swallow a size suffix like VARCHAR(40) *)
  if peek st = Token.Lparen then begin
    advance st;
    ignore (int_lit st);
    (match peek st with
    | Token.Comma -> advance st; ignore (int_lit st)
    | _ -> ());
    expect st Token.Rparen
  end;
  match Ifdb_rel.Datatype.of_name tyname with
  | Some ty -> ty
  | None -> fail "unknown type %s" tyname

let parse_create_table st =
  let name = ident st in
  expect st Token.Lparen;
  let cols = ref [] and cons = ref [] in
  let parse_item st =
    if is_kw st "primary" then begin
      advance st;
      expect_kw st "key";
      cons := Ast.C_primary_key (paren_ident_list st) :: !cons
    end
    else if is_kw st "unique" then begin
      advance st;
      cons := Ast.C_unique (paren_ident_list st) :: !cons
    end
    else if is_kw st "foreign" then begin
      advance st;
      expect_kw st "key";
      let cs = paren_ident_list st in
      expect_kw st "references";
      let rt = ident st in
      let rcs = paren_ident_list st in
      cons := Ast.C_foreign_key { c_cols = cs; c_ref_table = rt; c_ref_cols = rcs } :: !cons
    end
    else begin
      let cname = ident st in
      let ty = parse_datatype st in
      let not_null = ref false and pk = ref false and uq = ref false in
      let rec attrs () =
        if is_kw st "not" then begin
          advance st;
          expect_kw st "null";
          not_null := true;
          attrs ()
        end
        else if is_kw st "primary" then begin
          advance st;
          expect_kw st "key";
          pk := true;
          attrs ()
        end
        else if is_kw st "unique" then begin
          advance st;
          uq := true;
          attrs ()
        end
        else if is_kw st "references" then begin
          (* column-level FK: col REFERENCES t(c) *)
          advance st;
          let rt = ident st in
          let rcs = paren_ident_list st in
          cons :=
            Ast.C_foreign_key { c_cols = [ cname ]; c_ref_table = rt; c_ref_cols = rcs }
            :: !cons;
          attrs ()
        end
      in
      attrs ();
      cols :=
        { Ast.cd_name = cname; cd_type = ty; cd_not_null = !not_null;
          cd_primary_key = !pk; cd_unique = !uq }
        :: !cols
    end
  in
  parse_item st;
  while peek st = Token.Comma do
    advance st;
    parse_item st
  done;
  expect st Token.Rparen;
  Ast.S_create_table
    { ct_name = name; ct_columns = List.rev !cols; ct_constraints = List.rev !cons }

let parse_create_view st ~materialized =
  let name = ident st in
  expect_kw st "as";
  let q = parse_select st in
  let declassifying =
    if eat_kw st "with" then begin
      expect_kw st "declassifying";
      paren_ident_list st
    end
    else []
  in
  Ast.S_create_view
    { cv_name = name; cv_query = q; cv_declassifying = declassifying;
      cv_materialized = materialized }

let parse_create st =
  expect_kw st "create";
  if eat_kw st "table" then parse_create_table st
  else if eat_kw st "view" then parse_create_view st ~materialized:false
  else if eat_kw st "materialized" then begin
    expect_kw st "view";
    parse_create_view st ~materialized:true
  end
  else if eat_kw st "index" then begin
    let name = ident st in
    expect_kw st "on";
    let table = ident st in
    let cols = paren_ident_list st in
    Ast.S_create_index { ci_name = name; ci_table = table; ci_cols = cols }
  end
  else fail "CREATE expects TABLE, [MATERIALIZED] VIEW or INDEX"

let parse_drop st =
  expect_kw st "drop";
  let kind =
    if eat_kw st "table" then `Table
    else if eat_kw st "view" then `View
    else if eat_kw st "index" then `Index
    else fail "DROP expects TABLE, VIEW or INDEX"
  in
  Ast.S_drop (kind, ident st)

let parse_perform st =
  let name = ident st in
  let args =
    if peek st = Token.Lparen then begin
      advance st;
      if peek st = Token.Rparen then begin advance st; [] end
      else begin
        let args = comma_separated st parse_or in
        expect st Token.Rparen;
        args
      end
    end
    else []
  in
  Ast.S_perform (name, args)

let rec parse_stmt st =
  if is_kw st "explain" then begin
    advance st;
    let x_analyze = eat_kw st "analyze" in
    Ast.S_explain { x_analyze; x_stmt = parse_stmt st }
  end
  else if is_kw st "select" then Ast.S_select (parse_select st)
  else if is_kw st "insert" then parse_insert st
  else if is_kw st "update" then parse_update st
  else if is_kw st "delete" then parse_delete st
  else if is_kw st "create" then parse_create st
  else if is_kw st "drop" then parse_drop st
  else if is_kw st "begin" then begin
    advance st;
    ignore (eat_kw st "work" || eat_kw st "transaction");
    Ast.S_begin
  end
  else if is_kw st "commit" then begin advance st; Ast.S_commit end
  else if is_kw st "rollback" || is_kw st "abort" then begin
    advance st;
    Ast.S_rollback
  end
  else if is_kw st "perform" || is_kw st "call" then begin
    advance st;
    parse_perform st
  end
  else if is_kw st "prepare" then begin
    advance st;
    let name = ident st in
    expect_kw st "as";
    Ast.S_prepare { pr_name = name; pr_stmt = parse_stmt st }
  end
  else if is_kw st "execute" then begin
    advance st;
    let name = ident st in
    let args =
      if peek st = Token.Lparen then begin
        advance st;
        if peek st = Token.Rparen then begin advance st; [] end
        else begin
          let args = comma_separated st parse_or in
          expect st Token.Rparen;
          args
        end
      end
      else []
    in
    Ast.S_execute { ex_name = name; ex_args = args }
  end
  else if is_kw st "deallocate" then begin
    advance st;
    if eat_kw st "all" then Ast.S_deallocate None
    else Ast.S_deallocate (Some (ident st))
  end
  else fail "unexpected start of statement: %s" (Token.to_string (peek st))

let parse_tokens toks =
  let st = { toks; pos = 0 } in
  let stmts = ref [] in
  while peek st <> Token.Eof do
    if peek st = Token.Semicolon then advance st
    else stmts := parse_stmt st :: !stmts
  done;
  List.rev !stmts

let parse input = parse_tokens (Lexer.tokenize input)

let parse_one input =
  match parse input with
  | [ s ] -> s
  | [] -> fail "empty input"
  | _ -> fail "expected exactly one statement"

let parse_expr input =
  let st = { toks = Lexer.tokenize input; pos = 0 } in
  let e = parse_or st in
  if peek st <> Token.Eof then
    fail "trailing input after expression: %s" (Token.to_string (peek st));
  e
