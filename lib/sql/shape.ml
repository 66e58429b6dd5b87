(* Statement shapes: what the implicit plan cache keys literal SQL on.
   See shape.mli. *)

module Value = Ifdb_rel.Value

type t = { key : string; text : string; values : Value.t array }

(* A literal's span runs to the next token's start, so the key also
   drops the blanks and comments after a literal; the token stream is
   unchanged by that.  A marker byte cannot stand for anything else:
   outside string literals and comments, which it cannot end, the lexer
   rejects it. *)
let marker = function
  | Value.Int _ -> '\001'
  | Value.Float _ -> '\002'
  | _ -> '\003'

exception Not_entered

(* [text.[start .. stop-1]] is SELECT, INSERT, UPDATE or DELETE, in any
   case: all four are six letters *)
let entered_keyword text start stop =
  stop - start = 6
  && List.exists
       (fun kw ->
         let rec go k =
           k = 6
           || Char.lowercase_ascii text.[start + k] = kw.[k] && go (k + 1)
         in
         go 0)
       [ "select"; "insert"; "update"; "delete" ]

let of_text text =
  let buf = Buffer.create (String.length text) in
  let values = ref [] and first = ref true in
  let copied = ref 0 and pending = ref false in
  (* a token starts at [start]: a pending literal's span ends here *)
  let next start =
    first := false;
    if !pending then begin
      copied := start;
      pending := false
    end
  in
  let ident start stop =
    if !first && not (entered_keyword text start stop) then raise Not_entered;
    next start
  in
  let literal v start =
    Buffer.add_substring buf text !copied (start - !copied);
    Buffer.add_char buf (marker v);
    values := v :: !values;
    pending := true
  in
  let tok t start =
    if !first then raise Not_entered;
    next start;
    match t with
    | Token.Int_lit i -> literal (Value.Int i) start
    | Token.Float_lit f -> literal (Value.Float f) start
    | Token.String_lit s -> literal (Value.Text s) start
    | Token.Param _ -> raise Not_entered
    | _ -> ()
  in
  match Lexer.scan text ~ident ~tok with
  | () ->
      Buffer.add_substring buf text !copied (String.length text - !copied);
      Some
        {
          key = Buffer.contents buf;
          text;
          values = Array.of_list (List.rev !values);
        }
  | exception Not_entered -> None

let negate = function
  | Value.Int i -> Some (Value.Int (-i))
  | Value.Float f -> Some (Value.Float (-.f))
  | _ -> None

let values t negated =
  Array.mapi
    (fun k neg -> if neg then Option.get (negate t.values.(k)) else t.values.(k))
    negated

(* ------------------------------------------------------------------ *)
(* Lifting                                                             *)
(* ------------------------------------------------------------------ *)

exception Unlifted

let same a b = if a = b then b else raise Unlifted

let map2 f a b =
  if List.length a <> List.length b then raise Unlifted else List.map2 f a b

let opt2 f a b =
  match (a, b) with
  | Some a, Some b -> Some (f a b)
  | None, None -> None
  | _ -> raise Unlifted

let lift t tokens (stmt : Ast.stmt) =
  let n = Array.length t.values in
  let negated = Array.make n None in
  (* [$k] stands for literal k: its parse read v, the literal's value,
     or -v where the parser folded a minus sign into a number *)
  let bind k v ~neg =
    let lit = t.values.(k - 1) in
    let expected = if neg then negate lit else Some lit in
    if expected <> Some v then raise Unlifted;
    match negated.(k - 1) with
    | None -> negated.(k - 1) <- Some neg
    | Some n when n = neg -> ()
    | Some _ -> raise Unlifted
  in
  (* an expression in a value position: a WHERE or ON predicate, a SET
     right-hand side or a VALUES item.  IN lists, function arguments
     and anything not listed must read the same in both parses, that
     is, hold no literal. *)
  let rec value (l : Ast.expr) (p : Ast.expr) : Ast.expr =
    match (l, p) with
    | Ast.E_const v, Ast.E_param k ->
        bind k v ~neg:false;
        p
    | Ast.E_const v, Ast.E_neg (Ast.E_param k) ->
        bind k v ~neg:true;
        Ast.E_param k
    | Ast.E_binop (op, a, b), Ast.E_binop (op', a', b') when op = op' ->
        Ast.E_binop (op, value a a', value b b')
    | Ast.E_not a, Ast.E_not a' -> Ast.E_not (value a a')
    | Ast.E_neg a, Ast.E_neg a' -> Ast.E_neg (value a a')
    | Ast.E_is_null a, Ast.E_is_null a' -> Ast.E_is_null (value a a')
    | Ast.E_is_not_null a, Ast.E_is_not_null a' ->
        Ast.E_is_not_null (value a a')
    | Ast.E_in (a, xs), Ast.E_in (a', xs') -> Ast.E_in (value a a', same xs xs')
    | Ast.E_case (arms, d), Ast.E_case (arms', d') ->
        Ast.E_case
          ( map2 (fun (c, r) (c', r') -> (value c c', value r r')) arms arms',
            opt2 value d d' )
    | _ -> same l p
  in
  let rec select (l : Ast.select) (p : Ast.select) : Ast.select =
    let rest (s : Ast.select) = { s with Ast.from = None; where = None; unions = [] } in
    ignore (same (rest l) (rest p));
    {
      p with
      Ast.from = opt2 table l.Ast.from p.Ast.from;
      where = opt2 value l.Ast.where p.Ast.where;
      unions =
        map2
          (fun (k, a) (k', b) -> (same k k', select a b))
          l.Ast.unions p.Ast.unions;
    }
  and table (l : Ast.table_ref) (p : Ast.table_ref) =
    match (l, p) with
    | Ast.T_join (a, k, b, c), Ast.T_join (a', k', b', c') ->
        Ast.T_join (table a a', same k k', table b b', opt2 value c c')
    | Ast.T_subquery (s, al), Ast.T_subquery (s', al') ->
        Ast.T_subquery (select s s', same al al')
    | _ -> same l p
  in
  let lifted (p : Ast.stmt) =
    match (stmt, p) with
    | Ast.S_select l, Ast.S_select p -> Ast.S_select (select l p)
    | Ast.S_insert l, Ast.S_insert p ->
        ignore
          (same
             (Ast.S_insert { l with i_rows = []; i_select = None })
             (Ast.S_insert { p with i_rows = []; i_select = None }));
        Ast.S_insert
          {
            p with
            i_rows = map2 (map2 value) l.i_rows p.i_rows;
            i_select = opt2 select l.i_select p.i_select;
          }
    | Ast.S_update l, Ast.S_update p ->
        Ast.S_update
          {
            u_table = same l.u_table p.u_table;
            u_sets =
              map2 (fun (c, e) (c', e') -> (same c c', value e e')) l.u_sets
                p.u_sets;
            u_where = opt2 value l.u_where p.u_where;
          }
    | Ast.S_delete l, Ast.S_delete p ->
        Ast.S_delete
          { d_table = same l.d_table p.d_table;
            d_where = opt2 value l.d_where p.d_where }
    | _ -> raise Unlifted
  in
  let k = ref 0 in
  let params =
    Array.map
      (function
        | Token.Int_lit _ | Token.Float_lit _ | Token.String_lit _ ->
            incr k;
            Token.Param !k
        | tok -> tok)
      tokens
  in
  match Parser.parse_tokens params with
  | [ p ] -> (
      match lifted p with
      | template when Array.for_all Option.is_some negated ->
          Some (template, Array.map Option.get negated)
      | _ -> None
      | exception Unlifted -> None)
  | _ -> None
  | exception Parser.Parse_error _ -> None
