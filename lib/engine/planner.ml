module A = Ifdb_sql.Ast
module Expr = Ifdb_rel.Expr
module Value = Ifdb_rel.Value
module Label = Ifdb_difc.Label
module Authority = Ifdb_difc.Authority
module Schema = Ifdb_rel.Schema

exception Plan_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Plan_error s)) fmt

type pctx = {
  pc_catalog : Catalog.t;
  pc_auth : Authority.t;
  pc_exec : Executor.ctx option;
      (* execution context for lowering uncorrelated subqueries; None
         in plan-only contexts (subqueries then fail to lower) *)
}

let norm = String.lowercase_ascii

(* ------------------------------------------------------------------ *)
(* Bindings: name → row position                                       *)
(* ------------------------------------------------------------------ *)

type binding_entry = { be_qual : string option; be_name : string }
type binding = binding_entry array

let binding_of_schema qual (schema : Schema.t) : binding =
  let be_qual = Some (norm qual) in
  Array.map
    (fun c -> { be_qual; be_name = norm c.Schema.col_name })
    schema.Schema.columns

let binding_of_names qual names : binding =
  Array.of_list
    (List.map (fun n -> { be_qual = qual; be_name = norm n }) names)

(* The position of the one entry matching [qual.name], scanning the
   binding in place. *)
let resolve binding qual name =
  let name = norm name in
  let qual = Option.map norm qual in
  let hit = ref (-1) and hits = ref 0 in
  Array.iteri
    (fun i e ->
      if
        String.equal e.be_name name
        &&
        match (qual, e.be_qual) with
        | None, _ -> true
        | Some q, Some eq -> String.equal q eq
        | Some _, None -> false
      then begin
        if !hits = 0 then hit := i;
        incr hits
      end)
    binding;
  match !hits with
  | 0 ->
      fail "column %s%s does not exist"
        (match qual with Some q -> q ^ "." | None -> "")
        name
  | 1 -> !hit
  | _ -> fail "column reference %s is ambiguous" name

(* ------------------------------------------------------------------ *)
(* Expression lowering                                                 *)
(* ------------------------------------------------------------------ *)

let lower_binop : A.binop -> Expr.binop = function
  | A.Add -> Expr.Add | A.Sub -> Expr.Sub | A.Mul -> Expr.Mul
  | A.Div -> Expr.Div | A.Mod -> Expr.Mod
  | A.Eq -> Expr.Eq | A.Neq -> Expr.Neq | A.Lt -> Expr.Lt | A.Le -> Expr.Le
  | A.Gt -> Expr.Gt | A.Ge -> Expr.Ge
  | A.And -> Expr.And | A.Or -> Expr.Or | A.Concat -> Expr.Concat

let label_lit_value ctx names =
  let ids =
    List.map (fun n -> Ifdb_difc.Tag.to_int (Authority.find_tag ctx.pc_auth n)) names
  in
  Value.Ints (Label.to_ints (Label.of_ints (Array.of_list ids)))

(* Case-normalized structural equality of AST expressions, for
   matching SELECT items against GROUP BY keys. *)
let rec norm_ast (e : A.expr) : A.expr =
  match e with
  | A.E_const v -> A.E_const v
  | A.E_col (q, n) -> A.E_col (Option.map norm q, norm n)
  | A.E_binop (op, a, b) -> A.E_binop (op, norm_ast a, norm_ast b)
  | A.E_not a -> A.E_not (norm_ast a)
  | A.E_neg a -> A.E_neg (norm_ast a)
  | A.E_is_null a -> A.E_is_null (norm_ast a)
  | A.E_is_not_null a -> A.E_is_not_null (norm_ast a)
  | A.E_in (a, vs) -> A.E_in (norm_ast a, List.map norm_ast vs)
  | A.E_like (a, p) -> A.E_like (norm_ast a, p)
  | A.E_fn (n, args) -> A.E_fn (norm n, List.map norm_ast args)
  | A.E_count_star -> A.E_count_star
  | A.E_count_distinct e -> A.E_count_distinct (norm_ast e)
  | A.E_case (bs, d) ->
      A.E_case
        (List.map (fun (c, v) -> (norm_ast c, norm_ast v)) bs,
         Option.map norm_ast d)
  | A.E_label_lit names -> A.E_label_lit names
  | A.E_scalar_subquery sel -> A.E_scalar_subquery sel
  | A.E_exists sel -> A.E_exists sel
  | A.E_param n -> A.E_param n

(* ------------------------------------------------------------------ *)
(* Index selection                                                     *)
(* ------------------------------------------------------------------ *)

let rec conjuncts (e : Expr.t) =
  match e with
  | Expr.Binop (Expr.And, a, b) -> conjuncts a @ conjuncts b
  | e -> [ e ]

(* An expression usable as an index key at plan time: a non-NULL
   literal or a $n placeholder.  NULL literals never match an index
   probe, so they are dropped here; a NULL-valued parameter is only
   discovered at execution, where the scan yields nothing and the
   residual filter preserves semantics. *)
let index_key_leaf = function
  | Expr.Const v -> not (Value.is_null v)
  | Expr.Param _ -> true
  | _ -> false

(* column → constant/parameter equalities present in the predicate *)
let eq_consts pred =
  List.filter_map
    (function
      | Expr.Binop (Expr.Eq, Expr.Col i, ((Expr.Const _ | Expr.Param _) as e))
      | Expr.Binop (Expr.Eq, ((Expr.Const _ | Expr.Param _) as e), Expr.Col i)
        when index_key_leaf e ->
          Some (i, e)
      | _ -> None)
    (conjuncts pred)

(* range conditions (col <op> const-or-param) present in the predicate *)
let range_consts pred =
  List.filter_map
    (function
      | Expr.Binop (op, Expr.Col i, ((Expr.Const _ | Expr.Param _) as e))
        when index_key_leaf e -> (
          match op with
          | Expr.Ge -> Some (i, `Lo (e, true))
          | Expr.Gt -> Some (i, `Lo (e, false))
          | Expr.Le -> Some (i, `Hi (e, true))
          | Expr.Lt -> Some (i, `Hi (e, false))
          | _ -> None)
      | Expr.Binop (op, ((Expr.Const _ | Expr.Param _) as e), Expr.Col i)
        when index_key_leaf e -> (
          match op with
          | Expr.Le -> Some (i, `Lo (e, true))
          | Expr.Lt -> Some (i, `Lo (e, false))
          | Expr.Ge -> Some (i, `Hi (e, true))
          | Expr.Gt -> Some (i, `Hi (e, false))
          | _ -> None)
      | _ -> None)
    (conjuncts pred)

let best_prefix (tbl : Catalog.table) pred =
  let eqs = eq_consts pred in
  let ranges = range_consts pred in
  let prefix_for (idx : Catalog.index) =
    let rec go i acc =
      if i >= Array.length idx.Catalog.idx_cols then (List.rev acc, None)
      else
        match List.assoc_opt idx.Catalog.idx_cols.(i) eqs with
        | Some v -> go (i + 1) (v :: acc)
        | None ->
            (* no further equality: a range on this very component can
               still narrow the scan *)
            let col = idx.Catalog.idx_cols.(i) in
            let bounds =
              List.filter_map
                (fun (j, b) -> if j = col then Some b else None)
                ranges
            in
            let lo =
              List.fold_left
                (fun acc b -> match b with `Lo x -> Some x | `Hi _ -> acc)
                None bounds
            in
            let hi =
              List.fold_left
                (fun acc b -> match b with `Hi x -> Some x | `Lo _ -> acc)
                None bounds
            in
            ( List.rev acc,
              if lo = None && hi = None then None else Some (lo, hi) )
    in
    go 0 []
  in
  let candidates =
    List.filter_map
      (fun idx ->
        match prefix_for idx with
        | [], None -> None
        | [], Some _ when idx.Catalog.idx_cols = [||] -> None
        | prefix, range ->
            Some (idx.Catalog.idx_name, Array.of_list prefix, range))
      tbl.Catalog.tbl_indexes
  in
  let score (_, key, range) =
    (2 * Array.length key) + (match range with Some _ -> 1 | None -> 0)
  in
  List.fold_left
    (fun best cand ->
      match best with
      | Some b when score b >= score cand -> best
      | _ -> if score cand = 0 then best else Some cand)
    None candidates

(* ------------------------------------------------------------------ *)
(* Planning                                                            *)
(* ------------------------------------------------------------------ *)

let binding_arity (b : binding) = Array.length b

let and_all = function
  | [] -> None
  | c :: rest ->
      Some (List.fold_left (fun a b -> Expr.Binop (Expr.And, a, b)) c rest)

(* Which side of a join does an expression touch? *)
let side_of ~left_arity e =
  let cols = Expr.columns_used e in
  if cols = [] then `Either
  else if List.for_all (fun i -> i < left_arity) cols then `L
  else if List.for_all (fun i -> i >= left_arity) cols then `R
  else `Mixed

let extract_equi ~left_arity conjs =
  List.filter_map
    (fun conj ->
      match conj with
      | Expr.Binop (Expr.Eq, a, b) -> (
          match (side_of ~left_arity a, side_of ~left_arity b) with
          | `L, `R -> Some (a, Expr.shift_columns ~by:(-left_arity) b)
          | `R, `L -> Some (b, Expr.shift_columns ~by:(-left_arity) a)
          | _ -> None)
      | _ -> None)
    conjs

(* If a join side is a bare table scan and an index prefix can be
   bound entirely from the equi pairs, fetch that side per outer row
   through the index (index nested loop) instead of materializing and
   hashing it: the page traffic becomes proportional to matching rows,
   as in PostgreSQL's index-nested-loop plans. *)
let choose_probe ctx ~equi right_plan =
  match right_plan with
  | Plan.Scan { sc_table; sc_extra; sc_prefix = None; _ } -> (
      match Catalog.find_table ctx.pc_catalog sc_table with
      | None -> None
      | Some tbl ->
          let bindings =
            List.filter_map
              (fun (le, re) ->
                match re with Expr.Col j -> Some (j, le) | _ -> None)
              equi
          in
          let best =
            List.fold_left
              (fun best (idx : Catalog.index) ->
                let rec take i acc =
                  if i >= Array.length idx.Catalog.idx_cols then List.rev acc
                  else
                    match List.assoc_opt idx.Catalog.idx_cols.(i) bindings with
                    | Some le -> take (i + 1) (le :: acc)
                    | None -> List.rev acc
                in
                match take 0 [] with
                | [] -> best
                | prefix -> (
                    match best with
                    | Some (_, p) when List.length p >= List.length prefix ->
                        best
                    | _ -> Some (idx.Catalog.idx_name, prefix)))
              None tbl.Catalog.tbl_indexes
          in
          Option.map
            (fun (iname, prefix) ->
              (sc_table, iname, sc_extra, Array.of_list prefix))
            best)
  | Plan.One_row | Plan.Scan _ | Plan.Filter _ | Plan.Project _ | Plan.Join _
  | Plan.Aggregate _ | Plan.Distinct _ | Plan.Sort _ | Plan.Limit _
  | Plan.Declassify _ | Plan.Union _ | Plan.View _ ->
      None

let is_bare_scan = function
  | Plan.Scan { sc_prefix = None; _ } -> true
  | Plan.One_row | Plan.Scan _ | Plan.Filter _ | Plan.Project _ | Plan.Join _
  | Plan.Aggregate _ | Plan.Distinct _ | Plan.Sort _ | Plan.Limit _
  | Plan.Declassify _ | Plan.Union _ | Plan.View _ ->
      false

(* Predicate pushdown: route WHERE conjuncts (and, for inner joins, ON
   conjuncts) to the side of the plan they constrain, turning full
   Cartesian scans into filtered — and, on base tables, index-assisted —
   scans.  Pushing stops at Project/Aggregate/Declassify boundaries
   (their output coordinates differ from their input's). *)
let rec push_predicate ctx plan conjs =
  match plan with
  | Plan.Filter (sub, e) -> push_predicate ctx sub (conjuncts e @ conjs)
  | Plan.Scan { sc_table; sc_extra; sc_prefix = None; _ } -> (
      match and_all conjs with
      | None -> plan
      | Some pred ->
          let sc_prefix, (sc_lo, sc_hi) =
            match Catalog.find_table ctx.pc_catalog sc_table with
            | Some tbl -> (
                match best_prefix tbl pred with
                | Some (idx, key, range) ->
                    ( Some (idx, key),
                      match range with Some (lo, hi) -> (lo, hi) | None -> (None, None) )
                | None -> (None, (None, None)))
            | None -> (None, (None, None))
          in
          Plan.Filter
            (Plan.Scan { sc_table; sc_extra; sc_prefix; sc_lo; sc_hi }, pred))
  | Plan.Join { left; right; kind = `Inner; cond; left_arity; right_arity; equi = _; probe = _ }
    ->
      let all_conjs =
        (match cond with Some c -> conjuncts c | None -> []) @ conjs
      in
      let lefts, rest =
        List.partition (fun c -> side_of ~left_arity c = `L) all_conjs
      in
      let rights, cross =
        List.partition (fun c -> side_of ~left_arity c = `R) rest
      in
      let left' = push_predicate ctx left lefts in
      let right' =
        push_predicate ctx right
          (List.map (Expr.shift_columns ~by:(-left_arity)) rights)
      in
      let cond = and_all cross in
      let equi = extract_equi ~left_arity cross in
      let plain probe =
        Plan.Join
          { left = left'; right = right'; kind = `Inner; cond; left_arity;
            right_arity; equi; probe }
      in
      (match choose_probe ctx ~equi right' with
      | Some probe -> plain (Some probe)
      | None when is_bare_scan left' -> (
          (* sweeping the left side per query is the expensive case:
             try the flipped orientation and restore column order with
             a projection *)
          let flipped = List.map (fun (le, re) -> (re, le)) equi in
          match choose_probe ctx ~equi:flipped left' with
          | None -> plain None
          | Some probe ->
              let remap i = if i < left_arity then i + right_arity else i - left_arity in
              let swapped =
                Plan.Join
                  {
                    left = right';
                    right = left';
                    kind = `Inner;
                    cond = Option.map (Expr.map_columns remap) cond;
                    left_arity = right_arity;
                    right_arity = left_arity;
                    equi = flipped;
                    probe = Some probe;
                  }
              in
              Plan.Project
                ( swapped,
                  Array.init (left_arity + right_arity) (fun i ->
                      Expr.Col (if i < left_arity then i + right_arity else i - left_arity))
                ))
      | None -> plain None)
  | Plan.Join { left; right; kind = `Left; cond; left_arity; right_arity; equi; probe = _ }
    ->
      (* WHERE filters run after NULL padding, so only left-side
         conjuncts may sink below the join; the ON condition stays *)
      let lefts, rest =
        List.partition (fun c -> side_of ~left_arity c = `L) conjs
      in
      let right' = push_predicate ctx right [] in
      let join' =
        Plan.Join
          {
            left = push_predicate ctx left lefts;
            right = right';
            kind = `Left;
            cond;
            left_arity;
            right_arity;
            equi;
            probe = choose_probe ctx ~equi right';
          }
      in
      (match and_all rest with
      | None -> join'
      | Some pred -> Plan.Filter (join', pred))
  | Plan.View ({ v_mat = false; v_child; _ } as v) ->
      (* an ordinary view is transparent: route the conjuncts into its
         expansion (they stop at the Project/Declassify boundary inside,
         exactly as they did before the View wrapper existed) *)
      Plan.View { v with v_child = push_predicate ctx v_child conjs }
  | Plan.One_row | Plan.Scan _ | Plan.Project _ | Plan.Aggregate _
  | Plan.Distinct _ | Plan.Sort _ | Plan.Limit _ | Plan.Declassify _
  | Plan.Union _ | Plan.View { v_mat = true; _ } -> (
      (* a materialized view must keep predicates above the View node:
         when the read is served from maintained state, anything pushed
         inside [v_child] would silently not apply *)
      match and_all conjs with
      | None -> plan
      | Some pred -> Plan.Filter (plan, pred))

let item_name (item : A.select_item) =
  match item with
  | A.Sel_star | A.Sel_table_star _ -> assert false
  | A.Sel_expr (_, Some alias) -> norm alias
  | A.Sel_expr (e, None) -> (
      match e with
      | A.E_col (_, n) -> norm n
      | A.E_fn (n, _) -> norm n
      | A.E_count_star -> "count"
      | _ -> "?column?")

let rec plan_table_ref ctx ~extra (tref : A.table_ref) : Plan.t * binding =
  match tref with
  | A.T_table (name, alias) -> (
      let qual = Option.value ~default:name alias in
      match Catalog.find_table ctx.pc_catalog name with
      | Some tbl ->
          ( Plan.Scan
              { sc_table = norm name; sc_extra = extra; sc_prefix = None;
                sc_lo = None; sc_hi = None },
            binding_of_schema qual tbl.Catalog.tbl_schema )
      | None -> (
          match Catalog.find_view ctx.pc_catalog name with
          | Some vw ->
              let from_tags =
                Label.of_list (List.map fst vw.Catalog.vw_relabel)
              in
              let inner_extra =
                Label.union extra
                  (Label.union vw.Catalog.vw_declassify from_tags)
              in
              let sub, names = plan_select ctx ~extra:inner_extra vw.Catalog.vw_query in
              let inner =
                if Label.is_empty vw.Catalog.vw_declassify
                   && vw.Catalog.vw_relabel = []
                then sub
                else
                  Plan.Declassify
                    (sub, vw.Catalog.vw_declassify, vw.Catalog.vw_relabel)
              in
              let plan =
                Plan.View
                  { v_name = norm name; v_mat = vw.Catalog.vw_materialized;
                    v_extra = extra; v_child = inner }
              in
              (plan, binding_of_names (Some (norm qual)) names)
          | None -> fail "relation %s does not exist" name))
  | A.T_subquery (sel, alias) ->
      let sub, names = plan_select ctx ~extra sel in
      (sub, binding_of_names (Some (norm alias)) names)
  | A.T_join (l, kind, r, on) ->
      let lplan, lbind = plan_table_ref ctx ~extra l in
      let rplan, rbind = plan_table_ref ctx ~extra r in
      let binding = Array.append lbind rbind in
      let left_arity = binding_arity lbind in
      let right_arity = binding_arity rbind in
      let cond = Option.map (lower_expr ctx binding) on in
      (* extract equi-join pairs for hash join *)
      let equi =
        match cond with
        | None -> []
        | Some c ->
            List.filter_map
              (fun conj ->
                match conj with
                | Expr.Binop (Expr.Eq, a, b) ->
                    let side e =
                      let cols = Expr.columns_used e in
                      if cols = [] then `Either
                      else if List.for_all (fun i -> i < left_arity) cols then `L
                      else if List.for_all (fun i -> i >= left_arity) cols then `R
                      else `Mixed
                    in
                    (match (side a, side b) with
                    | `L, `R -> Some (a, Expr.shift_columns ~by:(-left_arity) b)
                    | `R, `L -> Some (b, Expr.shift_columns ~by:(-left_arity) a)
                    | _ -> None)
                | _ -> None)
              (conjuncts c)
      in
      let kind = match kind with A.Inner -> `Inner | A.Left -> `Left in
      ( Plan.Join { left = lplan; right = rplan; kind; cond; left_arity;
                    right_arity; equi; probe = None },
        binding )

and lower_expr ctx binding (e : A.expr) : Expr.t =
  let lower = lower_expr ctx binding in
  match e with
  | A.E_const v -> Expr.Const v
  | A.E_param n -> Expr.Param n
  | A.E_col (_, name) when norm name = "_label" -> Expr.Row_label
  | A.E_col (qual, name) -> Expr.Col (resolve binding qual name)
  | A.E_binop (op, a, b) -> Expr.Binop (lower_binop op, lower a, lower b)
  | A.E_not a -> Expr.Unop (Expr.Not, lower a)
  | A.E_neg a -> Expr.Unop (Expr.Neg, lower a)
  | A.E_is_null a -> Expr.Is_null (lower a)
  | A.E_is_not_null a -> Expr.Is_not_null (lower a)
  | A.E_in (a, vs) ->
      let consts =
        List.map (function A.E_const v -> Some v | _ -> None) vs
      in
      if List.for_all Option.is_some consts then
        Expr.In_list (lower a, List.map Option.get consts)
      else
        (* desugar to a disjunction of equalities *)
        let la = lower a in
        List.fold_left
          (fun acc v -> Expr.Binop (Expr.Or, acc, Expr.Binop (Expr.Eq, la, lower v)))
          (Expr.Const (Value.Bool false))
          vs
  | A.E_like (a, p) -> Expr.Like (lower a, p)
  | A.E_fn (name, _) when A.is_aggregate_name name ->
      fail "aggregate function %s is not allowed here" name
  | A.E_count_star -> fail "COUNT(*) is not allowed here"
  | A.E_count_distinct _ -> fail "COUNT(DISTINCT …) is not allowed here"
  | A.E_fn (name, args) -> Expr.Fn (norm name, List.map lower args)
  | A.E_case (branches, default) ->
      Expr.Case
        ( List.map (fun (c, v) -> (lower c, lower v)) branches,
          match default with Some d -> lower d | None -> Expr.Const Value.Null )
  | A.E_label_lit names -> Expr.Const (label_lit_value ctx names)
  | A.E_scalar_subquery sel -> (
      match ctx.pc_exec with
      | None -> fail "scalar subqueries are not available in this context"
      | Some ectx ->
          let plan, names = plan_select ctx sel in
          if List.length names <> 1 then
            fail "a scalar subquery must return exactly one column";
          Expr.Lazy_const
            (lazy
              (match Executor.run_list ectx plan with
              | [] -> Value.Null
              | [ row ] -> Ifdb_rel.Tuple.get row 0
              | _ :: _ :: _ ->
                  fail "scalar subquery returned more than one row")))
  | A.E_exists sel -> (
      match ctx.pc_exec with
      | None -> fail "EXISTS is not available in this context"
      | Some ectx ->
          let plan, _names = plan_select ctx sel in
          Expr.Lazy_const
            (lazy (Value.Bool (not (Seq.is_empty (Executor.run ectx plan))))))


(* Rewrites an expression in the post-aggregation coordinate system:
   group-key subtrees become key columns, aggregate calls become agg
   columns. *)
and lower_post_agg ctx binding ~keys_ast ~aggs (e : A.expr) : Expr.t =
  let find_key e =
    let ne = norm_ast e in
    let rec go i = function
      | [] -> None
      | k :: rest -> if norm_ast k = ne then Some i else go (i + 1) rest
    in
    go 0 keys_ast
  in
  let nkeys = List.length keys_ast in
  let register kind =
    aggs := !aggs @ [ kind ];
    Expr.Col (nkeys + List.length !aggs - 1)
  in
  let rec go e =
    match find_key e with
    | Some i -> Expr.Col i
    | None -> (
        match e with
        | A.E_param n -> Expr.Param n
        | A.E_count_star -> register Plan.Count_star
        | A.E_count_distinct e ->
            register (Plan.Count_distinct (lower_expr ctx binding e))
        | A.E_fn (name, args) when A.is_aggregate_name name -> (
            let arg =
              match args with
              | [ a ] -> lower_expr ctx binding a
              | _ -> fail "%s expects exactly one argument" name
            in
            match norm name with
            | "count" -> register (Plan.Count arg)
            | "sum" -> register (Plan.Sum arg)
            | "avg" -> register (Plan.Avg arg)
            | "min" -> register (Plan.Min arg)
            | "max" -> register (Plan.Max arg)
            | _ -> assert false)
        | A.E_const v -> Expr.Const v
        | A.E_label_lit names -> Expr.Const (label_lit_value ctx names)
        | (A.E_scalar_subquery _ | A.E_exists _) as sub ->
            lower_expr ctx binding sub
        | A.E_col (_, n) when norm n = "_label" -> Expr.Row_label
        | A.E_col (q, n) ->
            fail "column %s%s must appear in the GROUP BY clause"
              (match q with Some q -> q ^ "." | None -> "")
              n
        | A.E_binop (op, a, b) -> Expr.Binop (lower_binop op, go a, go b)
        | A.E_not a -> Expr.Unop (Expr.Not, go a)
        | A.E_neg a -> Expr.Unop (Expr.Neg, go a)
        | A.E_is_null a -> Expr.Is_null (go a)
        | A.E_is_not_null a -> Expr.Is_not_null (go a)
        | A.E_in (a, vs) ->
            List.fold_left
              (fun acc v -> Expr.Binop (Expr.Or, acc, Expr.Binop (Expr.Eq, go a, go v)))
              (Expr.Const (Value.Bool false))
              vs
        | A.E_like (a, p) -> Expr.Like (go a, p)
        | A.E_fn (name, args) -> Expr.Fn (norm name, List.map go args)
        | A.E_case (bs, d) ->
            Expr.Case
              ( List.map (fun (c, v) -> (go c, go v)) bs,
                match d with Some d -> go d | None -> Expr.Const Value.Null ))
  in
  go e

and plan_select ctx ?(extra = Label.empty) (sel : A.select) :
    Plan.t * string list =
  match sel.A.unions with
  | [] -> plan_select_one ctx ~extra sel
  | unions ->
      (* the last member's ORDER BY/LIMIT apply to the whole union *)
      let strip s =
        { s with A.order_by = []; limit = None; offset = None; unions = [] }
      in
      let last_kind, last_sel = List.nth unions (List.length unions - 1) in
      ignore last_kind;
      let order_by = last_sel.A.order_by in
      let limit = last_sel.A.limit and offset = last_sel.A.offset in
      let first_plan, names =
        plan_select_one ctx ~extra (strip { sel with A.unions = [] })
      in
      let arity = List.length names in
      let combined =
        List.fold_left
          (fun acc (kind, member) ->
            let mplan, mnames = plan_select_one ctx ~extra (strip member) in
            if List.length mnames <> arity then
              fail "each UNION member must return %d columns" arity;
            Plan.Union
              (acc, mplan, match kind with `Union -> `Distinct | `Union_all -> `All))
          first_plan unions
      in
      let out_binding = binding_of_names None names in
      let sorted =
        match order_by with
        | [] -> combined
        | obs ->
            let specs =
              List.map
                (fun (e, dir) ->
                  { Plan.key = lower_expr ctx out_binding e;
                    descending = (dir = A.Desc) })
                obs
            in
            Plan.Sort (combined, Array.of_list specs)
      in
      let limited =
        match (limit, offset) with
        | None, None -> sorted
        | l, o -> Plan.Limit (sorted, l, o)
      in
      (limited, names)

and plan_select_one ctx ~extra (sel : A.select) : Plan.t * string list =
  let src_plan, binding =
    match sel.A.from with
    | Some tref -> plan_table_ref ctx ~extra tref
    | None -> (Plan.One_row, [||])
  in
  let where = Option.map (lower_expr ctx binding) sel.A.where in
  let filtered =
    push_predicate ctx src_plan
      (match where with Some p -> conjuncts p | None -> [])
  in
  let is_agg_query =
    sel.A.group_by <> []
    || List.exists
         (function
           | A.Sel_expr (e, _) -> A.has_aggregate e
           | A.Sel_star | A.Sel_table_star _ -> false)
         sel.A.items
    || (match sel.A.having with Some h -> A.has_aggregate h | None -> false)
  in
  let projected, out_names, out_binding =
    if is_agg_query then begin
      let keys_ast = sel.A.group_by in
      let keys =
        Array.of_list (List.map (lower_expr ctx binding) keys_ast)
      in
      let aggs = ref [] in
      let item_exprs =
        List.map
          (fun item ->
            match item with
            | A.Sel_star | A.Sel_table_star _ ->
                fail "* is not allowed with GROUP BY or aggregates"
            | A.Sel_expr (e, _) -> lower_post_agg ctx binding ~keys_ast ~aggs e)
          sel.A.items
      in
      let having =
        Option.map (lower_post_agg ctx binding ~keys_ast ~aggs) sel.A.having
      in
      (* ORDER BY in aggregate queries sorts the grouped rows before
         projection; an output alias stands for its item's expression *)
      let resolve_alias e =
        match e with
        | A.E_col (None, n) -> (
            let n = norm n in
            let matching =
              List.find_opt
                (fun item ->
                  match item with
                  | A.Sel_expr (_, _) -> item_name item = n
                  | A.Sel_star | A.Sel_table_star _ -> false)
                sel.A.items
            in
            match matching with
            | Some (A.Sel_expr (ie, _)) -> ie
            | Some (A.Sel_star | A.Sel_table_star _) | None -> e)
        | _ -> e
      in
      let sort_specs =
        List.map
          (fun (e, dir) ->
            { Plan.key = lower_post_agg ctx binding ~keys_ast ~aggs (resolve_alias e);
              descending = (dir = A.Desc) })
          sel.A.order_by
      in
      let agg_plan =
        Plan.Aggregate
          { src = filtered; keys; aggs = Array.of_list !aggs }
      in
      let agg_plan =
        match having with Some h -> Plan.Filter (agg_plan, h) | None -> agg_plan
      in
      let agg_plan =
        match sort_specs with
        | [] -> agg_plan
        | specs -> Plan.Sort (agg_plan, Array.of_list specs)
      in
      let names = List.map item_name sel.A.items in
      ( Plan.Project (agg_plan, Array.of_list item_exprs),
        names,
        binding_of_names None names )
    end
    else begin
      let exprs = ref [] and names = ref [] in
      List.iter
        (fun item ->
          match item with
          | A.Sel_star ->
              Array.iteri
                (fun i e ->
                  exprs := Expr.Col i :: !exprs;
                  names := e.be_name :: !names)
                binding
          | A.Sel_table_star q ->
              let q = norm q in
              let found = ref false in
              Array.iteri
                (fun i e ->
                  if e.be_qual = Some q then begin
                    found := true;
                    exprs := Expr.Col i :: !exprs;
                    names := e.be_name :: !names
                  end)
                binding;
              if not !found then fail "no relation %s in FROM" q
          | A.Sel_expr (e, _) ->
              exprs := lower_expr ctx binding e :: !exprs;
              names := item_name item :: !names)
        sel.A.items;
      let exprs = Array.of_list (List.rev !exprs) in
      let names = List.rev !names in
      ( Plan.Project (filtered, exprs), names, binding_of_names None names )
    end
  in
  let distincted = if sel.A.distinct then Plan.Distinct projected else projected in
  (* ORDER BY: prefer resolving against the output columns; for
     non-aggregate queries fall back to sorting before projection *)
  let with_sort =
    match sel.A.order_by with
    | [] -> distincted
    | _ when is_agg_query -> distincted (* sorted pre-projection above *)
    | obs -> (
        let try_output () =
          List.map
            (fun (e, dir) ->
              { Plan.key = lower_expr ctx out_binding e;
                descending = (dir = A.Desc) })
            obs
        in
        match try_output () with
        | specs -> Plan.Sort (distincted, Array.of_list specs)
        | exception Plan_error _ when not is_agg_query && not sel.A.distinct ->
            (* sort the source rows, then re-project *)
            let specs =
              List.map
                (fun (e, dir) ->
                  { Plan.key = lower_expr ctx binding e;
                    descending = (dir = A.Desc) })
                obs
            in
            let sorted_src = Plan.Sort (filtered, Array.of_list specs) in
            (match projected with
            | Plan.Project (_, exprs) -> Plan.Project (sorted_src, exprs)
            | _ -> assert false))
  in
  let with_limit =
    match (sel.A.limit, sel.A.offset) with
    | None, None -> with_sort
    | l, o -> Plan.Limit (with_sort, l, o)
  in
  (with_limit, out_names)

let lower_expr_for_table ctx (schema : Schema.t) =
  (* an unqualified reference matches any entry by name, so the
     table-qualified binding serves both spellings *)
  lower_expr ctx (binding_of_schema schema.Schema.table_name schema)
