(* Incremental maintenance of (declassifying) materialized views.

   Each CREATE MATERIALIZED VIEW query is compiled to delta form
   (DBToaster-style signed multisets): the maintained state is keyed by
   the *interned label id* of the contributing base rows, so every
   label partition is maintained separately and polyinstantiated
   duplicates stay separate entries.  Declassification and the Label
   Confinement Rule are applied only at read time, from the partition
   ids — the state itself stores undeclassified data and is therefore
   never consulted without a per-partition flow check.

   Supported shapes (everything else falls back to per-read
   recomputation through the view's ordinary plan):

     core   := Scan | Filter(core) | InnerJoin(core, core)   (≤ 2 scans)
     view   := Project(core)                                  rows
             | Sort(Project(core))                            rows + sort
             | Project([Sort]([Filter_having](Aggregate(core))))

   with every expression pure (no user functions, no subqueries) and
   no COUNT(DISTINCT), DISTINCT, LIMIT or outer join.

   Delta evaluation: single-scan cores are maintained from the
   committed transaction's write set alone (insert = +1, delete = −1 —
   an UPDATE contributes both and the signs compose).  Two-scan cores
   use the classic bilinear rule

     Δ(A ⋈ B) = ΔA ⋈ B_new  +  A_new ⋈ ΔB  −  ΔA ⋈ ΔB

   where X_new is the committed-now content of the base table
   (supplied by the core as a privileged, label-blind scan: the state
   must hold *all* partitions; visibility is a read-time question).
   Join deltas assume commits are applied in order (single writer at a
   time) — see DESIGN.md 6.6.

   Aggregates maintain group-wise signed state mirroring the
   executor's [agg_state] semantics exactly: COUNT/SUM/AVG merge
   associatively under signs; MIN/MAX are maintained on insert and
   mark the view stale on a contributing delete (the extreme may have
   left).  A stale view is fully refreshed on its next read. *)

module Expr = Ifdb_rel.Expr
module Value = Ifdb_rel.Value
module Tuple = Ifdb_rel.Tuple
module Label = Ifdb_difc.Label
module Label_store = Ifdb_difc.Label_store
module Authority = Ifdb_difc.Authority

(* ------------------------------------------------------------------ *)
(* Shape compilation                                                   *)
(* ------------------------------------------------------------------ *)

exception Unsupported of string

let unsupported fmt = Format.kasprintf (fun s -> raise (Unsupported s)) fmt

(* Only pure row computations may run during maintenance or a
   served read: user functions re-enter session state and subqueries
   re-run plans — both also make delta form unsound. *)
let rec pure_expr (e : Expr.t) =
  match e with
  | Expr.Const _ | Expr.Col _ | Expr.Row_label -> true
  | Expr.Fn _ | Expr.Lazy_const _ | Expr.Param _ -> false
  | Expr.Binop (_, a, b) -> pure_expr a && pure_expr b
  | Expr.Unop (_, a)
  | Expr.Is_null a
  | Expr.Is_not_null a
  | Expr.In_list (a, _)
  | Expr.Like (a, _) ->
      pure_expr a
  | Expr.Case (branches, default) ->
      List.for_all (fun (c, v) -> pure_expr c && pure_expr v) branches
      && pure_expr default

let check_pure what e =
  if not (pure_expr e) then
    unsupported "%s uses a function or subquery" what

(* The source tree: scans glued by pure filters and inner joins.  Scan
   nodes are numbered left to right; [sc_prefix]/ranges are ignored —
   the planner keeps the full predicate in the Filter above, so a full
   scan plus that filter is equivalent. *)
type src =
  | S_scan of int                    (* scan slot *)
  | S_filter of src * Expr.t
  | S_join of { l : src; r : src; cond : Expr.t option }

type kind =
  | K_rows of { exprs : Expr.t array; sort : Plan.order_spec array }
      (* Project over the core; [sort] is in output coordinates *)
  | K_agg of {
      keys : Expr.t array;           (* source coordinates *)
      aggs : Plan.agg_kind array;    (* source coordinates *)
      having : Expr.t option;        (* post-aggregation coordinates *)
      sort : Plan.order_spec array;  (* post-aggregation coordinates *)
      exprs : Expr.t array;          (* final projection, post-agg coords *)
    }

type compiled = {
  c_src : src;
  c_tables : string array;           (* scan slot -> table name *)
  c_kind : kind;
}

let rec compile_src tables (plan : Plan.t) : src =
  match plan with
  | Plan.Scan { sc_table; _ } ->
      tables := !tables @ [ sc_table ];
      S_scan (List.length !tables - 1)
  | Plan.Filter (p, e) ->
      check_pure "a WHERE predicate" e;
      S_filter (compile_src tables p, e)
  | Plan.Join { kind = `Left; _ } -> unsupported "LEFT JOIN"
  | Plan.Join { left; right; kind = `Inner; cond; _ } ->
      Option.iter (check_pure "a join condition") cond;
      let l = compile_src tables left in
      let r = compile_src tables right in
      S_join { l; r; cond }
  | Plan.Project _ -> unsupported "a derived table (subquery in FROM)"
  | Plan.View { v_name; _ } -> unsupported "nested view %s" v_name
  | Plan.One_row -> unsupported "a FROM-less SELECT"
  | Plan.Aggregate _ -> unsupported "a nested aggregate"
  | Plan.Distinct _ -> unsupported "DISTINCT"
  | Plan.Sort _ -> unsupported "ORDER BY inside the source"
  | Plan.Limit _ -> unsupported "LIMIT"
  | Plan.Declassify _ -> unsupported "a nested declassifying view"
  | Plan.Union _ -> unsupported "UNION"

let check_agg (kind : Plan.agg_kind) =
  match kind with
  | Plan.Count_star -> ()
  | Plan.Count_distinct _ -> unsupported "COUNT(DISTINCT)"
  | Plan.Count e | Plan.Sum e | Plan.Avg e | Plan.Min e | Plan.Max e ->
      check_pure "an aggregate argument" e

let compile_sort specs =
  Array.iter (fun s -> check_pure "an ORDER BY key" s.Plan.key) specs;
  specs

(* [plan] is the planner's expansion of the view body (without the
   Declassify boundary above it). *)
let compile (plan : Plan.t) : compiled =
  let tables = ref [] in
  let finish c_src c_kind =
    let c_tables = Array.of_list !tables in
    if Array.length c_tables > 2 then
      unsupported "more than two base tables";
    { c_src; c_tables; c_kind }
  in
  match plan with
  | Plan.Sort (Plan.Project (core, exprs), specs) ->
      Array.iter (check_pure "a SELECT item") exprs;
      finish (compile_src tables core)
        (K_rows { exprs; sort = compile_sort specs })
  | Plan.Project (inner, exprs) -> (
      Array.iter (check_pure "a SELECT item") exprs;
      let sort, inner =
        match inner with
        | Plan.Sort (i, specs) -> (compile_sort specs, i)
        | i -> ([||], i)
      in
      let having, inner =
        match inner with
        | Plan.Filter (i, h) when (match i with Plan.Aggregate _ -> true | _ -> false) ->
            check_pure "a HAVING predicate" h;
            (Some h, i)
        | i -> (None, i)
      in
      match inner with
      | Plan.Aggregate { src; keys; aggs } ->
          Array.iter (check_pure "a GROUP BY key") keys;
          Array.iter check_agg aggs;
          finish (compile_src tables src)
            (K_agg { keys; aggs; having; sort; exprs })
      | core ->
          if sort <> [||] || having <> None then
            unsupported "ORDER BY below the projection";
          finish (compile_src tables core) (K_rows { exprs; sort = [||] }))
  | Plan.Distinct _ -> unsupported "DISTINCT"
  | Plan.Limit _ -> unsupported "LIMIT"
  | _ -> unsupported "this query shape"

(* ------------------------------------------------------------------ *)
(* Maintained state                                                    *)
(* ------------------------------------------------------------------ *)

(* Signed counterpart of the executor's [agg_state].  [a_floats]
   counts Float contributions so SUM's result type stays exact under
   deletion (the executor's one-way [saw_float] cannot be unset). *)
type agg_cell = {
  mutable a_count : int;
  mutable a_sum_int : int;
  mutable a_sum_float : float;
  mutable a_floats : int;
  mutable a_extreme : Value.t;
}

let new_cell () =
  { a_count = 0; a_sum_int = 0; a_sum_float = 0.0; a_floats = 0;
    a_extreme = Value.Null }

type group = { mutable g_rows : int; g_cells : agg_cell array }

(* State keys are (partition label id, value list). *)
type state =
  | St_rows of (int * Value.t list, int ref) Hashtbl.t
  | St_agg of (int * Value.t list, group) Hashtbl.t

type view = {
  mv_name : string;
  mv_declassify : Label.t;
  mv_relabel : (Ifdb_difc.Tag.t * Ifdb_difc.Tag.t) list;
  mv_shape : (compiled, string) result;
  mutable mv_state : state option;
  mutable mv_stale : bool;
  mutable mv_deltas : int;      (* commit-time delta applications *)
  mutable mv_refreshes : int;   (* full recomputations of the state *)
  mutable mv_served : int;      (* reads answered from the state *)
  mutable mv_recomputes : int;  (* reads that fell back to the plan *)
  mutable mv_skips : int;
      (* commit deltas skipped because label analysis proved no write
         could affect the view's partitions *)
  mutable mv_affects : (string -> int -> bool) option;
      (* [Some f]: [f table lid] says whether a committed write to
         [table] under label id [lid] can affect the view's state.
         Derived from the view body's plan (a filter pinning [_label]
         to one literal confines the view to that single partition);
         [None] means every write to a base table is assumed
         relevant. *)
  mv_cache : (int, int * Tuple.t list) Hashtbl.t;
      (* dst label id -> (authority generation, served rows): the
         declassified, visibility-filtered result for one reader
         label.  Dropped on every delta/refresh, and entries are
         ignored when the authority generation has moved — this is
         where revocation invalidation bites. *)
}

type t = {
  lstore : Label_store.t;
  strip :
    Label.t -> (Ifdb_difc.Tag.t * Ifdb_difc.Tag.t) list -> Label.t -> Label.t;
  scan : string -> Tuple.t Seq.t;
      (* committed-now stored rows of a base table, each carrying its
         interned label id — label-blind on purpose (all partitions) *)
  lock : Mutex.t;
  views : (string, view) Hashtbl.t;
}

let create ~lstore ~strip ~scan () =
  { lstore; strip; scan; lock = Mutex.create (); views = Hashtbl.create 8 }

let norm = String.lowercase_ascii

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* ------------------------------------------------------------------ *)
(* Core evaluation over signed sources                                 *)
(* ------------------------------------------------------------------ *)

(* A signed row bound for evaluation: values + partition label id.  A
   stored tuple carries its canonical label, so Row_label and
   label-dependent predicates see exactly what the executor would. *)
type srow = { r_sign : int; r_tuple : Tuple.t; r_lid : int }

let srow sign tuple =
  { r_sign = sign; r_tuple = tuple; r_lid = Tuple.label_id tuple }

(* Evaluate the core over per-slot sources, emitting signed core rows. *)
let rec eval_src t (src : src) (sources : srow list array) : srow list =
  match src with
  | S_scan i -> sources.(i)
  | S_filter (sub, pred) ->
      List.filter
        (fun r -> Expr.eval_pred Expr.null_env r.r_tuple pred)
        (eval_src t sub sources)
  | S_join { l; r; cond } ->
      let lrows = eval_src t l sources in
      let rrows = eval_src t r sources in
      List.concat_map
        (fun lr ->
          List.filter_map
            (fun rr ->
              let lid = Label_store.union_id t.lstore lr.r_lid rr.r_lid in
              let values =
                Array.append (Tuple.values lr.r_tuple) (Tuple.values rr.r_tuple)
              in
              let merged =
                Tuple.make_interned ~values
                  ~label:(Label_store.label_of t.lstore lid) ~label_id:lid
              in
              let ok =
                match cond with
                | None -> true
                | Some c -> Expr.eval_pred Expr.null_env merged c
              in
              if ok then
                Some { r_sign = lr.r_sign * rr.r_sign; r_tuple = merged;
                       r_lid = lid }
              else None)
            rrows)
        lrows

let full_scan t table : srow list =
  List.of_seq (Seq.map (srow 1) (t.scan table))

(* The delta of the core under one transaction's write set.
   Single-scan cores touch no base data at all; two-scan cores apply
   the bilinear rule. *)
let core_delta t (c : compiled) (writes : (string * int * Tuple.t) list) :
    srow list =
  let delta_for slot =
    List.filter_map
      (fun (table, sign, tuple) ->
        if norm table = norm c.c_tables.(slot) then Some (srow sign tuple)
        else None)
      writes
  in
  match Array.length c.c_tables with
  | 1 -> eval_src t c.c_src [| delta_for 0 |]
  | 2 ->
      let d0 = delta_for 0 and d1 = delta_for 1 in
      if d0 = [] && d1 = [] then []
      else begin
        let new0 = lazy (full_scan t c.c_tables.(0)) in
        let new1 = lazy (full_scan t c.c_tables.(1)) in
        let negate rows =
          List.map (fun r -> { r with r_sign = -r.r_sign }) rows
        in
        let part sources = eval_src t c.c_src sources in
        List.concat
          [
            (if d0 = [] then [] else part [| d0; Lazy.force new1 |]);
            (if d1 = [] then [] else part [| Lazy.force new0; d1 |]);
            (if d0 = [] || d1 = [] then []
             else negate (part [| d0; d1 |]));
          ]
      end
  | _ -> assert false

let core_full t (c : compiled) : srow list =
  eval_src t c.c_src (Array.map (fun table -> full_scan t table) c.c_tables)

(* ------------------------------------------------------------------ *)
(* State maintenance                                                   *)
(* ------------------------------------------------------------------ *)

exception Went_stale

(* Mirror of the executor's [feed_agg], with a sign.  Raises
   [Went_stale] when the state cannot absorb the change (a delete
   touching MIN/MAX, or an inconsistency). *)
let feed_cell (kind : Plan.agg_kind) cell sign row =
  let arg e = Expr.eval Expr.null_env row e in
  match kind with
  | Plan.Count_star -> cell.a_count <- cell.a_count + sign
  | Plan.Count e ->
      if not (Value.is_null (arg e)) then cell.a_count <- cell.a_count + sign
  | Plan.Count_distinct _ -> assert false (* rejected at compile *)
  | Plan.Sum e | Plan.Avg e -> (
      match arg e with
      | Value.Null -> ()
      | Value.Int i ->
          cell.a_count <- cell.a_count + sign;
          cell.a_sum_int <- cell.a_sum_int + (sign * i);
          cell.a_sum_float <- cell.a_sum_float +. (float_of_int sign *. float_of_int i)
      | Value.Float f ->
          cell.a_count <- cell.a_count + sign;
          cell.a_floats <- cell.a_floats + sign;
          cell.a_sum_float <- cell.a_sum_float +. (float_of_int sign *. f)
      | _ -> raise Went_stale)
  | Plan.Min e -> (
      match arg e with
      | Value.Null -> ()
      | v ->
          if sign < 0 then raise Went_stale;
          cell.a_count <- cell.a_count + sign;
          if Value.is_null cell.a_extreme || Value.compare v cell.a_extreme < 0
          then cell.a_extreme <- v)
  | Plan.Max e -> (
      match arg e with
      | Value.Null -> ()
      | v ->
          if sign < 0 then raise Went_stale;
          cell.a_count <- cell.a_count + sign;
          if Value.is_null cell.a_extreme || Value.compare v cell.a_extreme > 0
          then cell.a_extreme <- v)

let finish_cell (kind : Plan.agg_kind) cell : Value.t =
  match kind with
  | Plan.Count_star | Plan.Count _ -> Value.Int cell.a_count
  | Plan.Count_distinct _ -> assert false
  | Plan.Sum _ ->
      if cell.a_count = 0 then Value.Null
      else if cell.a_floats > 0 then Value.Float cell.a_sum_float
      else Value.Int cell.a_sum_int
  | Plan.Avg _ ->
      if cell.a_count = 0 then Value.Null
      else Value.Float (cell.a_sum_float /. float_of_int cell.a_count)
  | Plan.Min _ | Plan.Max _ -> cell.a_extreme

(* The executor's [merge_agg] counterpart over cells (associative; no
   signs — both operands are consistent partition states). *)
let merge_cell (kind : Plan.agg_kind) a b =
  match kind with
  | Plan.Count_star | Plan.Count _ -> a.a_count <- a.a_count + b.a_count
  | Plan.Count_distinct _ -> assert false
  | Plan.Sum _ | Plan.Avg _ ->
      a.a_count <- a.a_count + b.a_count;
      a.a_sum_int <- a.a_sum_int + b.a_sum_int;
      a.a_sum_float <- a.a_sum_float +. b.a_sum_float;
      a.a_floats <- a.a_floats + b.a_floats
  | Plan.Min _ ->
      a.a_count <- a.a_count + b.a_count;
      if not (Value.is_null b.a_extreme) then
        if Value.is_null a.a_extreme
           || Value.compare b.a_extreme a.a_extreme < 0
        then a.a_extreme <- b.a_extreme
  | Plan.Max _ ->
      a.a_count <- a.a_count + b.a_count;
      if not (Value.is_null b.a_extreme) then
        if Value.is_null a.a_extreme
           || Value.compare b.a_extreme a.a_extreme > 0
        then a.a_extreme <- b.a_extreme

let copy_cell c =
  { a_count = c.a_count; a_sum_int = c.a_sum_int; a_sum_float = c.a_sum_float;
    a_floats = c.a_floats; a_extreme = c.a_extreme }

(* Fold signed core rows into the state.  Raises [Went_stale] on
   anything the state cannot absorb. *)
let absorb (c : compiled) state (rows : srow list) =
  match (c.c_kind, state) with
  | K_rows { exprs; _ }, St_rows tbl ->
      List.iter
        (fun r ->
          let values =
            Array.to_list
              (Array.map (fun e -> Expr.eval Expr.null_env r.r_tuple e) exprs)
          in
          let key = (r.r_lid, values) in
          let cnt =
            match Hashtbl.find_opt tbl key with
            | Some c -> c
            | None ->
                let c = ref 0 in
                Hashtbl.replace tbl key c;
                c
          in
          cnt := !cnt + r.r_sign;
          if !cnt = 0 then Hashtbl.remove tbl key
          else if !cnt < 0 then raise Went_stale)
        rows
  | K_agg { keys; aggs; _ }, St_agg tbl ->
      List.iter
        (fun r ->
          let kvals =
            Array.to_list
              (Array.map (fun e -> Expr.eval Expr.null_env r.r_tuple e) keys)
          in
          let key = (r.r_lid, kvals) in
          let g =
            match Hashtbl.find_opt tbl key with
            | Some g -> g
            | None ->
                let g =
                  { g_rows = 0;
                    g_cells = Array.map (fun _ -> new_cell ()) aggs }
                in
                Hashtbl.replace tbl key g;
                g
          in
          g.g_rows <- g.g_rows + r.r_sign;
          if g.g_rows < 0 then raise Went_stale;
          Array.iteri
            (fun i kind -> feed_cell kind g.g_cells.(i) r.r_sign r.r_tuple)
            aggs;
          if g.g_rows = 0 then Hashtbl.remove tbl key)
        rows
  | K_rows _, St_agg _ | K_agg _, St_rows _ -> assert false

let fresh_state (c : compiled) =
  match c.c_kind with
  | K_rows _ -> St_rows (Hashtbl.create 64)
  | K_agg _ -> St_agg (Hashtbl.create 64)

let refresh t vw (c : compiled) =
  let state = fresh_state c in
  absorb c state (core_full t c);
  vw.mv_state <- Some state;
  vw.mv_stale <- false;
  vw.mv_refreshes <- vw.mv_refreshes + 1;
  Hashtbl.reset vw.mv_cache

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

let register t ~name ~plan ~declassify ~relabel =
  let shape =
    match compile plan with
    | c -> Ok c
    | exception Unsupported reason -> Error reason
  in
  let vw =
    {
      mv_name = norm name;
      mv_declassify = declassify;
      mv_relabel = relabel;
      mv_shape = shape;
      mv_state = None;
      mv_stale = false;
      mv_deltas = 0;
      mv_refreshes = 0;
      mv_served = 0;
      mv_recomputes = 0;
      mv_skips = 0;
      mv_affects = None;
      mv_cache = Hashtbl.create 8;
    }
  in
  with_lock t (fun () ->
      Hashtbl.replace t.views (norm name) vw;
      match shape with
      | Ok c -> ( try refresh t vw c with _ -> vw.mv_stale <- true)
      | Error _ -> ())

(* A view whose body could not even be planned at definition time
   (e.g. it needs execution context the DDL path does not have): keep
   it visible to introspection as permanently recompute-only. *)
let register_unsupported t ~name ~reason =
  let vw =
    {
      mv_name = norm name;
      mv_declassify = Label.empty;
      mv_relabel = [];
      mv_shape = Error reason;
      mv_state = None;
      mv_stale = false;
      mv_deltas = 0;
      mv_refreshes = 0;
      mv_served = 0;
      mv_recomputes = 0;
      mv_skips = 0;
      mv_affects = None;
      mv_cache = Hashtbl.create 1;
    }
  in
  with_lock t (fun () -> Hashtbl.replace t.views (norm name) vw)

let unregister t name = with_lock t (fun () -> Hashtbl.remove t.views (norm name))

let find t name = Hashtbl.find_opt t.views (norm name)

let set_affects t ~view pred =
  with_lock t (fun () ->
      match find t view with
      | Some vw -> vw.mv_affects <- pred
      | None -> ())

let base_tables t name =
  with_lock t (fun () ->
      match find t name with
      | Some { mv_shape = Ok c; _ } -> Array.to_list c.c_tables
      | Some { mv_shape = Error _; _ } | None -> [])

let interested t table =
  with_lock t (fun () ->
      Hashtbl.fold
        (fun _ vw acc ->
          acc
          || match vw.mv_shape with
             | Error _ -> false
             | Ok c ->
                 Array.exists (fun tb -> norm tb = norm table) c.c_tables)
        t.views false)

let invalidate_table t table =
  with_lock t (fun () ->
      Hashtbl.iter
        (fun _ vw ->
          match vw.mv_shape with
          | Error _ -> ()
          | Ok c ->
              if Array.exists (fun tb -> norm tb = norm table) c.c_tables then begin
                vw.mv_state <- None;
                vw.mv_stale <- true;
                Hashtbl.reset vw.mv_cache
              end)
        t.views)

(* Apply one committed transaction's write set: (table, sign, tuple,
   label id), oldest first.  Under a sampled span context the whole
   delta application is one "ivm.delta" span (argument: write count —
   a size, never tuple content). *)
let apply t (writes : (string * int * Tuple.t) list) =
  if writes <> [] then
    Ifdb_obs.Span.timed "ivm.delta"
      ~args:[ ("writes", string_of_int (List.length writes)) ]
    @@ fun () ->
    with_lock t (fun () ->
        Hashtbl.iter
          (fun _ vw ->
            match (vw.mv_shape, vw.mv_state) with
            | Error _, _ | _, None -> ()
            | Ok c, Some state ->
                if not vw.mv_stale then begin
                  let base table =
                    Array.exists (fun tb -> norm tb = norm table) c.c_tables
                  in
                  let touched =
                    List.exists (fun (table, _, _) -> base table) writes
                  in
                  if touched then begin
                    (* label pruning: when static analysis pinned the
                       view to specific partitions, writes under labels
                       that provably cannot reach the view's state are
                       no-op deltas — drop them before evaluation.  A
                       commit whose base-table writes are all pruned
                       leaves the state (and the per-reader cache)
                       untouched. *)
                    let relevant =
                      match vw.mv_affects with
                      | None -> writes
                      | Some f ->
                          List.filter
                            (fun (table, _, tuple) ->
                              (not (base table))
                              || f table (Tuple.label_id tuple))
                            writes
                    in
                    if not (List.exists (fun (table, _, _) -> base table)
                              relevant)
                    then vw.mv_skips <- vw.mv_skips + 1
                    else begin
                      (match absorb c state (core_delta t c relevant) with
                      | () -> vw.mv_deltas <- vw.mv_deltas + 1
                      | exception _ ->
                          (* anything the delta path cannot absorb —
                             MIN/MAX deletes, an evaluation error — falls
                             back to a full refresh at the next read; the
                             commit itself already succeeded *)
                          vw.mv_stale <- true);
                      Hashtbl.reset vw.mv_cache
                    end
                  end
                end)
          t.views)

(* ------------------------------------------------------------------ *)
(* Read path                                                           *)
(* ------------------------------------------------------------------ *)

(* Assemble the served rows for a reader whose scan destination label
   (session label ∪ every extra readable tag at this reference,
   including the view's own declassification) interns to [dst].  A
   partition is visible iff its label flows to that destination —
   exactly the check a base scan's confinement verdict makes per heap
   partition — and each emitted row's label is the partition label put
   through the view's Declassify boundary. *)
let assemble t vw (c : compiled) state ~dst : Tuple.t list =
  let visible lid = Label_store.flows_id t.lstore ~src:lid ~dst in
  let out_label lid =
    t.strip vw.mv_declassify vw.mv_relabel (Label_store.label_of t.lstore lid)
  in
  let sort_rows specs rows =
    if specs = [||] then rows
    else begin
      let decorated =
        List.map
          (fun row ->
            ( Array.map
                (fun s -> Expr.eval Expr.null_env row s.Plan.key)
                specs,
              row ))
          rows
      in
      let cmp (ka, _) (kb, _) =
        let rec go i =
          if i >= Array.length specs then 0
          else
            let cv = Value.compare ka.(i) kb.(i) in
            if cv = 0 then go (i + 1)
            else if specs.(i).Plan.descending then -cv
            else cv
        in
        go 0
      in
      List.map snd (List.stable_sort cmp decorated)
    end
  in
  match (c.c_kind, state) with
  | K_rows { exprs = _; sort }, St_rows tbl ->
      let rows = ref [] in
      Hashtbl.iter
        (fun (lid, values) cnt ->
          if !cnt > 0 && visible lid then begin
            let row =
              Tuple.make ~values:(Array.of_list values) ~label:(out_label lid)
            in
            for _ = 1 to !cnt do
              rows := row :: !rows
            done
          end)
        tbl;
      sort_rows sort !rows
  | K_agg { keys; aggs; having; sort; exprs }, St_agg tbl ->
      (* merge visible partitions per group key *)
      let merged : (Value.t list, agg_cell array * Label.t ref) Hashtbl.t =
        Hashtbl.create 32
      in
      Hashtbl.iter
        (fun (lid, kvals) g ->
          if g.g_rows > 0 && visible lid then
            match Hashtbl.find_opt merged kvals with
            | None ->
                Hashtbl.replace merged kvals
                  ( Array.map copy_cell g.g_cells,
                    ref (Label_store.label_of t.lstore lid) )
            | Some (cells, lbl) ->
                Array.iteri
                  (fun i kind -> merge_cell kind cells.(i) g.g_cells.(i))
                  aggs;
                lbl := Label.union !lbl (Label_store.label_of t.lstore lid))
        tbl;
      let grouped = ref [] in
      Hashtbl.iter
        (fun kvals (cells, lbl) ->
          let values =
            Array.append (Array.of_list kvals)
              (Array.mapi (fun i kind -> finish_cell kind cells.(i)) aggs)
          in
          grouped :=
            Tuple.make ~values
              ~label:(t.strip vw.mv_declassify vw.mv_relabel !lbl)
            :: !grouped)
        merged;
      let grouped =
        if !grouped = [] && Array.length keys = 0 then
          (* aggregates over an empty visible input with no GROUP BY
             yield one public row of identities, as the executor does *)
          [
            Tuple.make
              ~values:
                (Array.map (fun kind -> finish_cell kind (new_cell ())) aggs)
              ~label:Label.empty;
          ]
        else !grouped
      in
      let grouped =
        match having with
        | None -> grouped
        | Some h ->
            List.filter (fun row -> Expr.eval_pred Expr.null_env row h) grouped
      in
      let grouped = sort_rows sort grouped in
      List.map
        (fun row ->
          Tuple.make
            ~values:(Array.map (fun e -> Expr.eval Expr.null_env row e) exprs)
            ~label:(Tuple.label row))
        grouped
  | K_rows _, St_agg _ | K_agg _, St_rows _ -> assert false

let read t ~view ~dst : Tuple.t list option =
  with_lock t (fun () ->
      match find t view with
      | None -> None
      | Some vw -> (
          match vw.mv_shape with
          | Error _ ->
              vw.mv_recomputes <- vw.mv_recomputes + 1;
              None
          | Ok c -> (
              let generation =
                Authority.generation (Label_store.authority t.lstore)
              in
              (match (vw.mv_stale, vw.mv_state) with
              | true, _ | _, None -> (
                  match refresh t vw c with
                  | () -> ()
                  | exception _ -> vw.mv_state <- None)
              | false, Some _ -> ());
              match vw.mv_state with
              | None ->
                  vw.mv_recomputes <- vw.mv_recomputes + 1;
                  None
              | Some state -> (
                  match Hashtbl.find_opt vw.mv_cache dst with
                  | Some (g, rows) when g = generation ->
                      vw.mv_served <- vw.mv_served + 1;
                      Some rows
                  | Some _ | None ->
                      let rows = assemble t vw c state ~dst in
                      Hashtbl.replace vw.mv_cache dst (generation, rows);
                      vw.mv_served <- vw.mv_served + 1;
                      Some rows))))

let note_recompute t view =
  with_lock t (fun () ->
      match find t view with
      | Some vw -> vw.mv_recomputes <- vw.mv_recomputes + 1
      | None -> ())

(* ------------------------------------------------------------------ *)
(* Introspection                                                       *)
(* ------------------------------------------------------------------ *)

type view_stats = {
  vs_name : string;
  vs_supported : bool;
  vs_reason : string;  (* why delta maintenance is off; "" when on *)
  vs_rows : int;       (* entries currently materialized *)
  vs_partitions : int; (* distinct label partitions in the state *)
  vs_stale : bool;
  vs_deltas : int;
  vs_refreshes : int;
  vs_served : int;
  vs_recomputes : int;
  vs_skipped : int;    (* deltas skipped by the view's [_label] pin *)
}

let view_stats_of vw =
  let rows, partitions =
    match vw.mv_state with
    | None -> (0, 0)
    | Some (St_rows tbl) ->
        let parts = Hashtbl.create 8 in
        Hashtbl.iter (fun (lid, _) _ -> Hashtbl.replace parts lid ()) tbl;
        (Hashtbl.length tbl, Hashtbl.length parts)
    | Some (St_agg tbl) ->
        let parts = Hashtbl.create 8 in
        Hashtbl.iter (fun (lid, _) _ -> Hashtbl.replace parts lid ()) tbl;
        (Hashtbl.length tbl, Hashtbl.length parts)
  in
  {
    vs_name = vw.mv_name;
    vs_supported = (match vw.mv_shape with Ok _ -> true | Error _ -> false);
    vs_reason = (match vw.mv_shape with Ok _ -> "" | Error r -> r);
    vs_rows = rows;
    vs_partitions = partitions;
    vs_stale = vw.mv_stale;
    vs_deltas = vw.mv_deltas;
    vs_refreshes = vw.mv_refreshes;
    vs_served = vw.mv_served;
    vs_recomputes = vw.mv_recomputes;
    vs_skipped = vw.mv_skips;
  }

let stats t =
  with_lock t (fun () ->
      Hashtbl.fold (fun _ vw acc -> view_stats_of vw :: acc) t.views []
      |> List.sort (fun a b -> compare a.vs_name b.vs_name))

let count t = with_lock t (fun () -> Hashtbl.length t.views)

(* Static shape check, for the lint / analysis layer: would this plan
   be maintained incrementally?  [Ok ()] or the reason it would not. *)
let plan_supported (plan : Plan.t) : (unit, string) result =
  match compile plan with
  | (_ : compiled) -> Ok ()
  | exception Unsupported reason -> Error reason
