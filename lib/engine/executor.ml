module Tuple = Ifdb_rel.Tuple
module Expr = Ifdb_rel.Expr
module Label = Ifdb_difc.Label
module Value = Ifdb_rel.Value
module Trace = Ifdb_obs.Trace
module Span = Ifdb_obs.Span

type morsel_source = {
  ms_morsels : int;
  ms_run : int -> (Tuple.t -> unit) -> unit;
}

type par = {
  par_pool : Domain_pool.t;
  par_width : int;
  par_scan : table:string -> extra:Label.t -> morsel_source option;
}

type ctx = {
  fenv : Expr.env;
  scan_table : string -> extra:Label.t -> Tuple.t Seq.t;
  scan_push : table:string -> extra:Label.t -> morsel_source;
  scan_prefix :
    table:string -> index:string -> prefix:Value.t array ->
    lo:(Value.t * bool) option -> hi:(Value.t * bool) option ->
    extra:Label.t -> Tuple.t Seq.t;
  strip :
    Label.t -> (Ifdb_difc.Tag.t * Ifdb_difc.Tag.t) list -> Label.t -> Label.t;
  mv_read : view:string -> extra:Label.t -> Tuple.t list option;
  par : par option;
  trace : Trace.t option;
}

exception Exec_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Exec_error s)) fmt

let one_row =
  Tuple.make ~values:[||] ~label:Label.empty

let concat_rows a b =
  let values = Array.append (Tuple.values a) (Tuple.values b) in
  (* joined rows usually pair tuples of the same interned label (or one
     side is unlabeled): the union is then the label itself and the id
     carries over, skipping both the union and re-interning downstream *)
  let la = Tuple.label a and lb = Tuple.label b in
  let ida = Tuple.label_id a and idb = Tuple.label_id b in
  if ida >= 0 && (ida = idb || Label.is_empty lb) then
    Tuple.make_interned ~values ~label:la ~label_id:ida
  else if idb >= 0 && Label.is_empty la then
    Tuple.make_interned ~values ~label:lb ~label_id:idb
  else Tuple.make ~values ~label:(Label.union la lb)

let null_row arity = Tuple.make ~values:(Array.make arity Value.Null) ~label:Label.empty

(* Contamination accumulator for row streams.  Interned tuples sharing
   a label share one physical array, so remembering the last absorbed
   label makes the per-row step a pointer compare in the common case
   (a scan over few distinct labels); the union fast paths catch the
   rest without allocating. *)
type label_acc = { mutable acc_label : Label.t; mutable acc_last : Label.t }

let absorb_label la row =
  let l = Tuple.label row in
  if l != la.acc_last then begin
    la.acc_last <- l;
    la.acc_label <- Label.union la.acc_label l
  end

(* --- aggregation ------------------------------------------------- *)

type agg_state = {
  mutable count : int;          (* rows contributing (non-null for Count e) *)
  mutable sum_int : int;
  mutable sum_float : float;
  mutable saw_float : bool;
  mutable extreme : Value.t;    (* current min/max, Null if none *)
  mutable distinct_seen : (Value.t, unit) Hashtbl.t option;
}

let new_agg_state () =
  { count = 0; sum_int = 0; sum_float = 0.0; saw_float = false;
    extreme = Value.Null; distinct_seen = None }

let feed_agg ctx row (kind : Plan.agg_kind) st =
  match kind with
  | Plan.Count_star -> st.count <- st.count + 1
  | Plan.Count e ->
      if not (Value.is_null (Expr.eval ctx.fenv row e)) then
        st.count <- st.count + 1
  | Plan.Count_distinct e -> (
      match Expr.eval ctx.fenv row e with
      | Value.Null -> ()
      | v ->
          let seen =
            match st.distinct_seen with
            | Some tbl -> tbl
            | None ->
                let tbl = Hashtbl.create 16 in
                st.distinct_seen <- Some tbl;
                tbl
          in
          if not (Hashtbl.mem seen v) then begin
            Hashtbl.add seen v ();
            st.count <- st.count + 1
          end)
  | Plan.Sum e | Plan.Avg e -> (
      match Expr.eval ctx.fenv row e with
      | Value.Null -> ()
      | Value.Int i ->
          st.count <- st.count + 1;
          st.sum_int <- st.sum_int + i;
          st.sum_float <- st.sum_float +. float_of_int i
      | Value.Float f ->
          st.count <- st.count + 1;
          st.saw_float <- true;
          st.sum_float <- st.sum_float +. f
      | v -> fail "SUM/AVG over non-numeric value %s" (Value.to_string v))
  | Plan.Min e -> (
      match Expr.eval ctx.fenv row e with
      | Value.Null -> ()
      | v ->
          st.count <- st.count + 1;
          if Value.is_null st.extreme || Value.compare v st.extreme < 0 then
            st.extreme <- v)
  | Plan.Max e -> (
      match Expr.eval ctx.fenv row e with
      | Value.Null -> ()
      | v ->
          st.count <- st.count + 1;
          if Value.is_null st.extreme || Value.compare v st.extreme > 0 then
            st.extreme <- v)

(* Fold worker-partial state [b] into [a] — the merge half of parallel
   partial aggregation.  Every field combines associatively, so partial
   states over disjoint row sets merge to exactly the serial state
   (floating-point sums aside, where only association order differs). *)
let merge_agg (kind : Plan.agg_kind) a b =
  match kind with
  | Plan.Count_star | Plan.Count _ -> a.count <- a.count + b.count
  | Plan.Count_distinct _ -> (
      match b.distinct_seen with
      | None -> ()
      | Some seen_b -> (
          match a.distinct_seen with
          | None ->
              a.distinct_seen <- Some seen_b;
              a.count <- b.count
          | Some seen_a ->
              Hashtbl.iter
                (fun v () ->
                  if not (Hashtbl.mem seen_a v) then begin
                    Hashtbl.add seen_a v ();
                    a.count <- a.count + 1
                  end)
                seen_b))
  | Plan.Sum _ | Plan.Avg _ ->
      a.count <- a.count + b.count;
      a.sum_int <- a.sum_int + b.sum_int;
      a.sum_float <- a.sum_float +. b.sum_float;
      a.saw_float <- a.saw_float || b.saw_float
  | Plan.Min _ ->
      a.count <- a.count + b.count;
      if not (Value.is_null b.extreme) then
        if Value.is_null a.extreme || Value.compare b.extreme a.extreme < 0 then
          a.extreme <- b.extreme
  | Plan.Max _ ->
      a.count <- a.count + b.count;
      if not (Value.is_null b.extreme) then
        if Value.is_null a.extreme || Value.compare b.extreme a.extreme > 0 then
          a.extreme <- b.extreme

let finish_agg (kind : Plan.agg_kind) st : Value.t =
  match kind with
  | Plan.Count_star | Plan.Count _ | Plan.Count_distinct _ -> Value.Int st.count
  | Plan.Sum _ ->
      if st.count = 0 then Value.Null
      else if st.saw_float then Value.Float st.sum_float
      else Value.Int st.sum_int
  | Plan.Avg _ ->
      if st.count = 0 then Value.Null
      else Value.Float (st.sum_float /. float_of_int st.count)
  | Plan.Min _ | Plan.Max _ -> st.extreme

(* The group fold shared by every aggregation path: per GROUP BY key,
   the aggregate states and the label accumulator (a group's label is
   the union of its rows' labels), plus first-seen key order.  Serial
   aggregation folds every row into one table; parallel aggregation
   folds each worker's rows into its own and merges them at the
   barrier. *)
type groups = {
  g_tbl : (Value.t list, agg_state array * label_acc) Hashtbl.t;
  mutable g_order : Value.t list list; (* reverse first-seen order *)
}

let new_groups () = { g_tbl = Hashtbl.create 64; g_order = [] }

let group g ~aggs k =
  match Hashtbl.find_opt g.g_tbl k with
  | Some s -> s
  | None ->
      let s =
        ( Array.map (fun _ -> new_agg_state ()) aggs,
          { acc_label = Label.empty; acc_last = Label.empty } )
      in
      Hashtbl.replace g.g_tbl k s;
      g.g_order <- k :: g.g_order;
      s

(* [fold_row ctx g ~keys ~aggs row] folds one row into its group. *)
let fold_row ctx g ~keys ~aggs row =
  (* left to right: a key may call a user function with effects *)
  let rec key i =
    if i = Array.length keys then []
    else
      let v = Expr.eval ctx.fenv row keys.(i) in
      v :: key (i + 1)
  in
  let states, lbl = group g ~aggs (key 0) in
  absorb_label lbl row;
  for i = 0 to Array.length aggs - 1 do
    feed_agg ctx row aggs.(i) states.(i)
  done

(* Fold [from]'s groups into [into], in [from]'s first-seen order. *)
let merge_groups ~aggs into from =
  List.iter
    (fun k ->
      let states_f, lbl_f = Hashtbl.find from.g_tbl k in
      match Hashtbl.find_opt into.g_tbl k with
      | None ->
          Hashtbl.replace into.g_tbl k (states_f, lbl_f);
          into.g_order <- k :: into.g_order
      | Some (states, lbl) ->
          Array.iteri
            (fun i kind -> merge_agg kind states.(i) states_f.(i))
            aggs;
          lbl.acc_last <- Label.empty;
          lbl.acc_label <- Label.union lbl.acc_label lbl_f.acc_label)
    (List.rev from.g_order)

let finish_groups g ~keys ~aggs : Tuple.t list =
  if Hashtbl.length g.g_tbl = 0 && Array.length keys = 0 then
    (* SQL: aggregates over an empty input with no GROUP BY yield one
       row of identities *)
    [
      Tuple.make
        ~values:(Array.map (fun kind -> finish_agg kind (new_agg_state ())) aggs)
        ~label:Label.empty;
    ]
  else
    List.rev_map
      (fun k ->
        let states, lbl = Hashtbl.find g.g_tbl k in
        Tuple.make
          ~values:
            (Array.append (Array.of_list k)
               (Array.mapi (fun i kind -> finish_agg kind states.(i)) aggs))
          ~label:lbl.acc_label)
      g.g_order

(* --- parallel-safety --------------------------------------------- *)

(* An expression may be evaluated on a worker domain only when it
   cannot re-enter session state: [Fn] resolves through the session's
   function environment (user scalars may mutate labels or run
   queries), and [Lazy_const] wraps a subquery whose [Lazy.force] is
   not safe to race from several domains.  Everything else is pure
   computation over the row. *)
let rec par_safe_expr (e : Expr.t) =
  match e with
  | Expr.Const _ | Expr.Col _ | Expr.Row_label -> true
  (* a pure read of the bound-parameter slot array, which is frozen for
     the duration of the statement *)
  | Expr.Param _ -> true
  | Expr.Fn _ | Expr.Lazy_const _ -> false
  | Expr.Binop (_, a, b) -> par_safe_expr a && par_safe_expr b
  | Expr.Unop (_, a)
  | Expr.Is_null a
  | Expr.Is_not_null a
  | Expr.In_list (a, _)
  | Expr.Like (a, _) ->
      par_safe_expr a
  | Expr.Case (branches, default) ->
      List.for_all (fun (c, v) -> par_safe_expr c && par_safe_expr v) branches
      && par_safe_expr default

let par_safe_agg (kind : Plan.agg_kind) =
  match kind with
  | Plan.Count_star -> true
  | Plan.Count e | Plan.Count_distinct e | Plan.Sum e | Plan.Avg e
  | Plan.Min e | Plan.Max e ->
      par_safe_expr e

(* An aggregate may run over a fused pipeline when its group keys and
   arguments are safe to evaluate inside a scan callback, on any
   domain. *)
let fusable_aggregate ~keys ~aggs =
  Array.for_all par_safe_expr keys && Array.for_all par_safe_agg aggs

(* --- joins -------------------------------------------------------- *)

(* Index nested loop: per left row, evaluate the probe key and fetch
   matching right rows through the index; re-check the full condition
   on the merged row. *)
let probe_join ctx ~left_rows ~table ~index ~extra ~probe_exprs ~kind ~cond
    ~right_arity =
  let eval_cond merged =
    match cond with None -> true | Some e -> Expr.eval_pred ctx.fenv merged e
  in
  Seq.concat_map
    (fun lrow ->
      let prefix =
        Array.map (fun e -> Expr.eval ctx.fenv lrow e) probe_exprs
      in
      let matches =
        if Array.exists Value.is_null prefix then Seq.empty
        else
          Seq.filter_map
            (fun rrow ->
              let merged = concat_rows lrow rrow in
              if eval_cond merged then Some merged else None)
            (ctx.scan_prefix ~table ~index ~prefix ~lo:None ~hi:None ~extra)
      in
      match kind with
      | `Inner -> matches
      | `Left -> (
          (* force the head once: [Seq.is_empty matches] followed by a
             second consumption of [matches] would re-run the index
             probe and filter from scratch for every outer row *)
          match matches () with
          | Seq.Nil -> Seq.return (concat_rows lrow (null_row right_arity))
          | Seq.Cons (first, rest) -> fun () -> Seq.Cons (first, rest)))
    left_rows

(* Hash join on extracted equality pairs when available, otherwise
   nested loop over a materialized right side. *)
let join ctx ~left_rows ~right ~kind ~cond ~right_arity ~equi () =
  let right_rows = List.of_seq right in
  let eval_cond merged =
    match cond with None -> true | Some e -> Expr.eval_pred ctx.fenv merged e
  in
  match equi with
  | [] ->
      (* nested loop *)
      Seq.concat_map
        (fun lrow ->
          let matches =
            List.to_seq
              (List.filter_map
                 (fun rrow ->
                   let merged = concat_rows lrow rrow in
                   if eval_cond merged then Some merged else None)
                 right_rows)
          in
          match kind with
          | `Inner -> matches
          | `Left ->
              if Seq.is_empty matches then
                Seq.return (concat_rows lrow (null_row right_arity))
              else matches)
        left_rows
  | pairs ->
      let rkey rrow =
        List.map (fun (_, re) -> Expr.eval ctx.fenv rrow re) pairs
      in
      let lkey lrow =
        List.map (fun (le, _) -> Expr.eval ctx.fenv lrow le) pairs
      in
      let table : (Value.t list, Tuple.t list) Hashtbl.t = Hashtbl.create 256 in
      List.iter
        (fun rrow ->
          let k = rkey rrow in
          (* SQL equality: NULL joins nothing *)
          if not (List.exists Value.is_null k) then
            Hashtbl.replace table k
              (rrow :: Option.value ~default:[] (Hashtbl.find_opt table k)))
        right_rows;
      Seq.concat_map
        (fun lrow ->
          let k = lkey lrow in
          let candidates =
            if List.exists Value.is_null k then []
            else List.rev (Option.value ~default:[] (Hashtbl.find_opt table k))
          in
          let matches =
            List.filter_map
              (fun rrow ->
                let merged = concat_rows lrow rrow in
                if eval_cond merged then Some merged else None)
              candidates
          in
          match (kind, matches) with
          | `Inner, ms -> List.to_seq ms
          | `Left, [] -> Seq.return (concat_rows lrow (null_row right_arity))
          | `Left, ms -> List.to_seq ms)
        left_rows

(* --- fused push pipelines ----------------------------------------- *)

(* Compile a plan subtree into a push source when every operator in it
   is row-local: a sequential scan at the leaf, from [scan], with
   filters, projections, declassification and ordinary view boundaries
   fused on top.  Per-row work then runs inside the scan's callback — on
   the worker domain that owns a morsel ([par_scan]), or on the caller's
   domain over the whole table ([ctx.scan_push]).  Anything else (index
   scans, sorts, limits, subqueries, user functions) returns [None] and
   runs on the lazy interpreter. *)
let rec compile_pipe ctx ~scan (plan : Plan.t) : morsel_source option =
  match plan with
  | Plan.Scan { sc_table; sc_extra; sc_prefix = None; _ } ->
      scan ~table:sc_table ~extra:sc_extra
  | Plan.Filter (src, pred) when par_safe_expr pred ->
      Option.map
        (fun ms ->
          { ms with
            ms_run =
              (fun i emit ->
                ms.ms_run i (fun row ->
                    if Expr.eval_pred ctx.fenv row pred then emit row)) })
        (compile_pipe ctx ~scan src)
  | Plan.Project (src, exprs) when Array.for_all par_safe_expr exprs ->
      Option.map
        (fun ms ->
          { ms with
            ms_run =
              (fun i emit ->
                ms.ms_run i (fun row ->
                    let values =
                      Array.map (fun e -> Expr.eval ctx.fenv row e) exprs
                    in
                    let lid = Tuple.label_id row in
                    emit
                      (if lid >= 0 then
                         Tuple.make_interned ~values ~label:(Tuple.label row)
                           ~label_id:lid
                       else Tuple.make ~values ~label:(Tuple.label row)))) })
        (compile_pipe ctx ~scan src)
  | Plan.Declassify (src, lbl, relabel) ->
      (* ctx.strip only reads authority state (compound membership),
         which is immutable during a read-only parallel section *)
      Option.map
        (fun ms ->
          { ms with
            ms_run =
              (fun i emit ->
                ms.ms_run i (fun row ->
                    emit
                      (Tuple.make ~values:(Tuple.values row)
                         ~label:(ctx.strip lbl relabel (Tuple.label row))))) })
        (compile_pipe ctx ~scan src)
  (* an ordinary view is its expansion; a materialized one may be
     served from maintained state, which no scan produces *)
  | Plan.View { v_mat = false; v_child; _ } -> compile_pipe ctx ~scan v_child
  | _ -> None

(* [parallel_for], with per-worker task attribution recorded into the
   trace node when one is active (EXPLAIN ANALYZE): one atomic bump per
   morsel, nothing per row. *)
let traced_parallel_for tnode pool ~width ~tasks f =
  match tnode with
  | None -> Domain_pool.parallel_for pool ~width ~tasks f
  | Some node ->
      let counts =
        Array.init (Domain_pool.parallelism pool) (fun _ -> Atomic.make 0)
      in
      Domain_pool.parallel_for pool ~width ~tasks (fun ~worker i ->
          Atomic.incr counts.(worker);
          f ~worker i);
      Trace.add_morsels node ~per_worker:(Array.map Atomic.get counts)

(* Run a pipe to completion, keeping per-morsel buffers so the
   concatenated output preserves scan (version) order — byte-identical
   to the serial executor's output for the same plan. *)
let par_collect ?(tnode = None) par ms : Tuple.t list =
  let buckets = Array.make ms.ms_morsels [] in
  traced_parallel_for tnode par.par_pool ~width:par.par_width
    ~tasks:ms.ms_morsels (fun ~worker:_ i ->
      let acc = ref [] in
      ms.ms_run i (fun row -> acc := row :: !acc);
      buckets.(i) <- List.rev !acc);
  List.concat (Array.to_list buckets)

(* Parallel partial aggregation: each worker folds its morsels into a
   private group table; the single barrier is the merge, which combines
   per-group partial states with [merge_agg].  Group output order is
   whichever worker saw the group first — SQL leaves it unspecified,
   and the equivalence tests compare multisets. *)
let par_aggregate ?(tnode = None) ctx par ms ~keys ~aggs : Tuple.t list =
  let slots =
    Array.init (Domain_pool.parallelism par.par_pool) (fun _ -> new_groups ())
  in
  traced_parallel_for tnode par.par_pool ~width:par.par_width
    ~tasks:ms.ms_morsels (fun ~worker i ->
      ms.ms_run i (fold_row ctx slots.(worker) ~keys ~aggs));
  for w = 1 to Array.length slots - 1 do
    merge_groups ~aggs slots.(0) slots.(w)
  done;
  finish_groups slots.(0) ~keys ~aggs

(* Parallel hash join: partitioned build, then a morsel-parallel probe
   over the left pipe.  The right side is materialized first (itself
   through [run], so a scan-shaped right side parallelizes too); build
   hashes each row's key once, then one worker per partition inserts
   its share, so the partition tables are immutable — and read
   lock-free — before the probe barrier. *)
let par_hash_join ?(tnode = None) ctx par ~left_ms ~right_rows ~kind ~cond
    ~right_arity ~pairs : Tuple.t list =
  let eval_cond merged =
    match cond with None -> true | Some e -> Expr.eval_pred ctx.fenv merged e
  in
  let rkey rrow = List.map (fun (_, re) -> Expr.eval ctx.fenv rrow re) pairs in
  let lkey lrow = List.map (fun (le, _) -> Expr.eval ctx.fenv lrow le) pairs in
  let rows = Array.of_list right_rows in
  let nparts = max 1 par.par_width in
  (* build phase 1: evaluate every right key (cheap, parallel over
     chunks); NULL keys join nothing *)
  let keyed = Array.make (Array.length rows) None in
  let chunk = 4096 in
  let nchunks = (Array.length rows + chunk - 1) / chunk in
  Domain_pool.parallel_for par.par_pool ~width:par.par_width ~tasks:nchunks
    (fun ~worker:_ c ->
      let lo = c * chunk and hi = min (Array.length rows) ((c + 1) * chunk) in
      for i = lo to hi - 1 do
        let k = rkey rows.(i) in
        if not (List.exists Value.is_null k) then
          keyed.(i) <- Some (k, Hashtbl.hash k)
      done);
  (* build phase 2: one worker owns one partition; rows are visited in
     index order, so per-key chains match the serial build exactly *)
  let parts =
    Array.init nparts (fun _ ->
        (Hashtbl.create 256 : (Value.t list, Tuple.t list) Hashtbl.t))
  in
  Domain_pool.parallel_for par.par_pool ~width:par.par_width ~tasks:nparts
    (fun ~worker:_ p ->
      let tbl = parts.(p) in
      Array.iteri
        (fun i entry ->
          match entry with
          | Some (k, h) when h mod nparts = p ->
              Hashtbl.replace tbl k
                (rows.(i) :: Option.value ~default:[] (Hashtbl.find_opt tbl k))
          | Some _ | None -> ())
        keyed);
  (* probe: morsel-parallel over the left pipe; per-morsel buffers keep
     the output in left-scan order, as the serial join emits it.  Only
     the probe is attributed to the trace — its tasks are the left
     pipe's morsels; the build fan-outs above are bookkeeping chunks. *)
  let buckets = Array.make left_ms.ms_morsels [] in
  traced_parallel_for tnode par.par_pool ~width:par.par_width
    ~tasks:left_ms.ms_morsels (fun ~worker:_ i ->
      let acc = ref [] in
      left_ms.ms_run i (fun lrow ->
          let k = lkey lrow in
          let candidates =
            if List.exists Value.is_null k then []
            else
              let tbl = parts.(Hashtbl.hash k mod nparts) in
              List.rev (Option.value ~default:[] (Hashtbl.find_opt tbl k))
          in
          let matches =
            List.filter_map
              (fun rrow ->
                let merged = concat_rows lrow rrow in
                if eval_cond merged then Some merged else None)
              candidates
          in
          match (kind, matches) with
          | `Inner, ms -> List.iter (fun m -> acc := m :: !acc) ms
          | `Left, [] -> acc := concat_rows lrow (null_row right_arity) :: !acc
          | `Left, ms -> List.iter (fun m -> acc := m :: !acc) ms);
      buckets.(i) <- List.rev !acc);
  List.concat (Array.to_list buckets)

(* --- main interpreter --------------------------------------------- *)

(* [run] gives every subtree a chance to execute as a parallel
   pipeline; [run_serial] is the one-domain interpreter it falls back
   to.  The parallel paths materialize eagerly, so [Limit] pins its
   immediate child to the serial (lazy) interpreter — early exit there
   is worth more than parallelism. *)
let rec run ctx (plan : Plan.t) : Tuple.t Seq.t =
  match ctx.trace with
  | None -> (
      match par_run ctx None plan with
      | Some rows -> List.to_seq rows
      | None -> run_serial ctx plan)
  | Some tr ->
      (* Plan translation is eager (children recurse here before the
         parent's seq is returned), so enter/exit around it builds the
         operator tree; the wall time added below covers the eager work
         (parallel sections, aggregate folds), and [wrap_seq] adds the
         lazy per-pull time afterwards.  Times are inclusive of
         children, as in Postgres EXPLAIN ANALYZE. *)
      let node = Trace.enter tr (Plan.describe plan) in
      let t0 = Span.now_ns () in
      let result =
        match par_run ctx (Some node) plan with
        | Some rows -> Either.Left rows
        | None -> Either.Right (run_serial ctx plan)
      in
      Trace.add_ns node (Span.now_ns () - t0);
      Trace.exit_node tr node;
      (match result with
      | Either.Left rows ->
          Trace.add_rows node (List.length rows);
          List.to_seq rows
      | Either.Right s -> Trace.wrap_seq node s)

(* Serial-only evaluation that still gives the subtree trace nodes —
   for operators that must keep their child lazy (Limit). *)
and run_lazy ctx (plan : Plan.t) : Tuple.t Seq.t =
  match ctx.trace with
  | None -> run_serial ctx plan
  | Some tr ->
      let node = Trace.enter tr (Plan.describe plan) in
      let t0 = Span.now_ns () in
      let s = run_serial ctx plan in
      Trace.add_ns node (Span.now_ns () - t0);
      Trace.exit_node tr node;
      Trace.wrap_seq node s

and par_run ctx tnode (plan : Plan.t) : Tuple.t list option =
  match ctx.par with
  | None -> None
  | Some par -> (
      match plan with
      | Plan.Scan _ | Plan.Filter _ | Plan.Project _ | Plan.Declassify _ ->
          Option.map (par_collect ~tnode par)
            (compile_pipe ctx ~scan:par.par_scan plan)
      | Plan.Aggregate { src; keys; aggs } when fusable_aggregate ~keys ~aggs ->
          Option.map
            (fun ms -> par_aggregate ~tnode ctx par ms ~keys ~aggs)
            (compile_pipe ctx ~scan:par.par_scan src)
      | Plan.Join
          { left; right; kind; cond; left_arity = _; right_arity;
            equi = _ :: _ as pairs; probe = None }
        when (match cond with Some c -> par_safe_expr c | None -> true)
             && List.for_all
                  (fun (le, re) -> par_safe_expr le && par_safe_expr re)
                  pairs -> (
          match compile_pipe ctx ~scan:par.par_scan left with
          | Some left_ms ->
              let right_rows = List.of_seq (run ctx right) in
              Some
                (par_hash_join ~tnode ctx par ~left_ms ~right_rows ~kind ~cond
                   ~right_arity ~pairs)
          | None -> None)
      | _ -> None)

and run_serial ctx (plan : Plan.t) : Tuple.t Seq.t =
  match plan with
  | Plan.One_row -> Seq.return one_row
  | Plan.Scan { sc_table; sc_extra; sc_prefix; sc_lo; sc_hi } -> (
      match sc_prefix with
      | None -> ctx.scan_table sc_table ~extra:sc_extra
      | Some (index, prefix) ->
          (* key exprs (literals or $n parameters) are evaluated at scan
             start.  A NULL component means the originating equality or
             range conjunct is NULL — no row satisfies it — so the scan
             is provably empty without touching the index. *)
          let key = Array.map (fun e -> Expr.eval ctx.fenv one_row e) prefix in
          let bound b =
            Option.map (fun (e, incl) -> (Expr.eval ctx.fenv one_row e, incl)) b
          in
          let lo = bound sc_lo and hi = bound sc_hi in
          let null_bound = function
            | Some (v, _) -> Value.is_null v
            | None -> false
          in
          if Array.exists Value.is_null key || null_bound lo || null_bound hi
          then Seq.empty
          else
            ctx.scan_prefix ~table:sc_table ~index ~prefix:key ~lo ~hi
              ~extra:sc_extra)
  | Plan.Filter (src, pred) ->
      Seq.filter (fun row -> Expr.eval_pred ctx.fenv row pred) (run ctx src)
  | Plan.Project (src, exprs) ->
      Seq.map
        (fun row ->
          let values = Array.map (fun e -> Expr.eval ctx.fenv row e) exprs in
          let lid = Tuple.label_id row in
          if lid >= 0 then
            Tuple.make_interned ~values ~label:(Tuple.label row) ~label_id:lid
          else Tuple.make ~values ~label:(Tuple.label row))
        (run ctx src)
  | Plan.Join
      { left; right; kind; cond; left_arity = _; right_arity; equi; probe } -> (
      match probe with
      | Some (table, index, extra, probe_exprs) ->
          probe_join ctx ~left_rows:(run ctx left) ~table ~index ~extra
            ~probe_exprs ~kind ~cond ~right_arity
      | None ->
          join ctx ~left_rows:(run ctx left) ~right:(run ctx right) ~kind ~cond
            ~right_arity ~equi ())
  | Plan.Aggregate { src; keys; aggs } ->
      let g = new_groups () in
      let fold = fold_row ctx g ~keys ~aggs in
      (* a fusable source is pushed through the scan callback on this
         domain, as a parallel worker runs a morsel; anything else is
         pulled through the lazy interpreter *)
      (match
         if fusable_aggregate ~keys ~aggs then
           compile_pipe ctx
             ~scan:(fun ~table ~extra -> Some (ctx.scan_push ~table ~extra))
             src
         else None
       with
      | Some ms ->
          for i = 0 to ms.ms_morsels - 1 do
            ms.ms_run i fold
          done
      | None -> Seq.iter fold (run ctx src));
      List.to_seq (finish_groups g ~keys ~aggs)
  | Plan.Distinct src ->
      let seen : (Value.t list * Label.t, unit) Hashtbl.t = Hashtbl.create 64 in
      Seq.filter
        (fun row ->
          let key = (Array.to_list (Tuple.values row), Tuple.label row) in
          if Hashtbl.mem seen key then false
          else begin
            Hashtbl.add seen key ();
            true
          end)
        (run ctx src)
  | Plan.Sort (src, specs) ->
      let rows = List.of_seq (run ctx src) in
      let decorated =
        List.map
          (fun row ->
            ( Array.map (fun s -> Expr.eval ctx.fenv row s.Plan.key) specs,
              row ))
          rows
      in
      let cmp (ka, _) (kb, _) =
        let rec go i =
          if i >= Array.length specs then 0
          else
            let c = Value.compare ka.(i) kb.(i) in
            if c = 0 then go (i + 1)
            else if specs.(i).Plan.descending then -c
            else c
        in
        go 0
      in
      List.to_seq (List.map snd (List.stable_sort cmp decorated))
  | Plan.Limit (src, limit, offset) ->
      (* keep the child lazy: a parallel child would materialize the
         whole input before the limit could stop it *)
      let s = run_lazy ctx src in
      let s = match offset with Some n -> Seq.drop n s | None -> s in
      (match limit with Some n -> Seq.take n s | None -> s)
  | Plan.Declassify (src, lbl, relabel) ->
      Seq.map
        (fun row ->
          Tuple.make ~values:(Tuple.values row)
            ~label:(ctx.strip lbl relabel (Tuple.label row)))
        (run ctx src)
  | Plan.Union (a, b, kind) -> (
      let both = Seq.append (run ctx a) (run ctx b) in
      match kind with
      | `All -> both
      | `Distinct ->
          let seen : (Value.t list * Label.t, unit) Hashtbl.t =
            Hashtbl.create 64
          in
          Seq.filter
            (fun row ->
              let key = (Array.to_list (Tuple.values row), Tuple.label row) in
              if Hashtbl.mem seen key then false
              else begin
                Hashtbl.add seen key ();
                true
              end)
            both)
  | Plan.View { v_name; v_mat; v_extra; v_child } -> (
      (* serving from maintained state is an optimization the core may
         decline (staleness, unsupported shape, explicit transaction):
         [v_child] is always an equivalent recompute path *)
      let marker desc rows =
        match ctx.trace with
        | None -> ()
        | Some tr ->
            let node = Trace.enter tr desc in
            (match rows with
            | Some n -> Trace.add_rows node n
            | None -> ());
            Trace.exit_node tr node
      in
      let served =
        if v_mat then ctx.mv_read ~view:v_name ~extra:v_extra else None
      in
      match served with
      | Some rows ->
          marker "(served from materialized state)" (Some (List.length rows));
          List.to_seq rows
      | None ->
          if v_mat then marker "(recomputed)" None;
          run ctx v_child)

let run_list ctx plan = List.of_seq (run ctx plan)
