module A = Ifdb_sql.Ast
module Label = Ifdb_difc.Label
module Tag = Ifdb_difc.Tag
module Principal = Ifdb_difc.Principal
module Authority = Ifdb_difc.Authority
module Label_store = Ifdb_difc.Label_store
module Value = Ifdb_rel.Value
module Schema = Ifdb_rel.Schema
module Catalog = Ifdb_engine.Catalog
module Heap = Ifdb_storage.Heap

module Ts = Trace_state

type ctx = {
  an_catalog : Catalog.t;
  an_auth : Authority.t;
  an_store : Label_store.t;
  an_principal : Principal.t;
  an_label : Label.t;
  an_write_labels : Label.t list Lazy.t;
  an_clearance : bool;
  an_in_txn : bool;
  an_trace : Ts.t option;
}

let norm = String.lowercase_ascii
let lbl ctx l = Authority.label_to_string ctx.an_auth l

let tag_str ctx t =
  match Authority.tag_name ctx.an_auth t with
  | "" -> Format.asprintf "%a" Tag.pp t
  | n -> n
  | exception Authority.Unknown _ -> Format.asprintf "%a" Tag.pp t

let principal_str ctx =
  match Authority.principal_name ctx.an_auth ctx.an_principal with
  | "" -> Format.asprintf "%a" Principal.pp ctx.an_principal
  | n -> n
  | exception Authority.Unknown _ ->
      Format.asprintf "%a" Principal.pp ctx.an_principal

let flows ctx ~src ~dst =
  Label_store.flows_id ctx.an_store
    ~src:(Label_store.intern ctx.an_store src)
    ~dst:(Label_store.intern ctx.an_store dst)

(* ------------------------------------------------------------------ *)
(* Trace overlay: relations and authority                              *)
(* ------------------------------------------------------------------ *)

(* A fully symbolic trace (lint --trace, shell \check) layers its own
   catalog/partition/authority state over the committed one.  The
   runtime shadow trace a session keeps for an open transaction is
   deliberately NOT an overlay — the heap and authority state already
   hold the truth there; it only contributes statement indices to
   messages. *)
let sym_trace ctx =
  match ctx.an_trace with
  | Some ts when Ts.symbolic ts -> Some ts
  | Some _ | None -> None

(* The analyzer's unified relation: a committed catalog table (with a
   heap) or one the trace created symbolically (schema only). *)
type rtable = {
  rt_name : string;
  rt_schema : Schema.t;
  rt_heap : Heap.t option;
  rt_constrained : bool;
}

let schema_constrained (sch : Schema.t) =
  sch.Schema.primary_key <> [] || sch.Schema.uniques <> []
  || sch.Schema.foreign_keys <> []

let rt_of_catalog (tbl : Catalog.table) =
  let sch = tbl.Catalog.tbl_schema in
  {
    rt_name = sch.Schema.table_name;
    rt_schema = sch;
    rt_heap = Some tbl.Catalog.tbl_heap;
    rt_constrained = schema_constrained sch;
  }

let find_rtable ctx name : rtable option =
  match sym_trace ctx with
  | Some ts when Ts.dropped ts name -> None
  | Some ts -> (
      match Ts.find_table ts name with
      | Some at ->
          Some
            {
              rt_name = at.Ts.at_name;
              rt_schema = at.Ts.at_schema;
              rt_heap = None;
              rt_constrained = at.Ts.at_constrained;
            }
      | None ->
          if Ts.find_view ts name <> None then None
          else Option.map rt_of_catalog (Catalog.find_table ctx.an_catalog name)
      )
  | None -> Option.map rt_of_catalog (Catalog.find_table ctx.an_catalog name)

let find_rview ctx name : Catalog.view option =
  match sym_trace ctx with
  | Some ts when Ts.dropped ts name -> None
  | Some ts -> (
      match Ts.find_view ts name with
      | Some av ->
          Some
            {
              Catalog.vw_name = av.Ts.av_name;
              vw_query = av.Ts.av_query;
              vw_declassify = av.Ts.av_declassify;
              vw_relabel = [];
              vw_materialized = av.Ts.av_materialized;
            }
      | None ->
          if Ts.find_table ts name <> None then None
          else Catalog.find_view ctx.an_catalog name)
  | None -> Catalog.find_view ctx.an_catalog name

(* Authority through the trace's delegate/revoke overlay.  Exact: tag
   ownership and compound links are immutable once created, so
   [has_authority_hyp] answers precisely for the authority state in
   force when the analyzed statement runs. *)
let auth_has ctx tag =
  match sym_trace ctx with
  | Some ts when not (Ts.overlay_empty ts) ->
      let added, removed = Ts.overlay ts in
      Authority.has_authority_hyp ctx.an_auth ~added ~removed ctx.an_principal
        tag
  | Some _ | None -> Authority.has_authority ctx.an_auth ctx.an_principal tag

(* If an authority check fails only because of the script's own
   revocations — without the removed edges the principal would hold
   the authority — return the index of the latest causal revoke so the
   diagnostic can cite it. *)
let causal_revoke ctx tag =
  match sym_trace ctx with
  | Some ts when Ts.auth_events ts <> [] ->
      (* Reconstruct the grant set as if no revocation had happened.
         The net overlay is useless here: revoking an edge the script
         itself delegated nets it out of [added] entirely, so the
         hypothetical must be rebuilt from the delegate *events*. *)
      let added =
        List.filter_map
          (fun (ev : Ts.auth_event) ->
            if ev.Ts.ae_kind = `Delegate then
              Some (ev.Ts.ae_grantor, ev.Ts.ae_grantee, ev.Ts.ae_tag)
            else None)
          (Ts.auth_events ts)
      in
      if
        Authority.has_authority_hyp ctx.an_auth ~added ~removed:[]
          ctx.an_principal tag
      then
        List.fold_left
          (fun acc (ev : Ts.auth_event) ->
            if
              ev.Ts.ae_kind = `Revoke
              && Authority.covers ctx.an_auth
                   (Label.singleton ev.Ts.ae_tag)
                   tag
            then Some ev.Ts.ae_index
            else acc)
          None (Ts.auth_events ts)
      else None
  | Some _ | None -> None

(* ------------------------------------------------------------------ *)
(* Live label partitions                                               *)
(* ------------------------------------------------------------------ *)

(* The analyzer's view of a table: its live label partitions (from the
   heap's per-label version counts, the same source PR 1's scan prewarm
   uses), split by whether each partition flows to the destination
   label.  Counts include versions awaiting vacuum, so they are a
   conservative superset of what any snapshot sees.  [p_unknown]
   counts the rows about which nothing can be claimed: only a symbolic
   trace makes any (see [p_maybe]). *)
type parts = {
  p_visible : (Label.t * int) list;
  p_hidden : (Label.t * int) list;
  p_unknown : int;
  p_maybe : Label.t list;
      (* labels that *may* hold live rows (symbolic maybe-inserts and
         deleted-to-maybe states).  Each contributes 1 to [p_unknown],
         so [p_unknown = List.length p_maybe] means every unclaimed row
         still has a known candidate label. *)
}

let partitions ctx (rt : rtable) ~dst =
  let dst_id = Label_store.intern ctx.an_store dst in
  let vis = ref [] and hid = ref [] in
  (match rt.rt_heap with
  | None -> ()
  | Some heap ->
      Heap.iter_label_counts heap (fun lid count ->
          if count > 0 then begin
            let l = Label_store.label_of ctx.an_store lid in
            if Label_store.flows_id ctx.an_store ~src:lid ~dst:dst_id then
              vis := (l, count) :: !vis
            else hid := (l, count) :: !hid
          end));
  (* heap iteration order is not deterministic; diagnostics are *)
  let sort = List.sort (fun (a, _) (b, _) -> Label.compare a b) in
  let events =
    match sym_trace ctx with
    | Some ts -> Ts.deltas ts rt.rt_name
    | None -> []
  in
  if events = [] then
    { p_visible = sort !vis; p_hidden = sort !hid; p_unknown = 0; p_maybe = [] }
  else begin
    (* Fold the script's own insert/delete events over the committed
       counts.  Per label the state is three-valued: provably non-empty
       with [n] committed-or-definite rows, or "maybe occupied". *)
    let states : (Label.t * [ `NE of int | `MB ]) list ref = ref [] in
    let get l =
      Option.map snd
        (List.find_opt (fun (l', _) -> Label.equal l l') !states)
    in
    let set l s =
      states :=
        (l, s) :: List.filter (fun (l', _) -> not (Label.equal l l')) !states
    in
    List.iter (fun (l, n) -> set l (`NE n)) (!vis @ !hid);
    List.iter
      (fun (_i, ev) ->
        match ev with
        | Ts.Ins_def l -> (
            match get l with
            | Some (`NE n) -> set l (`NE (n + 1))
            | Some `MB | None -> set l (`NE 1))
        | Ts.Ins_maybe l -> (
            match get l with Some (`NE _) -> () | Some `MB | None -> set l `MB)
        | Ts.Del l -> (
            match get l with
            | Some (`NE _) -> set l `MB
            | Some `MB | None -> ()))
      events;
    let vis' = ref [] and hid' = ref [] and unknown' = ref 0 in
    let maybe = ref [] in
    List.iter
      (fun (l, st) ->
        match st with
        | `MB ->
            incr unknown';
            maybe := l :: !maybe
        | `NE n ->
            if
              Label_store.flows_id ctx.an_store
                ~src:(Label_store.intern ctx.an_store l)
                ~dst:dst_id
            then vis' := (l, n) :: !vis'
            else hid' := (l, n) :: !hid')
      !states;
    { p_visible = sort !vis'; p_hidden = sort !hid'; p_unknown = !unknown';
      p_maybe = List.sort Label.compare !maybe }
  end

let total xs = List.fold_left (fun acc (_, n) -> acc + n) 0 xs

let labels_str ctx xs =
  String.concat ", " (List.map (fun (l, _) -> lbl ctx l) xs)

(* ------------------------------------------------------------------ *)
(* AST utilities                                                       *)
(* ------------------------------------------------------------------ *)

(* One-pass expression walk firing [lits] on every label literal and
   [subs] on every nested SELECT. *)
let rec walk_expr (e : A.expr) ~lits ~subs =
  match e with
  | A.E_label_lit names -> lits names
  | A.E_scalar_subquery s | A.E_exists s -> subs s
  | A.E_const _ | A.E_col _ | A.E_count_star | A.E_param _ -> ()
  | A.E_binop (_, a, b) ->
      walk_expr a ~lits ~subs;
      walk_expr b ~lits ~subs
  | A.E_not a
  | A.E_neg a
  | A.E_is_null a
  | A.E_is_not_null a
  | A.E_like (a, _)
  | A.E_count_distinct a ->
      walk_expr a ~lits ~subs
  | A.E_in (a, xs) ->
      walk_expr a ~lits ~subs;
      List.iter (fun x -> walk_expr x ~lits ~subs) xs
  | A.E_fn (_, args) -> List.iter (fun x -> walk_expr x ~lits ~subs) args
  | A.E_case (arms, els) ->
      List.iter
        (fun (c, v) ->
          walk_expr c ~lits ~subs;
          walk_expr v ~lits ~subs)
        arms;
      Option.iter (fun e -> walk_expr e ~lits ~subs) els

let resolve_tag ctx name =
  match Authority.find_tag ctx.an_auth name with
  | t -> Ok t
  | exception Authority.Unknown _ ->
      Error (Diag.error Diag.Name_error "unknown tag %S" name)

let resolve_label ctx names =
  let rec go acc = function
    | [] -> Ok (Label.of_list acc)
    | n :: rest -> (
        match resolve_tag ctx n with
        | Ok t -> go (t :: acc) rest
        | Error d -> Error d)
  in
  go [] names

let rec conjuncts (e : A.expr) =
  match e with
  | A.E_binop (A.And, a, b) -> conjuncts a @ conjuncts b
  | e -> [ e ]

let is_label_col = function
  | A.E_col (_, c) -> norm c = "_label"
  | _ -> false

(* Split a WHERE clause into [_label = {…}] equalities and everything
   else. *)
let split_label_eqs (where : A.expr option) =
  match where with
  | None -> ([], [])
  | Some e ->
      List.partition_map
        (fun c ->
          match c with
          | A.E_binop (A.Eq, l, A.E_label_lit names) when is_label_col l ->
              Either.Left names
          | A.E_binop (A.Eq, A.E_label_lit names, r) when is_label_col r ->
              Either.Left names
          | c -> Either.Right c)
        (conjuncts e)

(* ------------------------------------------------------------------ *)
(* SELECT analysis                                                     *)
(* ------------------------------------------------------------------ *)

(* Each analysis below returns whether its relation is provably
   vacuous (returns no row), adding diagnostics as it goes. *)
let rec analyze_select_acc ctx ~extra ~seen ~add (sel : A.select) : bool =
  let walk e = walk_expr_diags ctx ~extra ~seen ~add e in
  List.iter
    (function A.Sel_expr (e, _) -> walk e | A.Sel_star | A.Sel_table_star _ -> ())
    sel.A.items;
  Option.iter walk sel.A.where;
  Option.iter walk sel.A.having;
  List.iter walk sel.A.group_by;
  List.iter (fun (e, _) -> walk e) sel.A.order_by;
  let from_vacuous =
    match sel.A.from with
    | None -> false
    | Some r -> analyze_ref ctx ~extra ~seen ~add r
  in
  let dst = Label.union ctx.an_label extra in
  (* [_label = {…}] equality against a single base-table scan *)
  let scans_base_table =
    match sel.A.from with
    | Some (A.T_table (name, _)) -> find_rtable ctx name <> None
    | _ -> false
  in
  let lits, _others = split_label_eqs sel.A.where in
  let lit_labels =
    List.filter_map
      (fun names -> Result.to_option (resolve_label ctx names))
      lits
  in
  let vac_lit =
    match lit_labels with
    | [] -> false
    | l :: rest when not (List.for_all (Label.equal l) rest) ->
        add
          (Diag.warning Diag.Vacuous_query
             "contradictory _label equalities (%s) can match no row"
             (String.concat " vs "
                (List.map (lbl ctx) (List.sort_uniq Label.compare lit_labels))));
        true
    | l :: _ when scans_base_table ->
        if not (flows ctx ~src:l ~dst) then begin
          add
            (Diag.warning Diag.Vacuous_query
               "the _label = %s filter is invisible under the session label \
                %s: the predicate can match no stored row"
               (lbl ctx l) (lbl ctx dst));
          true
        end
        else false
    | _ -> false
  in
  let vacuous = from_vacuous || vac_lit in
  let members =
    List.map (fun (_k, m) -> analyze_select_acc ctx ~extra ~seen ~add m)
      sel.A.unions
  in
  List.fold_left ( && ) vacuous members

and walk_expr_diags ctx ~extra ~seen ~add e =
  walk_expr e
    ~lits:(fun names ->
      List.iter
        (fun n ->
          match resolve_tag ctx n with Ok _ -> () | Error d -> add d)
        names)
    ~subs:(fun s -> ignore (analyze_select_acc ctx ~extra ~seen ~add s))

and analyze_ref ctx ~extra ~seen ~add (r : A.table_ref) : bool =
  match r with
  | A.T_table (name, _) -> analyze_relation ctx ~extra ~seen ~add name
  | A.T_join (l, kind, rr, cond) -> (
      let lv = analyze_ref ctx ~extra ~seen ~add l in
      let rv = analyze_ref ctx ~extra ~seen ~add rr in
      Option.iter (walk_expr_diags ctx ~extra ~seen ~add) cond;
      match kind with A.Inner -> lv || rv | A.Left -> lv)
  | A.T_subquery (s, _) -> analyze_select_acc ctx ~extra ~seen ~add s

and analyze_relation ctx ~extra ~seen ~add name : bool =
  match find_rtable ctx name with
  | Some rt ->
      let dst = Label.union ctx.an_label extra in
      (* the partitions of a vacuous scan, [[]] otherwise.  A live scan
         reads the executor's cached confinement verdict: vacuous iff
         it keeps nothing and prunes something, and the partition lists
         are built only to word the diagnostic.  A symbolic trace folds
         the script's own writes over the committed partitions. *)
      let hidden =
        match (sym_trace ctx, rt.rt_heap) with
        | None, Some heap ->
            let v =
              Catalog.confine ctx.an_store heap
                ~dst:(Label_store.intern ctx.an_store dst)
            in
            if Array.length v.Heap.kept = 0 && v.Heap.pruned > 0 then
              (partitions ctx rt ~dst).p_hidden
            else []
        | Some ts, _ ->
            Ts.note_read ts ~table:rt.rt_name ~dst;
            let parts = partitions ctx rt ~dst in
            if parts.p_visible = [] && parts.p_unknown = 0 then parts.p_hidden
            else []
        | None, None -> []
      in
      if hidden <> [] then
        add
          (Diag.warning Diag.Vacuous_query
             "scan of %s is vacuous: all %d stored row(s) carry labels (%s) \
              that cannot flow to the session label %s"
             rt.rt_name (total hidden) (labels_str ctx hidden) (lbl ctx dst));
      hidden <> []
  | None -> (
      match find_rview ctx name with
      | Some vw ->
          if List.mem (norm name) seen then false
          else begin
            let relabel = vw.Catalog.vw_relabel in
            let from_tags = Label.of_list (List.map fst relabel) in
            let extra' =
              Label.union extra (Label.union vw.Catalog.vw_declassify from_tags)
            in
            analyze_select_acc ctx ~extra:extra' ~seen:(norm name :: seen) ~add
              vw.Catalog.vw_query
          end
      | None ->
          add (Diag.error Diag.Name_error "unknown relation %s" name);
          false)

(* ------------------------------------------------------------------ *)
(* Write analysis (UPDATE / DELETE)                                    *)
(* ------------------------------------------------------------------ *)

(* Decide the Write-Rule fate of an UPDATE/DELETE.  [Error] only when
   the failure is guaranteed: the statement's matched rows provably
   include a row the session cannot write (no restricting predicate
   beyond the [_label] equality, and the offending partitions are
   live).  Anything data- or predicate-dependent is a [Warning]. *)
let analyze_write_target ctx ~add ~table ~where ~verb : rtable option =
  match find_rtable ctx table with
  | None ->
      (match find_rview ctx table with
      | Some _ ->
          add
            (Diag.error Diag.Name_error
               "%s is a view; %s targets a base table" table verb)
      | None -> add (Diag.error Diag.Name_error "unknown relation %s" table));
      None
  | Some rt ->
      let ls = ctx.an_label in
      let tname = rt.rt_name in
      (match sym_trace ctx with
      | Some ts -> Ts.note_read ts ~table:tname ~dst:ls
      | None -> ());
      let parts = partitions ctx rt ~dst:ls in
      let lits, others = split_label_eqs where in
      let lit_labels =
        List.filter_map
          (fun names -> Result.to_option (resolve_label ctx names))
          lits
      in
      (match lit_labels with
      | l :: rest when not (List.for_all (Label.equal l) rest) ->
          add
            (Diag.warning Diag.Vacuous_query
               "contradictory _label equalities in %s of %s can match no row"
               verb tname)
      | l :: _ ->
          if not (flows ctx ~src:l ~dst:ls) then
            add
              (Diag.warning Diag.Vacuous_query
                 "%s of %s is restricted to _label = %s, which is invisible \
                  under the session label %s: it matches nothing"
                 verb tname (lbl ctx l) (lbl ctx ls))
          else if not (Label.equal l ls) then begin
            let count =
              List.fold_left
                (fun acc (pl, n) -> if Label.equal pl l then acc + n else acc)
                0 parts.p_visible
            in
            if count > 0 && others = [] then
              add
                (Diag.error Diag.Doomed_write
                   "%s of %s is doomed: it matches %d visible row(s) labeled \
                    %s, but the session label is %s and the Write Rule only \
                    allows writing exact-label rows"
                   verb tname count (lbl ctx l) (lbl ctx ls))
            else
              add
                (Diag.warning Diag.Doomed_write
                   "%s of %s can only match rows labeled %s, which the \
                    session (label %s) cannot write under the Write Rule"
                   verb tname (lbl ctx l) (lbl ctx ls))
          end
      | [] ->
          if parts.p_unknown > 0 then begin
            (* Data-dependent under trace interpretation: rows may sit in
               partitions the analysis cannot pin down, and any of them
               under a foreign label fails the Write Rule. *)
            if sym_trace ctx <> None then
              add
                (Diag.warning Diag.Doomed_write
                   "%s of %s may touch rows whose labels the trace cannot \
                    pin down; the Write Rule rejects any row not labeled \
                    exactly %s"
                   verb tname (lbl ctx ls))
          end
          else if parts.p_visible = [] then begin
            if parts.p_hidden <> [] then
              add
                (Diag.warning Diag.Vacuous_query
                   "%s of %s matches nothing: all %d stored row(s) carry \
                    labels (%s) invisible to the session label %s"
                   verb tname (total parts.p_hidden)
                   (labels_str ctx parts.p_hidden)
                   (lbl ctx ls))
          end
          else if
            not (List.exists (fun (l, _) -> Label.equal l ls) parts.p_visible)
          then begin
            if others = [] then
              add
                (Diag.error Diag.Doomed_write
                   "%s of %s is doomed: every visible row carries a label \
                    (%s) different from the session label %s, and the Write \
                    Rule forbids writing any of them"
                   verb tname
                   (labels_str ctx parts.p_visible)
                   (lbl ctx ls))
            else
              add
                (Diag.warning Diag.Doomed_write
                   "%s of %s cannot modify any row: no visible row of %s \
                    carries the session label %s"
                   verb tname tname (lbl ctx ls))
          end
          else begin
            let wrong =
              List.filter
                (fun (l, _) -> not (Label.equal l ls))
                parts.p_visible
            in
            if wrong <> [] then
              if others = [] then
                add
                  (Diag.error Diag.Doomed_write
                     "%s of %s without a restricting predicate touches every \
                      visible row, including %d row(s) labeled %s that the \
                      session (label %s) cannot write"
                     verb tname (total wrong) (labels_str ctx wrong)
                     (lbl ctx ls))
              else
                add
                  (Diag.warning Diag.Doomed_write
                     "%s of %s may touch rows labeled %s that the session \
                      (label %s) cannot write under the Write Rule"
                     verb tname (labels_str ctx wrong) (lbl ctx ls))
          end);
      Some rt

(* ------------------------------------------------------------------ *)
(* INSERT analysis                                                     *)
(* ------------------------------------------------------------------ *)

let analyze_insert ctx ~add ~i_table ~i_columns ~i_rows ~i_select
    ~i_declassifying =
  List.iter
    (List.iter (fun e -> walk_expr_diags ctx ~extra:Label.empty ~seen:[] ~add e))
    i_rows;
  (* resolve the target: a base table, or an updatable view (which adds
     its declassify label to the stored tuples) *)
  let target =
    match find_rtable ctx i_table with
    | Some rt -> Some (rt, Label.empty, false)
    | None -> (
        match find_rview ctx i_table with
        | Some vw ->
            if vw.Catalog.vw_relabel <> [] then begin
              add
                (Diag.error Diag.Name_error
                   "INSERT through relabeling view %s is not supported" i_table);
              None
            end
            else begin
              match vw.Catalog.vw_query with
              | {
               A.from = Some (A.T_table (base, _));
               where = None;
               group_by = [];
               having = None;
               distinct = false;
               unions = [];
               _;
              } -> (
                  match find_rtable ctx base with
                  | Some rt -> Some (rt, vw.Catalog.vw_declassify, true)
                  | None ->
                      add
                        (Diag.error Diag.Name_error
                           "view %s references unknown table %s" i_table base);
                      None)
              | _ ->
                  add
                    (Diag.error Diag.Name_error "view %s is not updatable"
                       i_table);
                  None
            end
        | None ->
            add (Diag.error Diag.Name_error "unknown relation %s" i_table);
            None)
  in
  let declared_tags =
    List.filter_map
      (fun name ->
        match resolve_tag ctx name with
        | Error d ->
            add d;
            None
        | Ok t ->
            (if not (auth_has ctx t) then
               match causal_revoke ctx t with
               | Some ridx ->
                   add
                     (Diag.error Diag.Declassify_after_revoke
                        "INSERT ... DECLASSIFYING (%s): the authority backing \
                         principal %s's declassification was revoked by \
                         statement %d of this script — the insert is certain \
                         to be rejected"
                        name (principal_str ctx) ridx)
               | None ->
                   add
                     (Diag.error Diag.Overbroad_declassify
                        "INSERT ... DECLASSIFYING (%s): principal %s lacks \
                         authority for the tag (no ownership, compound, or \
                         live delegation chain reaches it)"
                        name (principal_str ctx)));
            Some t)
      i_declassifying
  in
  let declared = Label.of_list declared_tags in
  Option.iter
    (fun sel ->
      if analyze_select_acc ctx ~extra:Label.empty ~seen:[] ~add sel then
        add
          (Diag.warning Diag.Vacuous_query
             "INSERT ... SELECT into %s inserts nothing: the source query is \
              vacuous under the session label %s"
             i_table (lbl ctx ctx.an_label)))
    i_select;
  match target with
  | None -> ()
  | Some (rt, view_label, via_view) ->
      let schema = rt.rt_schema in
      if not via_view then
        Option.iter
          (List.iter (fun c ->
               if Schema.col_index_opt schema c = None then
                 add
                   (Diag.error Diag.Name_error
                      "column %s of %s does not exist" c i_table)))
          i_columns;
      let lw = Label.union ctx.an_label view_label in
      (* Foreign Key Rule feasibility: value-independent — if no live
         referenced partition's label difference from the write label is
         covered by the DECLASSIFYING clause, no inserted row naming a
         non-NULL key can ever satisfy the FK. *)
      let row_expr_for row col =
        match i_columns with
        | Some cs ->
            let rec idx i = function
              | [] -> None
              | c :: rest -> if norm c = norm col then Some i else idx (i + 1) rest
            in
            (match idx 0 cs with
            | None -> Some (A.E_const Value.Null) (* column omitted: NULL *)
            | Some i -> List.nth_opt row i)
        | None -> (
            match Schema.col_index_opt schema col with
            | None -> None
            | Some i -> List.nth_opt row i)
      in
      let classify_row fk row =
        let exprs = List.map (row_expr_for row) fk.Schema.fk_cols in
        if
          List.exists
            (function
              | Some (A.E_const v) -> Value.is_null v
              | _ -> false)
            exprs
        then `Null
        else if
          List.for_all
            (function Some (A.E_const _) -> true | _ -> false)
            exprs
        then `Definite
        else `May
      in
      if not via_view then
        List.iter
          (fun fk ->
            match find_rtable ctx fk.Schema.fk_ref_table with
            | None -> ()
            | Some rtbl ->
                let rparts = partitions ctx rtbl ~dst:Label.empty in
                let all = rparts.p_visible @ rparts.p_hidden in
                let candidates =
                  List.sort_uniq Label.compare
                    (List.map fst all @ rparts.p_maybe)
                in
                if
                  candidates <> []
                  && rparts.p_unknown = List.length rparts.p_maybe
                then begin
                  let feasible =
                    List.exists
                      (fun lb -> Label.subset (Label.symm_diff lw lb) declared)
                      candidates
                  in
                  if not feasible then begin
                    let engagement =
                      if i_select <> None then `May
                      else
                        List.fold_left
                          (fun acc row ->
                            match (acc, classify_row fk row) with
                            | `Definite, _ | _, `Definite -> `Definite
                            | `May, _ | _, `May -> `May
                            | `Null, `Null -> `Null)
                          `Null i_rows
                    in
                    (* maybe-only rows ([p_maybe]) still demote to a
                       warning: the referenced row may not exist at
                       all, in which case the failure is a constraint
                       violation, not a flow one *)
                    let engagement =
                      match engagement with
                      | `Definite when all = [] -> `May
                      | e -> e
                    in
                    let labels =
                      String.concat ", " (List.map (lbl ctx) candidates)
                    in
                    match engagement with
                    | `Null -> ()
                    | `Definite ->
                        add
                          (Diag.error Diag.Fk_leak
                             "INSERT into %s labeled %s cannot satisfy \
                              foreign key %s: every live %s row carries a \
                              label (%s) whose difference from the write \
                              label is not covered by DECLASSIFYING (%s) — \
                              the Foreign Key Rule forbids the reference"
                             rt.rt_name (lbl ctx lw) fk.Schema.fk_name
                             fk.Schema.fk_ref_table labels (lbl ctx declared))
                    | `May ->
                        add
                          (Diag.warning Diag.Fk_leak
                             "INSERT into %s labeled %s may violate foreign \
                              key %s: live %s rows carry labels (%s) whose \
                              difference from the write label is not covered \
                              by DECLASSIFYING (%s)"
                             rt.rt_name (lbl ctx lw) fk.Schema.fk_name
                             fk.Schema.fk_ref_table labels (lbl ctx declared))
                  end
                end)
          schema.Schema.foreign_keys

(* ------------------------------------------------------------------ *)
(* DDL and transaction analysis                                        *)
(* ------------------------------------------------------------------ *)

let base_tables_of_select ctx sel =
  let acc = ref [] in
  let rec go_sel seen (s : A.select) =
    Option.iter (go_ref seen) s.A.from;
    List.iter (fun (_, m) -> go_sel seen m) s.A.unions
  and go_ref seen = function
    | A.T_table (name, _) -> (
        match find_rtable ctx name with
        | Some rt ->
            if not (List.exists (fun r -> norm r.rt_name = norm rt.rt_name) !acc)
            then acc := rt :: !acc
        | None -> (
            match find_rview ctx name with
            | Some vw when not (List.mem (norm name) seen) ->
                go_sel (norm name :: seen) vw.Catalog.vw_query
            | Some _ | None -> ()))
    | A.T_join (l, _, r, _) ->
        go_ref seen l;
        go_ref seen r
    | A.T_subquery (s, _) -> go_sel seen s
  in
  go_sel [] sel;
  List.rev !acc

let analyze_create_view ctx ~add ~cv_name ~cv_query ~cv_declassifying
    ~cv_materialized =
  (* problems inside the view body are warnings: CREATE VIEW itself
     succeeds even if the query cannot run yet *)
  let soften d =
    add { d with Diag.d_severity = Diag.Warning }
  in
  let declared =
    Label.of_list
      (List.filter_map
         (fun n -> Result.to_option (resolve_tag ctx n))
         cv_declassifying)
  in
  ignore
    (analyze_select_acc ctx ~extra:declared ~seen:[] ~add:soften cv_query);
  (* a MATERIALIZED view outside the delta compiler's supported shapes
     silently degrades to per-read recomputation: worth a warning at
     definition time, with the compiler's own reason *)
  (if cv_materialized then
     let support cat =
       let pctx =
         { Ifdb_engine.Planner.pc_catalog = cat; pc_auth = ctx.an_auth;
           pc_exec = None }
       in
       let plan, _columns =
         Ifdb_engine.Planner.plan_select pctx ~extra:declared cv_query
       in
       Ifdb_engine.Ivm.plan_supported plan
     in
     match
       try support ctx.an_catalog
       with e when sym_trace ctx <> None -> (
         (* the script may have created the base tables symbolically,
            in which case the real catalog cannot plan the body: retry
            against a scratch catalog holding the resolvable base
            tables' schemas (views in the body still fall through) *)
         try
           let scratch =
             Catalog.create ~pool:(Catalog.pool ctx.an_catalog)
               ~labeled:false ()
           in
           List.iter
             (fun rt -> ignore (Catalog.create_table scratch rt.rt_schema))
             (base_tables_of_select ctx cv_query);
           support scratch
         with _ -> raise e)
     with
     | Ok () -> ()
     | Error reason ->
         add
           (Diag.warning Diag.Recompute_fallback
              "materialized view %s cannot be maintained incrementally \
               (%s): every read will recompute it from the base tables"
              cv_name reason)
     | exception _ ->
         (* body does not even plan here (unknown names are reported
            above; subqueries need an executor) — nothing to add *)
         ());
  if cv_declassifying <> [] then begin
    if not (Label.is_empty ctx.an_label) then
      add
        (Diag.error Diag.Overbroad_declassify
           "CREATE VIEW %s WITH DECLASSIFYING requires an empty session \
            label (the view definition is public state); the session label \
            is %s"
           cv_name
           (lbl ctx ctx.an_label));
    List.iter
      (fun name ->
        match resolve_tag ctx name with
        | Error d -> add d
        | Ok t ->
            if not (auth_has ctx t) then (
              match causal_revoke ctx t with
              | Some ridx ->
                  add
                    (Diag.error Diag.Declassify_after_revoke
                       "view %s declassifies tag %s, but the authority \
                        backing principal %s was revoked by statement %d of \
                        this script — the CREATE is certain to be rejected"
                       cv_name name (principal_str ctx) ridx)
              | None ->
                  add
                    (Diag.error Diag.Overbroad_declassify
                       "view %s declassifies tag %s, but principal %s lacks \
                        authority for it (no ownership, compound, or live \
                        delegation chain reaches it)"
                       cv_name name (principal_str ctx)))
            else begin
              (* authorized, but does the tag ever occur (compound-aware)
                 in the base tables' live label partitions? *)
              let tables = base_tables_of_select ctx cv_query in
              let any_rows = ref false and occurs = ref false in
              List.iter
                (fun tbl ->
                  let parts = partitions ctx tbl ~dst:Label.empty in
                  if parts.p_unknown > 0 then begin
                    any_rows := true;
                    occurs := true
                  end;
                  List.iter
                    (fun (l, _) ->
                      any_rows := true;
                      if
                        Label.exists
                          (fun m ->
                            Authority.covers ctx.an_auth (Label.singleton t) m)
                          l
                      then occurs := true)
                    (parts.p_visible @ parts.p_hidden))
                tables;
              if !any_rows && not !occurs then
                add
                  (Diag.warning Diag.Overbroad_declassify
                     "view %s declassifies tag %s, but no live row of its \
                      base table(s) carries it: the clause currently \
                      declassifies nothing"
                     cv_name name)
            end)
      cv_declassifying
  end

let analyze_create_table ctx ~add ~ct_name ~ct_constraints =
  List.iter
    (function
      | A.C_foreign_key { c_cols; c_ref_table; c_ref_cols = _ } -> (
          match find_rtable ctx c_ref_table with
          | None ->
              add
                (Diag.error Diag.Name_error
                   "foreign key on %s references unknown table %s" ct_name
                   c_ref_table)
          | Some rtbl ->
              let parts = partitions ctx rtbl ~dst:Label.empty in
              let labeled =
                List.filter
                  (fun (l, _) -> not (Label.is_empty l))
                  (parts.p_visible @ parts.p_hidden)
              in
              if labeled <> [] then
                add
                  (Diag.warning Diag.Fk_leak
                     "foreign key %s(%s) references %s, whose rows carry \
                      label(s) %s: inserting a reference from a session \
                      under another label requires DECLASSIFYING the \
                      difference, and deleting a referenced row can be \
                      restricted by referencing rows the deleter cannot see \
                      (Foreign Key Rule)"
                     ct_name (String.concat ", " c_cols) c_ref_table
                     (labels_str ctx labeled)))
      | A.C_primary_key _ | A.C_unique _ -> ())
    ct_constraints

let analyze_commit ctx ~add =
  let ls = ctx.an_label in
  (* with a runtime shadow trace, cite the statement that first wrote
     each offending label *)
  let origin w =
    match ctx.an_trace with
    | Some ts -> (
        match
          List.find_opt (fun (_, _, l, _) -> Label.equal l w) (Ts.txn_writes ts)
        with
        | Some (i, tblname, _, _) when i > 0 ->
            Printf.sprintf " (first written by statement %d of the \
                            transaction%s)"
              i
              (if tblname = "" then "" else ", into " ^ tblname)
        | Some _ | None -> "")
    | None -> ""
  in
  let seen = ref [] in
  List.iter
    (fun w ->
      if not (List.exists (Label.equal w) !seen) then begin
        seen := w :: !seen;
        if not (flows ctx ~src:ls ~dst:w) then begin
          let missing =
            List.filter
              (fun t -> not (Authority.covers ctx.an_auth w t))
              (Label.to_list ls)
          in
          let fixable =
            missing <> [] && List.for_all (fun t -> auth_has ctx t) missing
          in
          let mstr = String.concat ", " (List.map (tag_str ctx) missing) in
          add
            (Diag.error Diag.Commit_trap
               (if fixable then
                  "COMMIT is doomed: the commit label %s does not flow to \
                   written tuple label %s%s; the session holds authority for \
                   %s and could declassify them before committing"
                else
                  "COMMIT is doomed: the commit label %s does not flow to \
                   written tuple label %s%s, and the session lacks authority \
                   for %s — the transaction can only roll back")
               (lbl ctx ls) (lbl ctx w) (origin w) mstr)
        end
      end)
    (Lazy.force ctx.an_write_labels)

let perform_name_args (args : A.expr list) =
  let name_of = function
    | A.E_col (None, n) -> Some n
    | A.E_const (Value.Text n) -> Some n
    | _ -> None
  in
  let names = List.map name_of args in
  if List.for_all Option.is_some names then
    Some (List.filter_map Fun.id names)
  else None

let perform_tag_arg (args : A.expr list) =
  match perform_name_args args with Some [ n ] -> Some n | _ -> None

let resolve_principal ctx name =
  match Authority.find_principal ctx.an_auth name with
  | p -> Ok p
  | exception Authority.Unknown _ ->
      Error (Diag.error Diag.Name_error "unknown principal %S" name)

let analyze_perform ctx ~add name args =
  match (norm name, perform_name_args args) with
  | "addsecrecy", Some [ n ] -> (
      match resolve_tag ctx n with
      | Error d -> add d
      | Ok t ->
          (* Clearance rule (Serializable only): raising secrecy inside
             an explicit transaction requires authority for the tag. *)
          if ctx.an_clearance && ctx.an_in_txn && not (auth_has ctx t) then
            add
              (Diag.error Diag.Overbroad_declassify
                 "PERFORM addsecrecy(%s) inside a serializable transaction: \
                  the clearance rule requires principal %s to hold authority \
                  for the tag, and it does not"
                 n (principal_str ctx)))
  | "declassify", Some [ n ] -> (
      match resolve_tag ctx n with
      | Error d -> add d
      | Ok t ->
          if not (auth_has ctx t) then (
            match causal_revoke ctx t with
            | Some ridx ->
                add
                  (Diag.error Diag.Declassify_after_revoke
                     "PERFORM declassify(%s): the authority backing \
                      principal %s was revoked by statement %d of this \
                      script — the declassification is certain to be denied"
                     n (principal_str ctx) ridx)
            | None ->
                add
                  (Diag.error Diag.Overbroad_declassify
                     "PERFORM declassify(%s): principal %s lacks authority \
                      for the tag"
                     n (principal_str ctx))))
  | "delegate", Some [ tn; gn ] -> (
      match (resolve_tag ctx tn, resolve_principal ctx gn) with
      | Error d, _ | _, Error d -> add d
      | Ok t, Ok _ ->
          if not (Label.is_empty ctx.an_label) then
            add
              (Diag.error Diag.Runtime_error
                 "PERFORM delegate(%s, %s) will fail: delegation requires an \
                  empty session label (delegations are public state), but \
                  the label is %s"
                 tn gn
                 (lbl ctx ctx.an_label))
          else if not (auth_has ctx t) then (
            match causal_revoke ctx t with
            | Some ridx ->
                add
                  (Diag.error Diag.Declassify_after_revoke
                     "PERFORM delegate(%s, %s): the authority principal %s \
                      would pass on was revoked by statement %d of this \
                      script — the delegation is certain to be denied"
                     tn gn (principal_str ctx) ridx)
            | None ->
                add
                  (Diag.error Diag.Overbroad_declassify
                     "PERFORM delegate(%s, %s): principal %s lacks authority \
                      for the tag and cannot pass it on"
                     tn gn (principal_str ctx))))
  | "revoke", Some [ tn; gn ] -> (
      match (resolve_tag ctx tn, resolve_principal ctx gn) with
      | Error d, _ | _, Error d -> add d
      | Ok _, Ok _ ->
          if not (Label.is_empty ctx.an_label) then
            add
              (Diag.error Diag.Runtime_error
                 "PERFORM revoke(%s, %s) will fail: revocation requires an \
                  empty session label, but the label is %s"
                 tn gn
                 (lbl ctx ctx.an_label)))
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let rec analyze_stmt ctx (stmt : A.stmt) : Diag.t list =
  let out = ref [] in
  let add d = out := d :: !out in
  let walk e = walk_expr_diags ctx ~extra:Label.empty ~seen:[] ~add e in
  (match stmt with
  | A.S_select sel ->
      ignore (analyze_select_acc ctx ~extra:Label.empty ~seen:[] ~add sel)
  | A.S_update { u_table; u_sets; u_where } -> (
      List.iter (fun (_, e) -> walk e) u_sets;
      Option.iter walk u_where;
      match
        analyze_write_target ctx ~add ~table:u_table ~where:u_where
          ~verb:"UPDATE"
      with
      | Some tbl ->
          let schema = tbl.rt_schema in
          List.iter
            (fun (c, _) ->
              if Schema.col_index_opt schema c = None then
                add
                  (Diag.error Diag.Name_error
                     "column %s of %s does not exist" c u_table))
            u_sets
      | None -> ())
  | A.S_delete { d_table; d_where } ->
      Option.iter walk d_where;
      ignore
        (analyze_write_target ctx ~add ~table:d_table ~where:d_where
           ~verb:"DELETE")
  | A.S_insert { i_table; i_columns; i_rows; i_select; i_declassifying } ->
      analyze_insert ctx ~add ~i_table ~i_columns ~i_rows ~i_select
        ~i_declassifying
  | A.S_create_view { cv_name; cv_query; cv_declassifying; cv_materialized } ->
      analyze_create_view ctx ~add ~cv_name ~cv_query ~cv_declassifying
        ~cv_materialized
  | A.S_create_table { ct_name; ct_columns = _; ct_constraints } ->
      analyze_create_table ctx ~add ~ct_name ~ct_constraints
  | A.S_commit -> analyze_commit ctx ~add
  | A.S_perform (name, args) -> analyze_perform ctx ~add name args
  | A.S_explain { x_stmt; _ } ->
      (* EXPLAIN inherits the diagnostics of the statement it wraps
         (already sorted; re-sorting below is stable). *)
      List.iter add (analyze_stmt ctx x_stmt)
  | A.S_prepare { pr_stmt; _ } ->
      (* Analyze the body once, at PREPARE time.  No blanket demotion
         for parameterized templates: every Error verdict is already
         derived from parameter-free evidence alone.  A doomed-write
         Error requires the predicate to contain nothing beyond a
         literal [_label] equality (a [$n] anywhere in the WHERE lands
         in [others] and demotes to Warning), an FK-leak Error requires
         every key expression to be a constant (a [$n] classifies the
         row as [`May]), vacuous-query is never an Error, and commit
         traps depend only on the accumulated write set.  So an Error
         on a template holds for {e every} possible binding and must
         stay an Error — [UPDATE t SET k = $1] with no WHERE is doomed
         no matter what is bound. *)
      List.iter add (analyze_stmt ctx pr_stmt)
  | A.S_execute _ | A.S_deallocate _
  (* EXECUTE reuses the diagnostics stored at PREPARE time (the session
     re-analyzes when authority or catalog stamps move). *)
  | A.S_begin | A.S_rollback | A.S_create_index _ | A.S_drop _ -> ());
  let diags = List.rev !out in
  List.stable_sort
    (fun a b -> compare (not (Diag.is_error a)) (not (Diag.is_error b)))
    diags

let rec referenced_tags (stmt : A.stmt) : string list =
  let acc = ref [] in
  let push n = if not (List.mem n !acc) then acc := n :: !acc in
  let rec go_expr e = walk_expr e ~lits:(List.iter push) ~subs:go_sel
  and go_sel (s : A.select) =
    List.iter
      (function
        | A.Sel_expr (e, _) -> go_expr e
        | A.Sel_star | A.Sel_table_star _ -> ())
      s.A.items;
    Option.iter go_ref s.A.from;
    Option.iter go_expr s.A.where;
    Option.iter go_expr s.A.having;
    List.iter go_expr s.A.group_by;
    List.iter (fun (e, _) -> go_expr e) s.A.order_by;
    List.iter (fun (_, m) -> go_sel m) s.A.unions
  and go_ref = function
    | A.T_table _ -> ()
    | A.T_join (l, _, r, c) ->
        go_ref l;
        go_ref r;
        Option.iter go_expr c
    | A.T_subquery (s, _) -> go_sel s
  in
  (match stmt with
  | A.S_select s -> go_sel s
  | A.S_insert { i_rows; i_select; i_declassifying; _ } ->
      List.iter push i_declassifying;
      List.iter (List.iter go_expr) i_rows;
      Option.iter go_sel i_select
  | A.S_update { u_sets; u_where; _ } ->
      List.iter (fun (_, e) -> go_expr e) u_sets;
      Option.iter go_expr u_where
  | A.S_delete { d_where; _ } -> Option.iter go_expr d_where
  | A.S_create_view { cv_query; cv_declassifying; _ } ->
      List.iter push cv_declassifying;
      go_sel cv_query
  | A.S_perform (name, args)
    when List.mem (norm name) [ "addsecrecy"; "declassify" ] ->
      Option.iter push (perform_tag_arg args)
  | A.S_explain { x_stmt; _ } -> List.iter push (referenced_tags x_stmt)
  | A.S_prepare { pr_stmt; _ } -> List.iter push (referenced_tags pr_stmt)
  | A.S_execute { ex_args; _ } -> List.iter go_expr ex_args
  | A.S_perform _ | A.S_create_table _ | A.S_create_index _ | A.S_drop _
  | A.S_begin | A.S_commit | A.S_rollback | A.S_deallocate _ ->
      ());
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* Parameter substitution (ifdb_lint --bind, EXECUTE with constants)   *)
(* ------------------------------------------------------------------ *)

let subst_params (bindings : Value.t array) (stmt : A.stmt) : A.stmt =
  let rec ex (e : A.expr) : A.expr =
    match e with
    | A.E_param n when n >= 1 && n <= Array.length bindings ->
        A.E_const bindings.(n - 1)
    | A.E_param _ | A.E_const _ | A.E_col _ | A.E_count_star
    | A.E_label_lit _ ->
        e
    | A.E_binop (op, a, b) -> A.E_binop (op, ex a, ex b)
    | A.E_not a -> A.E_not (ex a)
    | A.E_neg a -> A.E_neg (ex a)
    | A.E_is_null a -> A.E_is_null (ex a)
    | A.E_is_not_null a -> A.E_is_not_null (ex a)
    | A.E_in (a, xs) -> A.E_in (ex a, List.map ex xs)
    | A.E_like (a, p) -> A.E_like (ex a, p)
    | A.E_fn (n, args) -> A.E_fn (n, List.map ex args)
    | A.E_count_distinct a -> A.E_count_distinct (ex a)
    | A.E_case (arms, els) ->
        A.E_case (List.map (fun (c, v) -> (ex c, ex v)) arms, Option.map ex els)
    | A.E_scalar_subquery s -> A.E_scalar_subquery (sel s)
    | A.E_exists s -> A.E_exists (sel s)
  and sel (s : A.select) : A.select =
    {
      s with
      A.items =
        List.map
          (function
            | A.Sel_expr (e, a) -> A.Sel_expr (ex e, a)
            | (A.Sel_star | A.Sel_table_star _) as it -> it)
          s.A.items;
      from = Option.map rf s.A.from;
      where = Option.map ex s.A.where;
      group_by = List.map ex s.A.group_by;
      having = Option.map ex s.A.having;
      order_by = List.map (fun (e, d) -> (ex e, d)) s.A.order_by;
      unions = List.map (fun (k, m) -> (k, sel m)) s.A.unions;
    }
  and rf (r : A.table_ref) : A.table_ref =
    match r with
    | A.T_table _ -> r
    | A.T_join (l, k, rr, c) -> A.T_join (rf l, k, rf rr, Option.map ex c)
    | A.T_subquery (s, a) -> A.T_subquery (sel s, a)
  and st (stmt : A.stmt) : A.stmt =
    match stmt with
    | A.S_select s -> A.S_select (sel s)
    | A.S_insert { i_table; i_columns; i_rows; i_select; i_declassifying } ->
        A.S_insert
          {
            i_table;
            i_columns;
            i_rows = List.map (List.map ex) i_rows;
            i_select = Option.map sel i_select;
            i_declassifying;
          }
    | A.S_update { u_table; u_sets; u_where } ->
        A.S_update
          {
            u_table;
            u_sets = List.map (fun (c, e) -> (c, ex e)) u_sets;
            u_where = Option.map ex u_where;
          }
    | A.S_delete { d_table; d_where } ->
        A.S_delete { d_table; d_where = Option.map ex d_where }
    | A.S_perform (n, args) -> A.S_perform (n, List.map ex args)
    | A.S_explain { x_analyze; x_stmt } ->
        A.S_explain { x_analyze; x_stmt = st x_stmt }
    | A.S_prepare { pr_name; pr_stmt } ->
        A.S_prepare { pr_name; pr_stmt = st pr_stmt }
    | A.S_execute { ex_name; ex_args } ->
        A.S_execute { ex_name; ex_args = List.map ex ex_args }
    | A.S_create_view _ | A.S_create_table _ | A.S_create_index _
    | A.S_drop _ | A.S_begin | A.S_commit | A.S_rollback
    | A.S_deallocate _ ->
        stmt
  in
  st stmt

(* ------------------------------------------------------------------ *)
(* Trace-level abstract interpretation                                 *)
(* ------------------------------------------------------------------ *)

(* The per-statement context under the trace's current symbolic state.
   [an_write_labels] is emptied: the open transaction's write set lives
   in the trace and COMMIT is handled by the driver, not by
   [analyze_commit]. *)
let trace_ctx ctx ts =
  {
    ctx with
    an_principal = Ts.principal ts;
    an_label = Ts.label ts;
    an_in_txn = Ts.in_open_txn ts;
    an_trace = Some ts;
    an_write_labels = Lazy.from_val [];
  }

(* Total version of the executor's CREATE TABLE schema derivation. *)
let schema_of_create_ast ~ct_name ~ct_columns ~ct_constraints :
    Schema.t option =
  let columns =
    List.map (fun (c : A.column_def) -> (c.A.cd_name, c.A.cd_type)) ct_columns
  in
  let col_pk =
    List.filter_map
      (fun (c : A.column_def) ->
        if c.A.cd_primary_key then Some c.A.cd_name else None)
      ct_columns
  in
  let table_pks =
    List.filter_map
      (function A.C_primary_key cols -> Some cols | _ -> None)
      ct_constraints
  in
  match (col_pk, table_pks) with
  | _ :: _, _ :: _ | _, _ :: _ :: _ -> None
  | _ -> (
      let primary_key =
        match (col_pk, table_pks) with
        | pk, [] -> pk
        | [], [ pk ] -> pk
        | _ -> assert false
      in
      let nullable =
        List.filter_map
          (fun (c : A.column_def) ->
            if
              c.A.cd_not_null || c.A.cd_primary_key
              || List.mem c.A.cd_name primary_key
            then None
            else Some c.A.cd_name)
          ct_columns
      in
      let uniques =
        List.filter_map
          (fun (c : A.column_def) ->
            if c.A.cd_unique then
              Some
                (Printf.sprintf "%s_%s_key" ct_name c.A.cd_name,
                 [ c.A.cd_name ])
            else None)
          ct_columns
        @ List.filter_map
            (function
              | A.C_unique cols ->
                  Some
                    ( Printf.sprintf "%s_%s_key" ct_name
                        (String.concat "_" cols),
                      cols )
              | _ -> None)
            ct_constraints
      in
      let foreign_keys =
        List.mapi
          (fun i -> function
            | A.C_foreign_key { c_cols; c_ref_table; c_ref_cols } ->
                Some
                  {
                    Schema.fk_name = Printf.sprintf "%s_fkey_%d" ct_name i;
                    fk_cols = c_cols;
                    fk_ref_table = c_ref_table;
                    fk_ref_cols = c_ref_cols;
                  }
            | A.C_primary_key _ | A.C_unique _ -> None)
          ct_constraints
        |> List.filter_map Fun.id
      in
      match
        Schema.make ~name:ct_name ~columns ~nullable ~primary_key ~uniques
          ~foreign_keys ()
      with
      | sch -> Some sch
      | exception _ -> None)

(* Is an INSERT certain to add at least one row (so its partition event
   is [Ins_def])?  Requires literal VALUES rows in schema order that
   pass the static row checks, against an unconstrained table, not
   through a view. *)
let definite_insert rt ~i_columns ~i_rows ~i_select ~via_view =
  (not via_view) && i_select = None && i_columns = None
  && (not rt.rt_constrained)
  && i_rows <> []
  && List.for_all
       (fun row ->
         List.for_all (function A.E_const _ -> true | _ -> false) row
         && List.length row = Array.length rt.rt_schema.Schema.columns
         &&
         match
           Schema.check_values rt.rt_schema
             (Array.of_list
                (List.map
                   (function A.E_const v -> v | _ -> assert false)
                   row))
         with
         | Ok () -> true
         | Error _ -> false)
       i_rows

(* State effects of a statement that is not certain to fail, applied
   after its diagnostics.  BEGIN/COMMIT/ROLLBACK/EXECUTE are handled by
   the driver itself. *)
let apply_stmt_effects ctx ts idx (stmt : A.stmt) : unit =
  let ectx = trace_ctx ctx ts in
  match stmt with
  | A.S_insert { i_table; i_columns; i_rows; i_select; i_declassifying = _ }
    -> (
      let target =
        match find_rtable ectx i_table with
        | Some rt -> Some (rt, Label.empty, false)
        | None -> (
            match find_rview ectx i_table with
            | Some vw when vw.Catalog.vw_relabel = [] -> (
                match vw.Catalog.vw_query with
                | {
                 A.from = Some (A.T_table (base, _));
                 where = None;
                 group_by = [];
                 having = None;
                 distinct = false;
                 unions = [];
                 _;
                } ->
                    Option.map
                      (fun rt -> (rt, vw.Catalog.vw_declassify, true))
                      (find_rtable ectx base)
                | _ -> None)
            | Some _ | None -> None)
      in
      match target with
      | None -> ()
      | Some (rt, view_label, via_view) ->
          let lw = Label.union (Ts.label ts) view_label in
          let definite =
            definite_insert rt ~i_columns ~i_rows ~i_select ~via_view
          in
          Ts.add_delta ts rt.rt_name ~index:idx
            (if definite then Ts.Ins_def lw else Ts.Ins_maybe lw);
          if Ts.in_open_txn ts then
            Ts.record_txn_write ts ~index:idx ~table:rt.rt_name ~label:lw
              ~definite)
  | A.S_update { u_table; _ } ->
      if Ts.in_open_txn ts then
        Option.iter
          (fun rt ->
            Ts.record_txn_write ts ~index:idx ~table:rt.rt_name
              ~label:(Ts.label ts) ~definite:false)
          (find_rtable ectx u_table)
  | A.S_delete { d_table; _ } -> (
      match find_rtable ectx d_table with
      | Some rt ->
          Ts.add_delta ts rt.rt_name ~index:idx (Ts.Del (Ts.label ts));
          if Ts.in_open_txn ts then
            Ts.record_txn_write ts ~index:idx ~table:rt.rt_name
              ~label:(Ts.label ts) ~definite:false
      | None -> ())
  | A.S_create_table { ct_name; ct_columns; ct_constraints } -> (
      match schema_of_create_ast ~ct_name ~ct_columns ~ct_constraints with
      | Some sch ->
          Ts.define_table ts
            {
              Ts.at_name = ct_name;
              at_schema = sch;
              at_constrained = schema_constrained sch;
            };
          Ts.note_stamp_event ts ~index:idx
      | None -> ())
  | A.S_create_view { cv_name; cv_query; cv_declassifying; cv_materialized }
    ->
      let declassify =
        Label.of_list
          (List.filter_map
             (fun n -> Result.to_option (resolve_tag ectx n))
             cv_declassifying)
      in
      Ts.define_view ts
        {
          Ts.av_name = cv_name;
          av_query = cv_query;
          av_declassify = declassify;
          av_materialized = cv_materialized;
        };
      Ts.note_stamp_event ts ~index:idx
  | A.S_create_index _ -> Ts.note_stamp_event ts ~index:idx
  | A.S_drop (_, name) ->
      Ts.drop ts name;
      Ts.note_stamp_event ts ~index:idx
  | A.S_perform (name, args) -> (
      match (norm name, perform_name_args args) with
      | "addsecrecy", Some [ n ] -> (
          match Authority.find_tag ctx.an_auth n with
          | t -> Ts.set_label ts (Label.add t (Ts.label ts))
          | exception Authority.Unknown _ -> ())
      | "declassify", Some [ n ] -> (
          match Authority.find_tag ctx.an_auth n with
          | t -> Ts.set_label ts (Label.remove t (Ts.label ts))
          | exception Authority.Unknown _ -> ())
      | "delegate", Some [ tn; gn ] -> (
          match
            (Authority.find_tag ctx.an_auth tn,
             Authority.find_principal ctx.an_auth gn)
          with
          | t, g ->
              Ts.delegate_edge ts ~grantor:(Ts.principal ts) ~grantee:g ~tag:t
                ~index:idx
          | exception Authority.Unknown _ -> ())
      | "revoke", Some [ tn; gn ] -> (
          match
            (Authority.find_tag ctx.an_auth tn,
             Authority.find_principal ctx.an_auth gn)
          with
          | t, g ->
              Ts.revoke_edge ts ~grantor:(Ts.principal ts) ~grantee:g ~tag:t
                ~index:idx
          | exception Authority.Unknown _ -> ())
      | _ -> ())
  | A.S_prepare { pr_name; pr_stmt } ->
      Ts.define_prepared ts ~name:pr_name ~stmt:pr_stmt ~index:idx
  | A.S_deallocate (Some name) -> Ts.remove_prepared ts name
  | A.S_deallocate None -> Ts.clear_prepared ts
  | A.S_select _ | A.S_explain _ | A.S_begin | A.S_commit | A.S_rollback
  | A.S_execute _ ->
      ()

(* COMMIT of the symbolically tracked transaction: the cross-statement
   commit-label rule.  An [Error] needs a definite write under a label
   the commit label provably does not flow to. *)
let analyze_trace_commit ctx ts ~add : [ `Doomed | `Maybe | `Clean ] =
  let ectx = trace_ctx ctx ts in
  let ls = Ts.label ts in
  (* strongest record per written label *)
  let by_label =
    List.fold_left
      (fun acc (widx, wtbl, w, definite) ->
        match List.find_opt (fun (l, _, _, _) -> Label.equal l w) acc with
        | Some (_, _, _, d0) when d0 || not definite -> acc
        | Some _ ->
            (w, widx, wtbl, definite)
            :: List.filter (fun (l, _, _, _) -> not (Label.equal l w)) acc
        | None -> (w, widx, wtbl, definite) :: acc)
      [] (Ts.txn_writes ts)
  in
  let result = ref `Clean in
  List.iter
    (fun (w, widx, wtbl, definite) ->
      if not (flows ectx ~src:ls ~dst:w) then begin
        let missing =
          List.filter
            (fun t -> not (Authority.covers ctx.an_auth w t))
            (Label.to_list ls)
        in
        let fixable =
          missing <> [] && List.for_all (fun t -> auth_has ectx t) missing
        in
        let mstr = String.concat ", " (List.map (tag_str ectx) missing) in
        let origin =
          if widx > 0 then
            Printf.sprintf " (written by statement %d%s)" widx
              (if wtbl = "" then "" else " into " ^ wtbl)
          else ""
        in
        if definite then begin
          result := `Doomed;
          add
            (Diag.error Diag.Txn_commit_trap
               (if fixable then
                  "COMMIT is doomed: the commit label %s does not flow to \
                   tuple label %s%s; the session holds authority for %s and \
                   could declassify them before committing"
                else
                  "COMMIT is doomed: the commit label %s does not flow to \
                   tuple label %s%s, and the session lacks authority for %s \
                   — the transaction can only roll back")
               (lbl ectx ls) (lbl ectx w) origin mstr)
        end
        else begin
          if !result = `Clean then result := `Maybe;
          add
            (Diag.warning Diag.Txn_commit_trap
               "COMMIT may be rejected: the commit label %s does not flow to \
                tuple label %s possibly written%s"
               (lbl ectx ls) (lbl ectx w) origin)
        end
      end)
    (List.rev by_label);
  !result

let diag_sort diags =
  List.stable_sort
    (fun a b -> compare (not (Diag.is_error a)) (not (Diag.is_error b)))
    diags

let analyze_trace_stmt ctx ts (stmt : A.stmt) : Diag.t list =
  let idx = Ts.next_index ts in
  let out = ref [] in
  let add d = out := d :: !out in
  let ectx () = trace_ctx ctx ts in
  (match stmt with
  | (A.S_commit | A.S_rollback) when Ts.broken ts <> None ->
      let bidx = Option.get (Ts.broken ts) in
      add
        (Diag.error Diag.Runtime_error
           "will fail: the guaranteed failure at statement %d already \
            aborted this transaction, so there is no open transaction to %s"
           bidx
           (match stmt with A.S_commit -> "COMMIT" | _ -> "ROLLBACK"));
      Ts.close_txn ts ~outcome:`Abort
  | A.S_begin when Ts.broken ts <> None ->
      (* the broken transaction is already gone at runtime; this BEGIN
         opens a fresh one *)
      Ts.close_txn ts ~outcome:`Abort;
      Ts.begin_txn ts ~index:idx ()
  | _ ->
      (match Ts.broken ts with
      | Some bidx ->
          add
            (Diag.warning Diag.Unreachable_stmt
               "statement is unreachable as part of the transaction: the \
                guaranteed failure at statement %d aborts it first, so this \
                statement runs in its own implicit transaction"
               bidx)
      | None -> ());
      (match stmt with
      | A.S_begin ->
          if Ts.txn ts <> None then begin
            add
              (Diag.error Diag.Runtime_error
                 "will fail: already inside a transaction — and the failure \
                  aborts the open transaction's work");
            Ts.mark_broken ts ~index:idx
          end
          else Ts.begin_txn ts ~index:idx ()
      | A.S_commit -> (
          match Ts.txn ts with
          | None ->
              add
                (Diag.error Diag.Runtime_error
                   "will fail: COMMIT outside a transaction")
          | Some _ ->
              let outcome = analyze_trace_commit ctx ts ~add in
              Ts.close_txn ts
                ~outcome:
                  (match outcome with
                  | `Doomed -> `Abort
                  | `Maybe -> `Maybe
                  | `Clean -> `Commit))
      | A.S_rollback -> (
          match Ts.txn ts with
          | None ->
              add
                (Diag.error Diag.Runtime_error
                   "will fail: ROLLBACK outside a transaction")
          | Some _ -> Ts.close_txn ts ~outcome:`Abort)
      | A.S_prepare { pr_name; pr_stmt } -> (
          if Ts.find_prepared ts pr_name <> None then
            add
              (Diag.error Diag.Runtime_error
                 "will fail: prepared statement %s already exists" pr_name)
          else
            match pr_stmt with
            | A.S_prepare _ | A.S_execute _ | A.S_deallocate _ ->
                add
                  (Diag.error Diag.Runtime_error
                     "will fail: cannot PREPARE a PREPARE, EXECUTE or \
                      DEALLOCATE")
            | _ -> List.iter add (analyze_stmt (ectx ()) stmt))
      | A.S_execute { ex_name; ex_args } -> (
          match Ts.find_prepared ts ex_name with
          | None ->
              add
                (Diag.error Diag.Name_error
                   "prepared statement %s does not exist" ex_name)
          | Some p ->
              Ts.note_execute ts ~name:ex_name ~index:idx;
              let nparams = A.max_param p.Ts.pp_stmt in
              if List.length ex_args <> nparams then
                add
                  (Diag.error Diag.Runtime_error
                     "will fail: prepared statement %s expects %d \
                      parameter(s), got %d"
                     ex_name nparams (List.length ex_args))
              else begin
                let const_args =
                  List.filter_map
                    (function A.E_const v -> Some v | _ -> None)
                    ex_args
                in
                (* with all-constant arguments the template analyzes as
                   the fully bound statement — cross-statement precision
                   per-statement linting cannot have *)
                let inner =
                  if List.length const_args = nparams then
                    subst_params (Array.of_list const_args) p.Ts.pp_stmt
                  else p.Ts.pp_stmt
                in
                let diags = analyze_stmt (ectx ()) inner in
                List.iter add diags;
                if not (List.exists Diag.is_error diags) then
                  apply_stmt_effects ctx ts idx inner
              end)
      | A.S_deallocate (Some name) ->
          if Ts.find_prepared ts name = None then
            add
              (Diag.error Diag.Runtime_error
                 "will fail: prepared statement %s does not exist" name)
      | A.S_deallocate None -> ()
      | A.S_create_table { ct_name; _ } ->
          let e = ectx () in
          if find_rtable e ct_name <> None || find_rview e ct_name <> None
          then
            add
              (Diag.error Diag.Name_error "relation %s already exists"
                 ct_name)
          else List.iter add (analyze_stmt e stmt)
      | A.S_create_view { cv_name; _ } ->
          let e = ectx () in
          if find_rtable e cv_name <> None || find_rview e cv_name <> None
          then
            add
              (Diag.error Diag.Name_error "relation %s already exists"
                 cv_name)
          else List.iter add (analyze_stmt e stmt)
      | A.S_create_index { ci_table; _ } ->
          let e = ectx () in
          if find_rtable e ci_table = None then
            add
              (Diag.error Diag.Name_error
                 "CREATE INDEX on unknown table %s" ci_table)
      | A.S_drop (kind, name) -> (
          let e = ectx () in
          match kind with
          | `Table ->
              if find_rtable e name = None then
                add (Diag.error Diag.Name_error "no such table: %s" name)
          | `View ->
              if find_rview e name = None then
                add (Diag.error Diag.Name_error "no such view: %s" name)
          | `Index -> (* index names are not tracked *) ())
      | A.S_select _ | A.S_insert _ | A.S_update _ | A.S_delete _
      | A.S_perform _ | A.S_explain _ ->
          List.iter add (analyze_stmt (ectx ()) stmt));
      let so_far = List.rev !out in
      let fatal =
        match stmt with
        | A.S_prepare _ ->
            (* Error verdicts on the template body predict the EXECUTE,
               not the PREPARE: PREPARE itself only fails on the
               duplicate-name / nested-prepare checks above (both
               [Runtime_error]).  The template must still be defined so
               a later EXECUTE resolves. *)
            List.exists
              (fun (d : Diag.t) ->
                Diag.is_error d && d.Diag.d_code = Diag.Runtime_error)
              so_far
        | _ -> List.exists Diag.is_error so_far
      in
      if fatal then begin
        if Ts.in_open_txn ts then Ts.mark_broken ts ~index:idx
      end
      else apply_stmt_effects ctx ts idx stmt);
  diag_sort (List.rev !out)

(* Meta commands (\principal, \newtag, \addsecrecy, …) consume a
   statement index too, so diagnostics can cite them uniformly.  The
   authority-changing ones share the PERFORM analysis and effects. *)
let trace_meta ctx ts ~name ~args : Diag.t list =
  let idx = Ts.next_index ts in
  let out = ref [] in
  let add d = out := d :: !out in
  let run_perform pname pargs =
    let stmt =
      A.S_perform
        (pname, List.map (fun a -> A.E_const (Value.Text a)) pargs)
    in
    let diags = analyze_stmt (trace_ctx ctx ts) stmt in
    List.iter add diags;
    if not (List.exists Diag.is_error diags) then
      apply_stmt_effects ctx ts idx stmt
  in
  (match (norm name, args) with
  | "principal", [ pname ] -> (
      match Authority.find_principal ctx.an_auth pname with
      | p -> Ts.switch_principal ts p
      | exception Authority.Unknown _ ->
          add (Diag.error Diag.Name_error "unknown principal %S" pname))
  | "newtag", [ tname ] -> (
      (* the lint driver mints the tag for real before mirroring; in a
         fully symbolic \check an unknown tag cannot be created *)
      match Authority.find_tag ctx.an_auth tname with
      | _ -> Ts.note_stamp_event ts ~index:idx
      | exception Authority.Unknown _ ->
          add
            (Diag.error Diag.Name_error
               "tag %S does not exist (tags cannot be minted symbolically)"
               tname))
  | "addsecrecy", [ t ] -> run_perform "addsecrecy" [ t ]
  | "declassify", [ t ] -> run_perform "declassify" [ t ]
  | "delegate", [ t; g ] -> run_perform "delegate" [ t; g ]
  | "revoke", [ t; g ] -> run_perform "revoke" [ t; g ]
  | _ -> ());
  diag_sort (List.rev !out)

let trace_begin ctx : Ts.t =
  let ts =
    Ts.create ~symbolic:true ~principal:ctx.an_principal ~label:ctx.an_label
      ()
  in
  (* seed an explicit transaction already open in the live session
     (shell \check mid-transaction): its accumulated write labels
     become index-0 definite writes *)
  if ctx.an_in_txn then
    Ts.begin_txn ts ~index:0
      ~writes:
        (List.map (fun l -> (0, "", l, true)) (Lazy.force ctx.an_write_labels))
      ();
  ts

(* Whole-script passes that only make sense once the end of the script
   is known. *)
let trace_finish ctx ts : (int * Diag.t list) list =
  let ectx = trace_ctx ctx ts in
  let acc = ref [] in
  let addi idx d = acc := (idx, d) :: !acc in
  (* dead-write: an insert under a non-empty label no later statement
     can read and no principal can ever declassify *)
  let reads = Ts.reads ts in
  let added, removed = Ts.overlay ts in
  let principals = Authority.all_principals ctx.an_auth in
  let escapes l =
    List.exists
      (fun p ->
        Label.for_all
          (fun t -> Authority.has_authority_hyp ctx.an_auth ~added ~removed p t)
          l)
      principals
  in
  List.iter
    (fun (idx, table, l, _definite) ->
      if not (Label.is_empty l) then begin
        let read_later =
          List.exists
            (fun (r : Ts.read_rec) ->
              r.Ts.rd_index > idx
              && r.Ts.rd_table = norm table
              && flows ectx ~src:l ~dst:r.Ts.rd_dst)
            reads
        in
        if (not read_later) && not (escapes l) then
          addi idx
            (Diag.warning Diag.Dead_write
               "rows written to %s under label %s are dead: no later \
                statement of the script reads them, and no principal in the \
                final authority graph holds authority for every tag of the \
                label, so the information can never be declassified"
               table (lbl ectx l))
      end)
    (Ts.insert_events ts);
  (* stale-prepare: a catalog/authority stamp event strictly between
     PREPARE and its first EXECUTE forces re-analysis at EXECUTE time,
     so the prepare-time plan and diagnostics are never used *)
  let stamps = Ts.stamp_events ts in
  List.iter
    (fun (pname, (p : Ts.prep)) ->
      match p.Ts.pp_first_exec with
      | Some e -> (
          match List.filter (fun i -> i > p.Ts.pp_index && i < e) stamps with
          | [] -> ()
          | i :: _ ->
              addi p.Ts.pp_index
                (Diag.warning Diag.Stale_prepare
                   "PREPARE %s is stale before first use: the \
                    catalog/authority change at statement %d invalidates \
                    the prepare-time plan before the first EXECUTE at \
                    statement %d, so preparation buys nothing"
                   pname i e))
      | None -> ())
    (Ts.prepared ts);
  let sorted = List.sort (fun (a, _) (b, _) -> compare a b) (List.rev !acc) in
  List.fold_left
    (fun groups (i, d) ->
      match groups with
      | (j, ds) :: rest when j = i -> (j, d :: ds) :: rest
      | _ -> (i, [ d ]) :: groups)
    [] sorted
  |> List.map (fun (i, ds) -> (i, List.rev ds))
  |> List.rev
