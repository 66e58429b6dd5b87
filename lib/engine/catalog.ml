module Label = Ifdb_difc.Label
module Principal = Ifdb_difc.Principal
module Schema = Ifdb_rel.Schema
module Tuple = Ifdb_rel.Tuple
module Value = Ifdb_rel.Value
module Heap = Ifdb_storage.Heap
module Btree = Ifdb_storage.Btree
module Authority = Ifdb_difc.Authority
module Label_store = Ifdb_difc.Label_store

exception Catalog_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Catalog_error s)) fmt

type index = {
  idx_name : string;
  idx_table : string;
  idx_cols : int array;
  idx_unique : bool;
  idx_segs : (int, Btree.t) Hashtbl.t;
      (* one B-tree segment per interned label id, so an index scan
         enumerates only the segments whose label flows to the session —
         the index analogue of per-partition page runs *)
}

type table = {
  tbl_schema : Schema.t;
  tbl_heap : Heap.t;
  mutable tbl_indexes : index list;
}

type view = {
  vw_name : string;
  vw_query : Ifdb_sql.Ast.select;
  vw_declassify : Label.t;
  vw_relabel : (Ifdb_difc.Tag.t * Ifdb_difc.Tag.t) list;
      (* replace (from, to): strip [from] and add [to] when [from] was
         present — the "billing view" pattern of paper section 4.3 *)
  vw_materialized : bool;
      (* registered for incremental maintenance (CREATE MATERIALIZED
         VIEW); the IVM registry in the core owns the actual state *)
}

type label_rule = Exactly of Label.t | Superset of Label.t

type label_constraint = {
  lc_name : string;
  lc_table : string;
  lc_fn : Tuple.t -> label_rule option;
}

type t = {
  cat_pool : Ifdb_storage.Buffer_pool.t;
  cat_labeled : bool;
  tables : (string, table) Hashtbl.t;
  views : (string, view) Hashtbl.t;
  mutable lcs : label_constraint list;
  mutable cat_version : int;
      (* bumped by every DDL mutation; plan-cache entries are stamped
         with the version they were planned under *)
}

let norm = String.lowercase_ascii

let create ~pool ~labeled () =
  {
    cat_pool = pool;
    cat_labeled = labeled;
    tables = Hashtbl.create 32;
    views = Hashtbl.create 16;
    lcs = [];
    cat_version = 0;
  }

let version t = t.cat_version
let bump_version t = t.cat_version <- t.cat_version + 1

let pool t = t.cat_pool
let labeled t = t.cat_labeled

let find_table t name = Hashtbl.find_opt t.tables (norm name)
let find_view t name = Hashtbl.find_opt t.views (norm name)

let table t name =
  match find_table t name with
  | Some tbl -> tbl
  | None -> fail "no such table: %s" name

let name_taken t name = find_table t name <> None || find_view t name <> None

let index_key idx values = Array.map (fun i -> values.(i)) idx.idx_cols

(* The segment holding postings for label id [lid], created by the
   first insert under it.  Readers use [Hashtbl.find_opt], so a probe
   never creates one. *)
let seg_of idx lid =
  match Hashtbl.find_opt idx.idx_segs lid with
  | Some tree -> tree
  | None ->
      let tree = Btree.create () in
      Hashtbl.add idx.idx_segs lid tree;
      tree

let build_index_over_heap tbl idx =
  Heap.iter tbl.tbl_heap (fun v ->
      Btree.insert
        (seg_of idx (Tuple.label_id v.Heap.tuple))
        (index_key idx (Tuple.values v.Heap.tuple))
        v.Heap.vid)

let mk_index t ~name ~table_name ~cols ~unique =
  let tbl = table t table_name in
  let idx_cols =
    Array.of_list
      (List.map
         (fun c ->
           match Schema.col_index_opt tbl.tbl_schema c with
           | Some i -> i
           | None -> fail "index %s: no column %s in %s" name c table_name)
         cols)
  in
  if List.exists (fun i -> norm i.idx_name = norm name) tbl.tbl_indexes then
    fail "index %s already exists" name;
  let idx =
    {
      idx_name = name;
      idx_table = norm table_name;
      idx_cols;
      idx_unique = unique;
      idx_segs = Hashtbl.create 8;
    }
  in
  build_index_over_heap tbl idx;
  tbl.tbl_indexes <- tbl.tbl_indexes @ [ idx ];
  bump_version t;
  idx

let create_table t schema =
  let name = schema.Schema.table_name in
  if name_taken t name then fail "relation %s already exists" name;
  let heap = Heap.create ~name ~labeled:t.cat_labeled ~pool:t.cat_pool () in
  let tbl = { tbl_schema = schema; tbl_heap = heap; tbl_indexes = [] } in
  Hashtbl.replace t.tables (norm name) tbl;
  (* one unique index per uniqueness constraint, primary key first *)
  List.iter
    (fun u ->
      ignore
        (mk_index t ~name:u.Schema.uq_name ~table_name:name ~cols:u.Schema.uq_cols
           ~unique:true))
    (Schema.all_uniques schema);
  bump_version t;
  tbl

let drop_table t name =
  if find_table t name = None then fail "no such table: %s" name;
  Hashtbl.remove t.tables (norm name);
  t.lcs <- List.filter (fun lc -> lc.lc_table <> norm name) t.lcs;
  bump_version t

let all_tables t = Hashtbl.fold (fun _ tbl acc -> tbl :: acc) t.tables []

let create_index t ~name ~table:table_name ~cols ~unique =
  mk_index t ~name ~table_name ~cols ~unique

let insert_into_indexes _t tbl values ~lid vid =
  List.iter
    (fun idx -> Btree.insert (seg_of idx lid) (index_key idx values) vid)
    tbl.tbl_indexes

let bulk_insert_into_indexes _t tbl rows =
  (* one sorted bulk load per index and touched segment rather than one
     descent per row *)
  List.iter
    (fun idx ->
      (* group the run by label id, preserving row order within each
         group (insert_many is order-sensitive only per key, and rows of
         one segment keep their relative order) *)
      let by_lid : (int, (Btree.key * int) list ref) Hashtbl.t =
        Hashtbl.create 4
      in
      let order = ref [] in
      List.iter
        (fun (values, lid, vid) ->
          let entry = (index_key idx values, vid) in
          match Hashtbl.find_opt by_lid lid with
          | Some l -> l := entry :: !l
          | None ->
              Hashtbl.add by_lid lid (ref [ entry ]);
              order := lid :: !order)
        rows;
      List.iter
        (fun lid ->
          let entries = Hashtbl.find by_lid lid in
          Btree.insert_many (seg_of idx lid) (List.rev !entries))
        (List.rev !order))
    tbl.tbl_indexes

let remove_from_indexes _t tbl values ~lid vid =
  List.iter
    (fun idx ->
      match Hashtbl.find_opt idx.idx_segs lid with
      | Some tree -> Btree.remove tree (index_key idx values) vid
      | None -> ())
    tbl.tbl_indexes

(* --- confinement ----------------------------------------------------

   The Query by Label rule's partition decision (section 4.2), made in
   one place for the executor and the analyzer alike: a partition is
   kept iff its label flows to the destination.  The decision reads
   only the two labels and the authority state, which is exactly what
   the verdict's generation stamp pins. *)

let confine store heap ~dst =
  if dst < 0 then Heap.confine heap ~dst ~generation:0 ~decide:(fun _ -> true)
  else
    Heap.confine heap ~dst
      ~generation:(Authority.generation (Label_store.authority store))
      ~decide:(fun lid -> Label_store.flows_id store ~src:lid ~dst)

(* --- index lookups across segments ---------------------------------

   Readers go through these instead of touching [idx_segs] directly.
   Point lookups treat the result as a set; ordered scans merge the
   per-segment streams into global (key, vid) order, so the output
   does not depend on how labels are spread over segments. *)

let index_find idx key =
  Hashtbl.fold (fun _ tree acc -> Btree.find tree key @ acc) idx.idx_segs []

(* the (key, label) identity confines a uniqueness probe to the probe
   label's own segment *)
let index_find_label idx key ~lid =
  match Hashtbl.find_opt idx.idx_segs lid with
  | Some tree -> Btree.find tree key
  | None -> []

(* k-way merge of ephemeral sequences under [cmp]; ties resolve to the
   earlier sequence, which is irrelevant here because (key, vid) pairs
   are unique across segments *)
let merge_seqs cmp (seqs : 'a Seq.t list) : 'a Seq.t =
  match seqs with
  | [] -> Seq.empty
  | [ s ] -> s
  | _ ->
      let heads = Array.of_list (List.map Seq.uncons seqs) in
      let rec next () =
        let best = ref (-1) in
        Array.iteri
          (fun i st ->
            match st with
            | None -> ()
            | Some (h, _) -> (
                match (if !best < 0 then None else heads.(!best)) with
                | None -> best := i
                | Some (bh, _) -> if cmp h bh < 0 then best := i))
          heads;
        if !best < 0 then Seq.Nil
        else
          match heads.(!best) with
          | None -> assert false
          | Some (h, rest) ->
              heads.(!best) <- Seq.uncons rest;
              Seq.Cons (h, next)
      in
      next

let compare_posting (k1, v1) (k2, v2) =
  let c = Btree.compare_key k1 k2 in
  if c <> 0 then c else compare (v1 : int) v2

let kept_segments idx kept =
  Array.of_list
    (Array.fold_right
       (fun lid acc ->
         match Hashtbl.find_opt idx.idx_segs lid with
         | Some tree -> tree :: acc
         | None -> acc)
       kept [])

let seq_segments segs ~prefix ~lo ~hi : (Btree.key * int) Seq.t =
  match segs with
  | [| tree |] -> Btree.seq_prefix_range tree ~prefix ~lo ~hi
  | _ ->
      merge_seqs compare_posting
        (Array.fold_left
           (fun acc tree -> Btree.seq_prefix_range tree ~prefix ~lo ~hi :: acc)
           [] segs)

let iter_index_entries idx f =
  Seq.iter
    (fun (k, vid) -> f k vid)
    (merge_seqs compare_posting
       (Hashtbl.fold
          (fun _ tree acc -> Btree.seq_prefix tree ~prefix:[||] :: acc)
          idx.idx_segs []))

let index_entry_count idx =
  Hashtbl.fold (fun _ tree acc -> acc + Btree.entry_count tree) idx.idx_segs 0

let create_view t ~name ~query ~declassify ?(relabel = []) ?(materialized = false)
    () =
  if name_taken t name then fail "relation %s already exists" name;
  let vw =
    { vw_name = name; vw_query = query; vw_declassify = declassify;
      vw_relabel = relabel; vw_materialized = materialized }
  in
  Hashtbl.replace t.views (norm name) vw;
  bump_version t;
  vw

let drop_view t name =
  if find_view t name = None then fail "no such view: %s" name;
  Hashtbl.remove t.views (norm name);
  bump_version t

let all_views t =
  List.sort
    (fun a b -> String.compare (norm a.vw_name) (norm b.vw_name))
    (Hashtbl.fold (fun _ vw acc -> vw :: acc) t.views [])

let add_label_constraint t lc =
  ignore (table t lc.lc_table);
  t.lcs <- t.lcs @ [ { lc with lc_table = norm lc.lc_table } ];
  bump_version t

let label_constraints_for t table_name =
  List.filter (fun lc -> lc.lc_table = norm table_name) t.lcs

let drop_index t name =
  let found = ref false in
  Hashtbl.iter
    (fun _ tbl ->
      if List.exists (fun i -> norm i.idx_name = norm name) tbl.tbl_indexes then begin
        found := true;
        tbl.tbl_indexes <-
          List.filter (fun i -> norm i.idx_name <> norm name) tbl.tbl_indexes
      end)
    t.tables;
  if not !found then fail "no such index: %s" name;
  bump_version t
