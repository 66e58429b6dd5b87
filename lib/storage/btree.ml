type key = Ifdb_rel.Value.t array

let compare_key (a : key) (b : key) =
  let na = Array.length a and nb = Array.length b in
  let n = min na nb in
  let rec go i =
    if i >= n then Int.compare na nb
    else
      let c = Ifdb_rel.Value.compare a.(i) b.(i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

(* Compare a full key against a prefix: only the prefix components
   participate, so equality means "key extends prefix". *)
let compare_to_prefix (k : key) (prefix : key) =
  let np = Array.length prefix in
  let rec go i =
    if i >= np then 0
    else
      let c = Ifdb_rel.Value.compare k.(i) prefix.(i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

type node =
  | Leaf of leaf
  | Internal of internal

and leaf = {
  mutable keys : key array;
  mutable postings : int list array; (* parallel to keys *)
  mutable next : leaf option;
}

and internal = {
  mutable seps : key array;      (* n-1 separators for n children *)
  mutable children : node array;
}

type t = {
  order : int;
  mutable root : node;
  mutable entries : int;
}

let create ?(order = 32) () =
  if order < 4 then invalid_arg "Btree.create: order must be >= 4";
  {
    order;
    root = Leaf { keys = [||]; postings = [||]; next = None };
    entries = 0;
  }

(* Position of the first element of [keys] that is >= [k] (binary search). *)
let lower_bound keys k =
  let lo = ref 0 and hi = ref (Array.length keys) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if compare_key keys.(mid) k < 0 then lo := mid + 1 else hi := mid
  done;
  !lo

(* Child index to descend into for key [k]: first separator > k gives
   its left child; separators equal to k route right (separator is the
   lowest key of the right subtree). *)
let child_index seps k =
  let lo = ref 0 and hi = ref (Array.length seps) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if compare_key seps.(mid) k <= 0 then lo := mid + 1 else hi := mid
  done;
  !lo

let array_insert a i x =
  let n = Array.length a in
  let out = Array.make (n + 1) x in
  Array.blit a 0 out 0 i;
  Array.blit a i out (i + 1) (n - i);
  out

let array_remove a i =
  let n = Array.length a in
  let out = Array.sub a 0 (n - 1) in
  Array.blit a (i + 1) out i (n - 1 - i);
  out

(* Returns Some (separator, right sibling) if the node split. *)
let rec insert_into t node k vid =
  match node with
  | Leaf l ->
      let i = lower_bound l.keys k in
      if i < Array.length l.keys && compare_key l.keys.(i) k = 0 then begin
        if not (List.mem vid l.postings.(i)) then begin
          l.postings.(i) <- vid :: l.postings.(i);
          t.entries <- t.entries + 1
        end;
        None
      end
      else begin
        l.keys <- array_insert l.keys i k;
        l.postings <- array_insert l.postings i [ vid ];
        t.entries <- t.entries + 1;
        if Array.length l.keys <= t.order then None
        else begin
          let mid = Array.length l.keys / 2 in
          let right =
            {
              keys = Array.sub l.keys mid (Array.length l.keys - mid);
              postings = Array.sub l.postings mid (Array.length l.postings - mid);
              next = l.next;
            }
          in
          l.keys <- Array.sub l.keys 0 mid;
          l.postings <- Array.sub l.postings 0 mid;
          l.next <- Some right;
          Some (right.keys.(0), Leaf right)
        end
      end
  | Internal n -> (
      let ci = child_index n.seps k in
      match insert_into t n.children.(ci) k vid with
      | None -> None
      | Some (sep, right) ->
          n.seps <- array_insert n.seps ci sep;
          n.children <- array_insert n.children (ci + 1) right;
          if Array.length n.children <= t.order then None
          else begin
            let midc = Array.length n.children / 2 in
            (* children midc.. go right; separator midc-1 is promoted *)
            let promoted = n.seps.(midc - 1) in
            let right_node =
              {
                seps = Array.sub n.seps midc (Array.length n.seps - midc);
                children =
                  Array.sub n.children midc (Array.length n.children - midc);
              }
            in
            n.seps <- Array.sub n.seps 0 (midc - 1);
            n.children <- Array.sub n.children 0 midc;
            Some (promoted, Internal right_node)
          end)

let insert t k vid =
  match insert_into t t.root k vid with
  | None -> ()
  | Some (sep, right) ->
      t.root <- Internal { seps = [| sep |]; children = [| t.root; right |] }

(* ---- sorted bulk load ----------------------------------------------

   [insert_many] sorts the run once, groups postings per key, and makes
   a single descent per subtree instead of one root-to-leaf walk per
   key.  Leaves are rebuilt by merging sorted arrays; an overfull node
   splits into several near-equal chunks at once (a "multi-split"),
   with the extra (separator, sibling) pairs propagated up in one pass.
   The result is observably identical to inserting each pair with
   {!insert} in run order.  A one-pair run is that reference itself:
   it takes {!insert}'s in-place path, which rebuilds no node. *)

(* Near-equal chunk sizes, each <= order (and >= order/2 when the total
   exceeds order, keeping nodes respectably full). *)
let chunk_sizes n order =
  let nchunks = (n + order - 1) / order in
  let base = n / nchunks and rem = n mod nchunks in
  List.init nchunks (fun i -> if i < rem then base + 1 else base)

let take_chunks xs sizes =
  let rec take n acc xs =
    if n = 0 then (List.rev acc, xs)
    else
      match xs with
      | [] -> (List.rev acc, [])
      | x :: rest -> take (n - 1) (x :: acc) rest
  in
  let rec go xs = function
    | [] -> []
    | s :: sizes ->
        let chunk, rest = take s [] xs in
        chunk :: go rest sizes
  in
  go xs sizes

let bulk_load t pairs =
  if pairs <> [] then begin
    (* stable sort on the key alone: vids keep their run order within a
       key, so the prepend fold below builds exactly the postings list
       sequential inserts would (latest arrival first) *)
    let sorted =
      List.stable_sort (fun (k1, _) (k2, _) -> compare_key k1 k2) pairs
    in
    let groups =
      let rec go acc = function
        | [] -> List.rev_map (fun (k, vs) -> (k, List.rev vs)) acc
        | (k, v) :: rest -> (
            match acc with
            | (k', vs) :: acc' when compare_key k' k = 0 ->
                if List.mem v vs then go acc rest
                else go ((k', v :: vs) :: acc') rest
            | _ -> go ((k, [ v ]) :: acc) rest)
      in
      go [] sorted
    in
    let added = ref 0 in
    let merge_postings existing vids =
      List.fold_left
        (fun ps v ->
          if List.mem v ps then ps
          else begin
            incr added;
            v :: ps
          end)
        existing vids
    in
    (* A "cell" is a child with the separator to its left (None for the
       leftmost).  [node_of_cells] turns a run of cells back into the
       (seps, children) arrays of an internal node. *)
    let node_of_cells cells =
      let children = Array.of_list (List.map snd cells) in
      let seps =
        Array.of_list
          (List.map (fun (s, _) -> Option.get s) (List.tl cells))
      in
      (seps, children)
    in
    (* Split an overfull cell run: the first chunk stays in place (the
       caller keeps its existing parent pointer), later chunks become
       new right siblings whose leading separator is promoted. *)
    let split_cells cells =
      match take_chunks cells (chunk_sizes (List.length cells) t.order) with
      | [] -> assert false
      | first :: rest ->
          let extras =
            List.map
              (fun chunk ->
                match chunk with
                | (Some promoted, _) :: _ ->
                    let seps, children = node_of_cells chunk in
                    (promoted, Internal { seps; children })
                | _ -> assert false)
              rest
          in
          (first, extras)
    in
    (* Returns the (separator, new right sibling) pairs this subtree
       spilled, ascending; [] when everything fit. *)
    let rec bulk node groups =
      match node with
      | Leaf l ->
          let n = Array.length l.keys in
          (* merge the sorted existing entries with the sorted groups *)
          let merged =
            let rec go i groups acc =
              match groups with
              | [] ->
                  let rec rest j acc =
                    if j >= n then List.rev acc
                    else rest (j + 1) ((l.keys.(j), l.postings.(j)) :: acc)
                  in
                  rest i acc
              | (gk, vids) :: gr ->
                  if i >= n then
                    go i gr ((gk, merge_postings [] vids) :: acc)
                  else
                    let c = compare_key l.keys.(i) gk in
                    if c < 0 then
                      go (i + 1) groups ((l.keys.(i), l.postings.(i)) :: acc)
                    else if c = 0 then
                      go (i + 1) gr
                        ((gk, merge_postings l.postings.(i) vids) :: acc)
                    else go i gr ((gk, merge_postings [] vids) :: acc)
            in
            go 0 groups []
          in
          let total = List.length merged in
          if total <= t.order then begin
            l.keys <- Array.of_list (List.map fst merged);
            l.postings <- Array.of_list (List.map snd merged);
            []
          end
          else begin
            match take_chunks merged (chunk_sizes total t.order) with
            | [] -> assert false
            | first :: rest ->
                l.keys <- Array.of_list (List.map fst first);
                l.postings <- Array.of_list (List.map snd first);
                let after = l.next in
                (* build right-to-left so each new leaf chains forward *)
                let rec build = function
                  | [] -> (after, [])
                  | chunk :: more ->
                      let nx, extras = build more in
                      let leaf =
                        {
                          keys = Array.of_list (List.map fst chunk);
                          postings = Array.of_list (List.map snd chunk);
                          next = nx;
                        }
                      in
                      (Some leaf, (leaf.keys.(0), Leaf leaf) :: extras)
                in
                let nx, extras = build rest in
                l.next <- nx;
                extras
          end
      | Internal nd ->
          let nseps = Array.length nd.seps in
          let slices = Array.make (Array.length nd.children) [] in
          (* child i takes keys < seps.(i) (a key equal to a separator
             routes right, matching [child_index]) *)
          let rec distribute i groups =
            if i >= nseps then slices.(i) <- groups
            else begin
              let rec span acc = function
                | ((k, _) as g) :: rest when compare_key k nd.seps.(i) < 0 ->
                    span (g :: acc) rest
                | rest -> (List.rev acc, rest)
              in
              let mine, rest = span [] groups in
              slices.(i) <- mine;
              distribute (i + 1) rest
            end
          in
          distribute 0 groups;
          let cells = ref [] in
          Array.iteri
            (fun i child ->
              let sep = if i = 0 then None else Some nd.seps.(i - 1) in
              cells := (sep, child) :: !cells;
              if slices.(i) <> [] then
                List.iter
                  (fun (s, spilled) -> cells := (Some s, spilled) :: !cells)
                  (bulk child slices.(i)))
            nd.children;
          let cells = List.rev !cells in
          if List.length cells <= t.order then begin
            let seps, children = node_of_cells cells in
            nd.seps <- seps;
            nd.children <- children;
            []
          end
          else begin
            let first, extras = split_cells cells in
            let seps, children = node_of_cells first in
            nd.seps <- seps;
            nd.children <- children;
            extras
          end
    in
    let rec grow extras =
      match extras with
      | [] -> ()
      | _ ->
          let cells =
            (None, t.root) :: List.map (fun (s, nd) -> (Some s, nd)) extras
          in
          if List.length cells <= t.order then begin
            let seps, children = node_of_cells cells in
            t.root <- Internal { seps; children }
          end
          else begin
            let first, extras' = split_cells cells in
            let seps, children = node_of_cells first in
            t.root <- Internal { seps; children };
            grow extras'
          end
    in
    grow (bulk t.root groups);
    t.entries <- t.entries + !added
  end

let insert_many t pairs =
  match pairs with
  | [ (k, vid) ] -> insert t k vid
  | _ -> bulk_load t pairs

let rec find_leaf node k =
  match node with
  | Leaf l -> l
  | Internal n -> find_leaf n.children.(child_index n.seps k) k

let find t k =
  let l = find_leaf t.root k in
  let i = lower_bound l.keys k in
  if i < Array.length l.keys && compare_key l.keys.(i) k = 0 then l.postings.(i)
  else []

let remove t k vid =
  let l = find_leaf t.root k in
  let i = lower_bound l.keys k in
  if i < Array.length l.keys && compare_key l.keys.(i) k = 0 then begin
    let before = l.postings.(i) in
    let after = List.filter (fun v -> v <> vid) before in
    if List.length after < List.length before then begin
      t.entries <- t.entries - 1;
      if after = [] then begin
        l.keys <- array_remove l.keys i;
        l.postings <- array_remove l.postings i
      end
      else l.postings.(i) <- after
    end
  end

type bound = Unbounded | Incl of key | Excl of key

let leftmost_leaf node =
  let rec go = function
    | Leaf l -> l
    | Internal n -> go n.children.(0)
  in
  go node

let iter_range t ~lo ~hi f =
  let start_leaf, start_idx =
    match lo with
    | Unbounded -> (leftmost_leaf t.root, 0)
    | Incl k | Excl k ->
        let l = find_leaf t.root k in
        let i = lower_bound l.keys k in
        let i =
          match lo with
          | Excl _ when i < Array.length l.keys && compare_key l.keys.(i) k = 0 ->
              i + 1
          | _ -> i
        in
        (l, i)
  in
  let past_hi k =
    match hi with
    | Unbounded -> false
    | Incl h -> compare_key k h > 0
    | Excl h -> compare_key k h >= 0
  in
  let rec walk leaf idx =
    if idx >= Array.length leaf.keys then
      match leaf.next with None -> () | Some nx -> walk nx 0
    else begin
      let k = leaf.keys.(idx) in
      if not (past_hi k) then begin
        List.iter (fun vid -> f k vid) (List.rev leaf.postings.(idx));
        walk leaf (idx + 1)
      end
    end
  in
  walk start_leaf start_idx

let iter_all t f = iter_range t ~lo:Unbounded ~hi:Unbounded f

let entry_count t = t.entries

let depth t =
  let rec go acc = function
    | Leaf _ -> acc
    | Internal n -> go (acc + 1) n.children.(0)
  in
  go 1 t.root

let check_invariants t =
  let fail fmt = Format.kasprintf (fun s -> Error s) fmt in
  let rec check node lo hi depth_here : (int, string) result =
    let in_bounds k =
      (match lo with None -> true | Some b -> compare_key k b >= 0)
      && match hi with None -> true | Some b -> compare_key k b < 0
    in
    match node with
    | Leaf l ->
        if Array.length l.keys <> Array.length l.postings then
          fail "leaf keys/postings length mismatch"
        else begin
          let ok = ref (Ok depth_here) in
          Array.iteri
            (fun i k ->
              if !ok = Ok depth_here then begin
                if i > 0 && compare_key l.keys.(i - 1) k >= 0 then
                  ok := fail "leaf keys not strictly sorted";
                if not (in_bounds k) then ok := fail "leaf key out of bounds"
              end)
            l.keys;
          !ok
        end
    | Internal n ->
        if Array.length n.children <> Array.length n.seps + 1 then
          fail "internal arity mismatch"
        else begin
          let result = ref None in
          Array.iteri
            (fun i sep ->
              if !result = None then begin
                if i > 0 && compare_key n.seps.(i - 1) sep >= 0 then
                  result := Some (fail "separators not sorted");
                if not (in_bounds sep) then
                  result := Some (fail "separator out of bounds")
              end)
            n.seps;
          match !result with
          | Some e -> e
          | None ->
              let depths = ref [] in
              let err = ref None in
              Array.iteri
                (fun i child ->
                  if !err = None then begin
                    let clo = if i = 0 then lo else Some n.seps.(i - 1) in
                    let chi =
                      if i = Array.length n.seps then hi else Some n.seps.(i)
                    in
                    match check child clo chi (depth_here + 1) with
                    | Ok d -> depths := d :: !depths
                    | Error e -> err := Some e
                  end)
                n.children;
              (match !err with
              | Some e -> Error e
              | None -> (
                  match List.sort_uniq Int.compare !depths with
                  | [ d ] -> Ok d
                  | _ -> fail "unbalanced subtree depths"))
        end
  in
  match check t.root None None 1 with Ok _ -> Ok () | Error e -> Error e

(* Lazy prefix-range walk: the same leaf chase as the eager iterators,
   but demand-driven — a consumer that stops early (LIMIT, a probe join
   finding its match) never visits the remaining leaves, and nothing is
   materialized per scan. *)
let seq_prefix_range t ~prefix ~lo ~hi : (key * int) Seq.t =
  let np = Array.length prefix in
  let component k = if Array.length k > np then Some k.(np) else None in
  let below_lo k =
    match (lo, component k) with
    | None, _ -> false
    | Some _, None -> false
    | Some (v, incl), Some c ->
        let cmp = Ifdb_rel.Value.compare c v in
        if incl then cmp < 0 else cmp <= 0
  in
  let above_hi k =
    match (hi, component k) with
    | None, _ -> false
    | Some _, None -> false
    | Some (v, incl), Some c ->
        let cmp = Ifdb_rel.Value.compare c v in
        if incl then cmp > 0 else cmp >= 0
  in
  (* seek directly to the start of the range *)
  let seek_key =
    match lo with
    | Some (v, _) -> Array.append prefix [| v |]
    | None -> prefix
  in
  let l = find_leaf t.root seek_key in
  let i = lower_bound l.keys seek_key in
  let rec walk leaf idx () =
    if idx >= Array.length leaf.keys then
      match leaf.next with None -> Seq.Nil | Some nx -> walk nx 0 ()
    else begin
      let k = leaf.keys.(idx) in
      let c = compare_to_prefix k prefix in
      if c < 0 then walk leaf (idx + 1) ()
      else if c > 0 then Seq.Nil (* left the prefix region: sorted, so done *)
      else if above_hi k then Seq.Nil
      else if below_lo k then walk leaf (idx + 1) ()
      else
        let rec postings ps () =
          match ps with
          | [] -> walk leaf (idx + 1) ()
          | vid :: rest -> Seq.Cons ((k, vid), postings rest)
        in
        postings (List.rev leaf.postings.(idx)) ()
    end
  in
  walk l i

let seq_prefix t ~prefix = seq_prefix_range t ~prefix ~lo:None ~hi:None

let iter_prefix_range t ~prefix ~lo ~hi f =
  Seq.iter (fun (k, vid) -> f k vid) (seq_prefix_range t ~prefix ~lo ~hi)

let iter_prefix t ~prefix f =
  Seq.iter (fun (k, vid) -> f k vid) (seq_prefix t ~prefix)
