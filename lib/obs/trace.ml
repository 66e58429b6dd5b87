type node = {
  n_id : int;
  n_label : string;
  n_depth : int;
  mutable n_rows : int;
  mutable n_ns : int;
  mutable n_morsels : int;
  mutable n_by_worker : int array;
}

type scan = {
  sc_scanned : int Atomic.t;
  sc_pruned : int Atomic.t;
  sc_skipped : int Atomic.t;
}

type t = {
  mutable nodes : node list; (* reverse enter order *)
  mutable stack : node list;
  mutable next_id : int;
  scan_mu : Mutex.t;
  scans : (string, scan) Hashtbl.t;
  mutable scan_order : string list; (* reverse first-use order *)
}

let create () =
  {
    nodes = [];
    stack = [];
    next_id = 0;
    scan_mu = Mutex.create ();
    scans = Hashtbl.create 8;
    scan_order = [];
  }

let enter t label =
  let node =
    {
      n_id = t.next_id;
      n_label = label;
      n_depth = List.length t.stack;
      n_rows = 0;
      n_ns = 0;
      n_morsels = 0;
      n_by_worker = [||];
    }
  in
  t.next_id <- t.next_id + 1;
  t.nodes <- node :: t.nodes;
  t.stack <- node :: t.stack;
  node

let exit_node t node =
  match t.stack with
  | top :: rest when top == node -> t.stack <- rest
  | _ ->
      (* Unbalanced enter/exit is a tracer bug, not a user error; keep
         going rather than poison the query. *)
      t.stack <- List.filter (fun n -> not (n == node)) t.stack

let wrap_seq node (s : 'a Seq.t) : 'a Seq.t =
  let rec wrap s () =
    let t0 = Span.now_ns () in
    let r = s () in
    node.n_ns <- node.n_ns + (Span.now_ns () - t0);
    match r with
    | Seq.Nil -> Seq.Nil
    | Seq.Cons (x, rest) ->
        node.n_rows <- node.n_rows + 1;
        Seq.Cons (x, wrap rest)
  in
  wrap s

let nodes t = List.rev t.nodes

let add_ns node ns = node.n_ns <- node.n_ns + ns
let add_rows node n = node.n_rows <- node.n_rows + n

let add_morsels node ~per_worker =
  let nw = Array.length per_worker in
  if Array.length node.n_by_worker < nw then begin
    let grown = Array.make nw 0 in
    Array.blit node.n_by_worker 0 grown 0 (Array.length node.n_by_worker);
    node.n_by_worker <- grown
  end;
  Array.iteri
    (fun w c ->
      node.n_morsels <- node.n_morsels + c;
      node.n_by_worker.(w) <- node.n_by_worker.(w) + c)
    per_worker

let scan_entry t name =
  Mutex.protect t.scan_mu (fun () ->
      match Hashtbl.find_opt t.scans name with
      | Some sc -> sc
      | None ->
          let sc =
            {
              sc_scanned = Atomic.make 0;
              sc_pruned = Atomic.make 0;
              sc_skipped = Atomic.make 0;
            }
          in
          Hashtbl.replace t.scans name sc;
          t.scan_order <- name :: t.scan_order;
          sc)

let ms ns = Printf.sprintf "%.3f ms" (float_of_int ns /. 1e6)

let node_line node =
  let indent = String.make (2 * node.n_depth) ' ' in
  let base =
    Printf.sprintf "%s%s  (rows=%d time=%s" indent node.n_label node.n_rows
      (ms node.n_ns)
  in
  let morsels =
    if node.n_morsels = 0 then ""
    else begin
      let parts = ref [] in
      Array.iteri
        (fun w c -> if c > 0 then parts := Printf.sprintf "w%d:%d" w c :: !parts)
        node.n_by_worker;
      Printf.sprintf " morsels=%d workers=%s" node.n_morsels
        (String.concat "," (List.rev !parts))
    end
  in
  base ^ morsels ^ ")"

let report ?(notes = []) t ~total_ns ~rows ~flow_checks ~flow_hits =
  let tree = List.rev_map node_line t.nodes in
  let scans =
    List.rev_map
      (fun name ->
        let sc = Hashtbl.find t.scans name in
        let skipped =
          match Atomic.get sc.sc_skipped with
          | 0 -> ""
          | n -> Printf.sprintf ", %d scan(s) skipped as label-empty" n
        in
        Printf.sprintf "label confinement on %s: scanned=%d pruned=%d%s" name
          (Atomic.get sc.sc_scanned) (Atomic.get sc.sc_pruned) skipped)
      t.scan_order
  in
  let flows =
    if flow_checks = 0 then "flow checks: 0"
    else
      Printf.sprintf "flow checks: %d (memo hits=%d, hit rate=%.1f%%)"
        flow_checks flow_hits
        (100. *. float_of_int flow_hits /. float_of_int flow_checks)
  in
  tree
  @ scans
  @ notes
  @ [
      flows;
      Printf.sprintf "execution: %s, %d row%s" (ms total_ns) rows
        (if rows = 1 then "" else "s");
    ]

(* ------------------------------------------------------------------ *)
(* Slow-query log                                                      *)

type slow_entry = {
  sq_seq : int;
  sq_sql : string;
  sq_ns : int;
  sq_rows : int;
  sq_trace : int;
}

type slow_log = slow_entry Ring.t

let slow_log_create () = Ring.create ~capacity:128

let slow_log_add ?(trace = -1) sl ~sql ~ns ~rows =
  Ring.push sl (fun seq ->
      { sq_seq = seq; sq_sql = sql; sq_ns = ns; sq_rows = rows;
        sq_trace = trace })

let slow_log_recent = Ring.recent
let slow_log_count = Ring.count
