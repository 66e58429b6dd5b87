module Db = Ifdb_core.Database
module Errors = Ifdb_core.Errors

type response = { status : [ `Ok | `Blocked | `Error ]; body : string }
type handler = Process.t -> (string * string) list -> string

type t = {
  db : Db.t;
  the_gate : Gate.t;
  shared_cache : Auth_cache.t;
  routes : (string, handler) Hashtbl.t;
  if_platform : bool;
  base_cost_ns : int;
  mutable n_requests : int;
  mutable n_blocked : int;
  mutable cpu_ns : int;
}

(* simulated PHP-IF cost of one counted label/authority operation *)
let label_op_cost_ns = 20_000

let create ?(if_platform = true) ?(base_cost_ns = 200_000) db =
  {
    db;
    the_gate = Gate.create ();
    shared_cache = Auth_cache.create (Db.authority db);
    routes = Hashtbl.create 16;
    if_platform;
    base_cost_ns;
    n_requests = 0;
    n_blocked = 0;
    cpu_ns = 0;
  }

let database t = t.db
let gate t = t.the_gate
let cache t = t.shared_cache

let route t path handler = Hashtbl.replace t.routes path handler

let handle t ~path ~user ~params =
  t.n_requests <- t.n_requests + 1;
  match Hashtbl.find_opt t.routes path with
  | None ->
      t.cpu_ns <- t.cpu_ns + t.base_cost_ns;
      { status = `Error; body = Printf.sprintf "404 %s" path }
  | Some handler ->
      let session = Db.connect t.db ~principal:user in
      let proc = Process.create ~cache:t.shared_cache session in
      let finish status body =
        let ops = if t.if_platform then Process.op_count proc else 0 in
        t.cpu_ns <-
          t.cpu_ns + t.base_cost_ns + (ops * label_op_cost_ns);
        if status = `Blocked then t.n_blocked <- t.n_blocked + 1;
        { status; body }
      in
      (match handler proc params with
      | body ->
          (* interpose on output: a contaminated process emits nothing *)
          if Gate.try_send t.the_gate proc body then finish `Ok body
          else finish `Blocked ""
      | exception Errors.Flow_violation _ -> finish `Blocked ""
      | exception Errors.Authority_required _ -> finish `Blocked ""
      | exception Errors.Constraint_violation msg -> finish `Error msg
      | exception Errors.Sql_error msg -> finish `Error msg)

let requests t = t.n_requests
let blocked t = t.n_blocked
let sim_cpu_ns t = t.cpu_ns

let reset_stats t =
  t.n_requests <- 0;
  t.n_blocked <- 0;
  t.cpu_ns <- 0;
  Gate.clear t.the_gate;
  Auth_cache.reset_stats t.shared_cache
