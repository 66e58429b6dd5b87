(** A simulated web tier.

    Stands in for Apache + PHP(-IF) in the paper's end-to-end setup
    (section 8.1): applications register request handlers; each request
    runs in a fresh {!Process} connected as the authenticated user, and
    whatever the handler returns is pushed through the output {!Gate}
    (so a contaminated handler produces a blocked response, not a
    leak).

    The tier keeps a simulated CPU clock.  Every request costs
    [base_cost_ns]; when the platform runs in IF mode, each counted
    label/authority operation additionally costs 20 µs —
    this models PHP-IF's interpreted-PHP overhead, which is what makes
    the paper's web-server-bound configuration 22% slower (section
    8.2.1).  Benchmarks compute throughput against wall time plus this
    simulated web CPU plus the database's simulated I/O. *)

type response = {
  status : [ `Ok | `Blocked | `Error ];
  body : string;
}

type handler = Process.t -> (string * string) list -> string
(** A handler receives the request's process and query parameters and
    returns the body to emit.  Raising
    {!Ifdb_core.Errors.Flow_violation} or failing to clear the label
    yields a [`Blocked] response. *)

type t

val create :
  ?if_platform:bool ->
  ?base_cost_ns:int ->
  Ifdb_core.Database.t ->
  t
(** Defaults: [if_platform:true] (the PHP-IF analogue; [false] is the
    plain-PHP baseline), 200 µs base request cost. *)

val database : t -> Ifdb_core.Database.t
val gate : t -> Gate.t
val cache : t -> Auth_cache.t

val route : t -> string -> handler -> unit
(** Register a handler under a path (e.g. ["drives.php"]). *)

val handle : t -> path:string -> user:Ifdb_difc.Principal.t -> params:(string * string) list -> response
(** Run one request as the (already authenticated) [user]. *)

val requests : t -> int
val blocked : t -> int
val sim_cpu_ns : t -> int
(** Accumulated simulated web CPU time. *)

val reset_stats : t -> unit
