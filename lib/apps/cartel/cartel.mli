(** The CarTel port (paper sections 1, 6.1, 8.2).

    CarTel is a mobile sensor network: GPS-equipped cars report
    location measurements; users see maps and statistics of their past
    drives and of their friends' drives.

    Tags, per user [u] (section 6.1):
    - [u-drives] — past drives; member of the [all-drives] compound;
    - [u-location] — current location; member of [all-locations].
    Raw GPS points are labeled [{u-drives, u-location}]; derived
    historical drives only [{u-drives}], so a friend holding
    [u-drives] authority can see drives but never raw location samples.

    The drive-segmentation trigger ([driveupdate]) is a stored
    authority closure with authority for the location tags only: it
    reads the raw points and writes [{u-drives}]-labeled drive rows,
    and cannot leak anything beyond that.

    The web scripts of Figure 3 are registered on a
    {!Ifdb_platform.Web} tier.  The three bug families the paper found
    are reconstructed behind [~buggy:true] routes: handlers that skip
    authentication or authorization.  Under IFDB they produce blocked
    responses instead of leaks. *)

module Db = Ifdb_core.Database
module Web = Ifdb_platform.Web
module Label = Ifdb_difc.Label
module Tag = Ifdb_difc.Tag
module Principal = Ifdb_difc.Principal

type user = {
  uid : int;
  name : string;
  principal : Principal.t;
  drives_tag : Tag.t;
  location_tag : Tag.t;
}

type t = {
  db : Db.t;
  web : Web.t;
  sys : Db.session;        (** trusted setup session *)
  all_drives : Tag.t;
  all_locations : Tag.t;
  stats_principal : Principal.t;
      (** authority closure over [all-drives] for drives_top.php *)
  users : user array;
  anonymous : Principal.t; (** unauthenticated requests run as this *)
}

val setup :
  ?ifc:bool ->
  ?if_platform:bool ->
  ?users:int ->
  ?cars_per_user:int ->
  ?capacity_pages:int option ->
  ?miss_cost_ns:int ->
  ?base_cost_ns:int ->
  unit ->
  t
(** Build the database (schema, tags, users, cars, triggers) and the
    web tier with all Figure 3 routes registered.  [ifc:false] +
    [if_platform:false] is the paper's baseline (PostgreSQL + PHP).
    [capacity_pages] and [miss_cost_ns] size the database's buffer pool
    and its modeled miss cost ({!Ifdb_core.Database.create}),
    [base_cost_ns] the web tier's per-request cost
    ({!Ifdb_platform.Web.create}); every other cost is its component's
    default. *)

val user : t -> int -> user

val befriend : t -> owner:int -> friend:int -> unit
(** [owner] lets [friend] see their past drives: a Friends row plus a
    delegation of [owner-drives] (section 6.1). *)

val ingest_batch : t -> Ifdb_workload.Gps.point list -> unit
(** Sensor ingestion: one transaction per 200 measurements (section
    8.2.2), each point labeled with its owner's tags; the
    [driveupdate] and [latestupdate] triggers fire per insert. *)

val request :
  t -> path:string -> ?user:int -> ?params:(string * string) list -> unit ->
  Web.response
(** Issue a web request as the given user (or unauthenticated). *)

val drives_count : t -> int
(** Total drive rows, read with full authority (for tests/benches). *)

val locations_count : t -> int
