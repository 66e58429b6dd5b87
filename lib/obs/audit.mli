(** Append-only IFC audit log.

    Every security-relevant decision the enforcement layers make is
    recorded as one event: declassification through a view or an
    authority closure, authority delegation and revocation, Write-Rule
    and commit-label rejections, and session clearance changes.  The
    paper's declassifying views and closures presuppose exactly this
    trail — authority is only auditable if each exercise of it leaves
    a stamped record of {e who} (principal), {e what} (tags) and
    {e where} (originating statement).

    Events carry pre-rendered strings so this module depends on
    nothing above the standard library: callers render principal and
    tag names at emit time.  The log is a {!Ring} (the newest
    4096 events are queryable; the total count is exact),
    optionally teed into a [sink] — e.g. a WAL appender — so the
    stream can survive the process. *)

type kind =
  | View_declassify  (** query read through a declassifying/relabeling view *)
  | Closure_call  (** authority closure invoked (procedure or trigger) *)
  | Delegate
  | Revoke
  | Write_rule_rejection
  | Commit_rejection  (** commit-label rule rejected a transaction *)
  | Clearance_raise  (** session label raised (addsecrecy) *)
  | Session_declassify  (** session label lowered under authority *)

val kind_name : kind -> string
(** Stable lower-snake identifier, e.g. ["write_rule_rejection"]. *)

type event = {
  ev_seq : int;  (** 0-based position in the stream *)
  ev_kind : kind;
  ev_principal : string;
  ev_tags : string list;  (** tags involved, rendered by name *)
  ev_stmt : string;  (** originating statement, [""] for API calls *)
  ev_detail : string;  (** free-form context, e.g. view or closure name *)
}

val event_to_string : event -> string
(** One-line rendering: [#seq kind principal=... tags={...} detail ...]. *)

type t

val create : ?sink:(event -> unit) -> unit -> t
(** A log whose ring keeps the newest 4096 events.  [sink], if
    given, receives every event as it is emitted (under the log's
    mutex — keep it cheap). *)

val emit :
  t ->
  kind:kind ->
  principal:string ->
  ?tags:string list ->
  ?stmt:string ->
  ?detail:string ->
  unit ->
  unit

val count : t -> int
(** Total events ever emitted. *)

val recent : t -> int -> event list
(** The last [n] retained events, newest first; [[]] for a negative
    [n]. *)

val events : t -> event list
(** All retained events, oldest first. *)

val count_kind : t -> kind -> int
(** Retained events of [kind] (equals the emitted count while the ring
    has not wrapped). *)
