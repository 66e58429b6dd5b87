(** The platform's shared authority cache.

    PHP-IF keeps a shared-memory cache of principal/tag values and
    authority state, because the platform checks on every response
    whether the current principal may release what the process read
    (paper section 7.2).  This module models that cache: positive and
    negative authority answers are memoized and invalidated wholesale
    whenever the authority state's generation counter moves. *)

type t

type stats = { hits : int; misses : int }

val create : Ifdb_difc.Authority.t -> t
(** An empty cache over one authority state. *)

val has_authority : t -> Ifdb_difc.Principal.t -> Ifdb_difc.Tag.t -> bool
(** Cached {!Ifdb_difc.Authority.has_authority}. *)

val can_declassify_label :
  t -> Ifdb_difc.Principal.t -> Ifdb_difc.Label.t -> bool
(** Authority for every tag of the label (the release check). *)

val stats : t -> stats
val reset_stats : t -> unit

val register_metrics : Ifdb_obs.Metrics.t -> t -> unit
(** Export hit/miss counts as pull gauges (Prometheus TYPE counter)
    under [ifdb_auth_cache_*].  Typically called with
    {!Ifdb_core.Database.metrics}; registering the same cache twice
    raises (duplicate metric names). *)
