(** Domain-safe metrics registry.

    One registry gathers every counter, gauge and histogram of a
    database instance behind a single namespace, replacing the ad-hoc
    per-module stats records ([Label_store.stats], [Wal.stats],
    [Buffer_pool.stats], ...) as the surface tools look at.  Design
    constraints, in order:

    - {b cheap enough to leave on}: a counter increment is one
      [Atomic.incr]; a histogram observation is one atomic increment
      plus an atomic add.  No locks, no allocation on the hot path.
    - {b domain-safe}: all mutation goes through [Atomic]; metric
      registration (rare) takes a mutex.

    Gauges are {e pull} callbacks evaluated at scrape time, so
    absorbing an existing stats record costs nothing until somebody
    asks ([\metrics], [metrics_snapshot], the Prometheus dump).  A
    gauge registered with [~kind:`Counter] is a monotone view over an
    external counter (e.g. WAL fsyncs) and is exposed with Prometheus
    TYPE [counter]. *)

type t

type counter
type histogram

val create : unit -> t
(** A fresh, empty registry. *)

val counter : t -> ?help:string -> string -> counter
(** Register a named counter.  Raises [Invalid_argument] if the name
    is already taken or is not a valid metric name
    ([[a-zA-Z_][a-zA-Z0-9_]*]). *)

val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int

val gauge :
  t -> ?help:string -> ?kind:[ `Gauge | `Counter ] -> string ->
  (unit -> float) -> unit
(** Register a pull gauge: [read] is evaluated at scrape time.
    [~kind:`Counter] marks the value as monotone (a view over an
    external counter) for the Prometheus TYPE line.  Same name rules
    as {!counter}. *)

val histogram : t -> ?help:string -> ?buckets:float array -> string -> histogram
(** Fixed-bucket histogram.  [buckets] are inclusive upper bounds and
    must be strictly increasing; an implicit [+Inf] bucket is always
    appended.  The default buckets suit query latencies in seconds:
    1µs .. 10s, one decade apart. *)

val observe : histogram -> float -> unit
(** Record one observation (e.g. seconds). *)

val histogram_count : histogram -> int
val histogram_sum : histogram -> float

val quantile : histogram -> float -> float
(** Estimate the [q]-quantile (0..1) from the buckets, interpolating
    linearly within the bucket that holds the rank — PromQL's
    [histogram_quantile].  [nan] when empty; the overflow bucket
    reports the largest finite bound. *)

val export_quantiles : (string * float) list
(** The quantiles every export surface derives: [p50]/[p95]/[p99]. *)

val snapshot : t -> (string * float) list
(** Every metric flattened to [(name, value)], in registration order.
    Histograms contribute [name_count], [name_sum] and bucket-derived
    [name_p50]/[name_p95]/[name_p99] ([nan] while empty). *)

val to_prometheus : t -> string
(** Prometheus text exposition: [# HELP]/[# TYPE] comments followed by
    sample lines; histograms expand to cumulative [_bucket{le="..."}]
    series plus [_sum]/[_count], followed by companion [_p50]/[_p95]/
    [_p99] gauges (omitted while the histogram is empty). *)

val reset : t -> unit
(** Zero every counter and histogram owned by the registry.  Pull
    gauges read external state and are untouched — reset their
    backing stores separately (see [Database.reset_stats]). *)
