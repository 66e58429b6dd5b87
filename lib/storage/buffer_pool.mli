(** An LRU buffer pool with a simulated I/O clock.

    The engine holds all data in memory; the pool tracks which pages
    {e would} be resident given a capacity, and charges a simulated
    latency for each miss (page read) and each dirty eviction (page
    write).  Benchmarks report throughput against wall time plus the
    pool's accumulated I/O time, which reproduces the paper's
    disk-bound vs in-memory regimes (sections 8.2-8.3) without a disk.

    A pool with [capacity_pages = None] is unbounded: after first
    allocation every access hits — the in-memory regime.

    Frames live in a table indexed by page id: page ids come from
    {!alloc_page}, dense from 0, and only {!alloc_page} grows the
    table, so every lookup is an array load.  {!touch} and {!dirty}
    take only page ids that {!alloc_page} returned.

    Concurrent reads: {!touch} may be called from multiple domains at
    once (morsel-parallel scans).  Counters are atomic; bounded pools
    serialize LRU maintenance behind a mutex, unbounded pools answer
    resident touches lock-free.  Mutating operations ({!alloc_page},
    {!dirty}, {!flush_all}) remain single-writer: the engine only
    parallelizes read-only plans within a snapshot, so no parallel
    touch runs while {!alloc_page} grows the frame table. *)

type t

type stats = {
  hits : int;
  misses : int;
  page_writes : int;  (** dirty evictions *)
  io_ns : int;        (** accumulated simulated I/O nanoseconds *)
}

val create :
  ?capacity_pages:int option ->
  ?miss_cost_ns:int ->
  ?write_cost_ns:int ->
  unit ->
  t
(** Defaults: unbounded capacity; 100 µs per miss and 60 µs per page
    write (commodity-SSD ballpark; the RAID in the paper is slower,
    the shape is what matters). *)

val alloc_page : t -> int
(** Allocate the next page id (0, 1, 2, …), resident and clean. *)

val touch : t -> int -> unit
(** Read access: LRU hit, or miss (charged) with reload. *)

val dirty : t -> int -> unit
(** Write access: like {!touch} and marks the page dirty; a dirty page
    pays the write cost when evicted (or flushed). *)

val flush_all : t -> unit
(** Write out every dirty resident page (checkpoint). *)

val resident : t -> int
(** Number of resident pages. *)

val stats : t -> stats

val take_stats : t -> stats
(** Read and zero the counters as one atomic pair per counter
    ([Atomic.exchange]): an increment racing the call lands in exactly
    one epoch — the returned snapshot or the fresh counts.  Use this
    (not {!stats} + {!reset_stats}) when sampling deltas concurrently
    with parallel scans. *)

val reset_stats : t -> unit
(** [reset_stats t = ignore (take_stats t)]. *)

val io_ns : t -> int
(** Shorthand for [(stats t).io_ns]. *)

val pp_stats : Format.formatter -> stats -> unit
