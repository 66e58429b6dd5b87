(* LRU via an intrusive doubly-linked list over nodes held in a frame
   table: an array indexed by page id.  Page ids come from [alloc_page],
   dense from 0, so the table is direct-mapped, and only [alloc_page]
   grows it.  All operations are O(1).

   Thread-safety (for morsel-parallel scans): the statistics counters
   are atomics, and every structural operation takes [lock].  The one
   exception is the unbounded-pool read fast path: with no capacity
   there is never an eviction, so recency order is irrelevant and a
   touch of a resident page reduces to a lock-free frame-table load
   plus an atomic hit count.  The table only grows in [alloc_page],
   which runs on the (single) writer thread, never concurrently with a
   parallel scan — so the unlocked load cannot race a growth. *)

type node = {
  page : int;
  mutable prev : node option;
  mutable next : node option;
  mutable is_dirty : bool;
}

type stats = { hits : int; misses : int; page_writes : int; io_ns : int }

type t = {
  capacity : int option;
  miss_cost_ns : int;
  write_cost_ns : int;
  mutable frames : node array; (* by page id; [absent] if not resident *)
  mutable resident : int;
  lock : Mutex.t;
  mutable head : node option; (* most recently used *)
  mutable tail : node option; (* least recently used *)
  mutable next_page : int;
  hits : int Atomic.t;
  misses : int Atomic.t;
  page_writes : int Atomic.t;
  io_ns : int Atomic.t;
}

(* the empty frame, compared physically *)
let absent = { page = -1; prev = None; next = None; is_dirty = false }

let create ?(capacity_pages = None) ?(miss_cost_ns = 100_000)
    ?(write_cost_ns = 60_000) () =
  (match capacity_pages with
  | Some c when c < 1 -> invalid_arg "Buffer_pool.create: capacity must be >= 1"
  | _ -> ());
  {
    capacity = capacity_pages;
    miss_cost_ns;
    write_cost_ns;
    frames = Array.make 64 absent;
    resident = 0;
    lock = Mutex.create ();
    head = None;
    tail = None;
    next_page = 0;
    hits = Atomic.make 0;
    misses = Atomic.make 0;
    page_writes = Atomic.make 0;
    io_ns = Atomic.make 0;
  }

let unlink t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.prev <- None;
  n.next <- t.head;
  (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

let write_back t n =
  if n.is_dirty then begin
    Atomic.incr t.page_writes;
    ignore (Atomic.fetch_and_add t.io_ns t.write_cost_ns);
    n.is_dirty <- false
  end

let evict_if_needed t =
  match t.capacity with
  | None -> ()
  | Some cap ->
      while t.resident > cap do
        match t.tail with
        | None -> assert false
        | Some victim ->
            write_back t victim;
            unlink t victim;
            t.frames.(victim.page) <- absent;
            t.resident <- t.resident - 1
      done

let insert_resident t page =
  let n = { page; prev = None; next = None; is_dirty = false } in
  t.frames.(page) <- n;
  t.resident <- t.resident + 1;
  push_front t n;
  evict_if_needed t;
  n

let alloc_page t =
  Mutex.lock t.lock;
  let page = t.next_page in
  t.next_page <- page + 1;
  let len = Array.length t.frames in
  if page >= len then begin
    let bigger = Array.make (2 * len) absent in
    Array.blit t.frames 0 bigger 0 len;
    t.frames <- bigger
  end;
  ignore (insert_resident t page);
  Mutex.unlock t.lock;
  page

(* caller holds [lock] *)
let access_locked t page =
  let n = t.frames.(page) in
  if n != absent then begin
    Atomic.incr t.hits;
    (match t.head with
    | Some h when h == n -> ()
    | _ ->
        unlink t n;
        push_front t n);
    n
  end
  else begin
    Atomic.incr t.misses;
    ignore (Atomic.fetch_and_add t.io_ns t.miss_cost_ns);
    insert_resident t page
  end

let access t page =
  Mutex.lock t.lock;
  let n = access_locked t page in
  Mutex.unlock t.lock;
  n

let touch t page =
  match t.capacity with
  | None -> (
      (* unbounded: every allocated page stays resident, recency is
         moot — lock-free load + atomic hit *)
      if t.frames.(page) != absent then Atomic.incr t.hits
      else ignore (access t page))
  | Some _ -> ignore (access t page)

let dirty t page =
  Mutex.lock t.lock;
  let n = access_locked t page in
  n.is_dirty <- true;
  Mutex.unlock t.lock

let flush_all t =
  Mutex.lock t.lock;
  Array.iter (fun n -> if n != absent then write_back t n) t.frames;
  Mutex.unlock t.lock

let resident t = t.resident

let stats t =
  {
    hits = Atomic.get t.hits;
    misses = Atomic.get t.misses;
    page_writes = Atomic.get t.page_writes;
    io_ns = Atomic.get t.io_ns;
  }

(* Read-and-zero with [Atomic.exchange] per counter: a concurrent
   [touch] lands in either the returned snapshot or the fresh epoch,
   never between the read and the zeroing (the old [Atomic.set] reset
   could drop such increments, letting a reader observe more hits than
   lookups across the reset). *)
let take_stats t =
  {
    hits = Atomic.exchange t.hits 0;
    misses = Atomic.exchange t.misses 0;
    page_writes = Atomic.exchange t.page_writes 0;
    io_ns = Atomic.exchange t.io_ns 0;
  }

let reset_stats t = ignore (take_stats t)

let io_ns t = Atomic.get t.io_ns

let pp_stats ppf (s : stats) =
  Format.fprintf ppf "hits=%d misses=%d writes=%d io=%.3fms" s.hits s.misses
    s.page_writes
    (float_of_int s.io_ns /. 1e6)
