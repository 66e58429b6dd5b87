(* Hash-consed label table plus generation-stamped flow cache (the
   reproduction of the paper's deduplicated label table, section 7.1,
   and PHP-IF's memoized authority answers, section 7.2).

   Thread-safety (for morsel-parallel scans): the table and the global
   verdict cache are guarded by [lock]; statistics are atomics.  On top
   of the global cache each domain keeps a {e domain-local} verdict
   memo (via [Domain.DLS]) keyed by store identity and stamped with the
   authority generation, so the steady-state per-tuple-group probe on a
   worker domain is a lock-free hashtable lookup; only genuine misses
   take the lock.  Local memos are dropped the moment their generation
   falls behind the authority state, exactly like the global cache, so
   a revocation is never outlived by a stale domain-local verdict. *)

module H = Hashtbl.Make (struct
  type t = Label.t

  let equal = Label.equal
  let hash = Label.hash
end)

type id = int

let empty_id = 0

type stats = {
  interned : int;
  flow_hits : int;
  flow_misses : int;
  invalidations : int;
}

type t = {
  auth : Authority.t;
  flow_cache : bool;
  uid : int; (* process-unique store identity, keys the DLS memos *)
  lock : Mutex.t;
  ids : id H.t; (* label -> id *)
  mutable labels : Label.t array; (* id -> canonical label *)
  mutable next : int;
  (* (src_id, dst_id) -> verdict, key packed as src lsl 31 lor dst.
     Dense ids keep the packing collision-free for < 2^31 labels. *)
  verdicts : (int, bool) Hashtbl.t;
  mutable valid_generation : int;
  flow_hits : int Atomic.t;
  flow_misses : int Atomic.t;
  invalidations : int Atomic.t;
}

let next_uid = Atomic.make 0

let create ?(flow_cache = true) auth =
  let t =
    {
      auth;
      flow_cache;
      uid = Atomic.fetch_and_add next_uid 1;
      lock = Mutex.create ();
      ids = H.create 256;
      labels = Array.make 64 Label.empty;
      next = 0;
      verdicts = Hashtbl.create 1024;
      valid_generation = Authority.generation auth;
      flow_hits = Atomic.make 0;
      flow_misses = Atomic.make 0;
      invalidations = Atomic.make 0;
    }
  in
  (* slot 0 is the public label, unconditionally *)
  H.replace t.ids Label.empty empty_id;
  t.next <- 1;
  t

let authority t = t.auth
let size t = t.next

let intern t l =
  if Label.is_empty l then empty_id
  else begin
    Mutex.lock t.lock;
    let id =
      match H.find_opt t.ids l with
      | Some id -> id
      | None ->
          let id = t.next in
          if id >= Array.length t.labels then begin
            let bigger = Array.make (2 * Array.length t.labels) Label.empty in
            Array.blit t.labels 0 bigger 0 id;
            t.labels <- bigger
          end;
          t.labels.(id) <- l;
          H.replace t.ids l id;
          t.next <- id + 1;
          id
    in
    Mutex.unlock t.lock;
    id
  end

let label_of t id =
  if id < 0 || id >= t.next then
    invalid_arg (Printf.sprintf "Label_store.label_of: unknown id %d" id)
  else t.labels.(id)

(* Invalidation discipline shared with Auth_cache: verdicts are valid
   only for the generation they were computed under; any authority
   mutation (tag/principal creation, delegation, revocation) bumps the
   generation and the whole cache is dropped on the next probe. *)
let revalidate t =
  let g = Authority.generation t.auth in
  if g <> t.valid_generation then begin
    if Hashtbl.length t.verdicts > 0 then Atomic.incr t.invalidations;
    Hashtbl.reset t.verdicts;
    t.valid_generation <- g
  end

(* Domain-local memo: one (store uid, generation) -> packed-pair ->
   verdict table per domain, reset whenever a probe comes from another
   store or generation.  A single entry means a dropped store leaves at
   most its own verdicts behind, and only until the domain's next probe
   from a live one.  Never shared across domains, so reads/writes need
   no lock. *)
type local = {
  mutable l_uid : int;
  mutable l_gen : int;
  l_verdicts : (int, bool) Hashtbl.t;
}

let dls_key : local Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { l_uid = -1; l_gen = 0; l_verdicts = Hashtbl.create 64 })

let local_memo t ~generation =
  let l = Domain.DLS.get dls_key in
  if l.l_uid <> t.uid || l.l_gen <> generation then begin
    Hashtbl.reset l.l_verdicts;
    l.l_uid <- t.uid;
    l.l_gen <- generation
  end;
  l

(* Global probe/derive, under the lock. *)
let flows_id_slow t ~key ~src ~dst =
  Mutex.lock t.lock;
  revalidate t;
  let verdict =
    match if t.flow_cache then Hashtbl.find_opt t.verdicts key else None with
    | Some verdict ->
        Atomic.incr t.flow_hits;
        verdict
    | None ->
        Atomic.incr t.flow_misses;
        let verdict =
          Authority.flows t.auth ~src:(label_of t src) ~dst:(label_of t dst)
        in
        if t.flow_cache then Hashtbl.replace t.verdicts key verdict;
        verdict
  in
  Mutex.unlock t.lock;
  verdict

let flows_id t ~src ~dst =
  if src = dst || src = empty_id then true
  else begin
    let key = (src lsl 31) lor dst in
    if not t.flow_cache then flows_id_slow t ~key ~src ~dst
    else begin
      let l = local_memo t ~generation:(Authority.generation t.auth) in
      match Hashtbl.find_opt l.l_verdicts key with
      | Some verdict ->
          Atomic.incr t.flow_hits;
          verdict
      | None ->
          let verdict = flows_id_slow t ~key ~src ~dst in
          Hashtbl.replace l.l_verdicts key verdict;
          verdict
    end
  end

let union_id t a b =
  if a = b || b = empty_id then a
  else if a = empty_id then b
  else intern t (Label.union (label_of t a) (label_of t b))

let stats t =
  {
    interned = t.next;
    flow_hits = Atomic.get t.flow_hits;
    flow_misses = Atomic.get t.flow_misses;
    invalidations = Atomic.get t.invalidations;
  }

(* Read-and-zero each counter with [Atomic.exchange] so an increment
   racing the reset lands in exactly one epoch: either the returned
   snapshot or the fresh count, never neither (the [Atomic.set]-based
   reset lost increments that arrived between the read and the set,
   letting a concurrent reader observe hits > lookups mid-update). *)
let take_stats t =
  {
    interned = t.next;
    flow_hits = Atomic.exchange t.flow_hits 0;
    flow_misses = Atomic.exchange t.flow_misses 0;
    invalidations = Atomic.exchange t.invalidations 0;
  }

let reset_stats t = ignore (take_stats t)
