type record =
  | Begin of int
  | Insert of string * int * int
  | Delete of string * int
  | Commit of int
  | Abort of int
  | Audit of string

type stats = { records : int; bytes : int; fsyncs : int; io_ns : int }

type t = {
  fsync_cost_ns : int;
  mu : Mutex.t;
  mutable log : record list; (* newest first; bounded by [keep] *)
  mutable kept : int;
  mutable records : int;
  mutable bytes : int;
  mutable fsyncs : int;
  mutable io_ns : int;
  mutable on_fsync : float -> unit;
      (* fsync-stall observer (seconds, modeled cost included); called
         only for fsyncs issued under a sampled span context, so the
         unsampled path never reads a clock here *)
}

let keep = 1024

let create ?(fsync_cost_ns = 200_000) () =
  {
    fsync_cost_ns;
    mu = Mutex.create ();
    log = [];
    kept = 0;
    records = 0;
    bytes = 0;
    fsyncs = 0;
    io_ns = 0;
    on_fsync = ignore;
  }

let set_fsync_observer t f = t.on_fsync <- f

let record_bytes = function
  | Begin _ | Commit _ | Abort _ -> 16
  | Delete (_, _) -> 24
  | Insert (_, _, payload) -> 24 + payload
  | Audit line -> 16 + String.length line

let append_locked t r =
  t.records <- t.records + 1;
  t.bytes <- t.bytes + record_bytes r;
  if t.kept >= keep then begin
    (* Drop the tail half to stay bounded without per-append cost. *)
    t.log <- (let rec take n = function
                | [] -> []
                | _ when n = 0 -> []
                | x :: rest -> x :: take (n - 1) rest
              in
              take (keep / 2) (r :: t.log));
    t.kept <- keep / 2
  end
  else begin
    t.log <- r :: t.log;
    t.kept <- t.kept + 1
  end

let append t r = Mutex.protect t.mu (fun () -> append_locked t r)

let append_batch t rs =
  (* one lock acquisition for the whole run; byte and record accounting
     is per record, identical to [List.iter (append t)] *)
  Mutex.protect t.mu (fun () -> List.iter (append_locked t) rs)

let fsync_locked t =
  t.fsyncs <- t.fsyncs + 1;
  t.io_ns <- t.io_ns + t.fsync_cost_ns

(* The stall a real disk would charge is the {e modeled} cost; the
   wall-clock part is just mutex + counters.  Under a sampled span
   context the fsync becomes a "wal.fsync" span (real wall time, with
   the modeled cost as an argument) and feeds the stall observer with
   wall + modeled seconds; otherwise this path reads no clock. *)
let fsync t =
  match Ifdb_obs.Span.current () with
  | None -> Mutex.protect t.mu (fun () -> fsync_locked t)
  | Some ctx ->
      let t0 = Ifdb_obs.Span.now_ns () in
      Mutex.protect t.mu (fun () -> fsync_locked t);
      let t1 = Ifdb_obs.Span.now_ns () in
      Ifdb_obs.Span.emit ctx "wal.fsync"
        ~args:[ ("modeled_ns", string_of_int t.fsync_cost_ns) ]
        ~t0 ~t1;
      t.on_fsync (float_of_int (t1 - t0 + t.fsync_cost_ns) /. 1e9)

let stats t =
  Mutex.protect t.mu (fun () ->
      { records = t.records; bytes = t.bytes; fsyncs = t.fsyncs; io_ns = t.io_ns })

let reset_stats t =
  Mutex.protect t.mu (fun () ->
      t.records <- 0;
      t.bytes <- 0;
      t.fsyncs <- 0;
      t.io_ns <- 0)

let io_ns t = Mutex.protect t.mu (fun () -> t.io_ns)

let recent t n =
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: rest -> x :: take (n - 1) rest
  in
  Mutex.protect t.mu (fun () -> take n t.log)
