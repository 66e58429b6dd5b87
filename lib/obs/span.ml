type event = {
  ev_id : int;
  ev_parent : int;
  ev_name : string;
  ev_dom : int;
  ev_t0 : int;
  ev_t1 : int;
  ev_args : (string * string) list;
}

type record = { r_id : int; r_events : event list }

type ctx = {
  c_id : int;
  c_root_name : string;
  c_root_t0 : int;
  c_root_dom : int;
  mutable c_root_args : (string * string) list;
  c_next : int Atomic.t; (* event id allocator; 0 is the root *)
  c_scratch : event list Atomic.t; (* closed spans, CAS-pushed from any domain *)
}

type span = {
  sp_ctx : ctx;
  sp_id : int;
  sp_parent : int;
  sp_name : string;
  sp_dom : int;
  sp_t0 : int;
  mutable sp_args : (string * string) list;
}

type t = {
  every : int; (* sample every nth statement; <= 0 never *)
  stmt_seq : int Atomic.t; (* statements offered to the sampler *)
  trace_ids : int Atomic.t;
  ring : record Ring.t; (* locked once per sampled statement, at finish *)
}

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let dom_id () = (Domain.self () :> int)

let create ?(sample_every = 0) () =
  {
    every = sample_every;
    stmt_seq = Atomic.make 0;
    trace_ids = Atomic.make 0;
    ring = Ring.create ~capacity:256;
  }

let enabled t = t.every > 0
let sample_every t = t.every
let capacity t = Ring.capacity t.ring

let sample t =
  t.every > 0 && Atomic.fetch_and_add t.stmt_seq 1 mod t.every = 0

let peek t = t.every > 0 && Atomic.get t.stmt_seq mod t.every = 0

(* ------------------------------------------------------------------ *)
(* Ambient context: one frame per domain.  The open-span stack is only
   ever touched by its own domain, so begin/end nesting needs no
   synchronization; cross-domain merging happens through the
   context's CAS scratch list. *)

type frame = { mutable f_ctx : ctx option; mutable f_stack : span list }

let frame_key : frame Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { f_ctx = None; f_stack = [] })

let current () = (Domain.DLS.get frame_key).f_ctx

let set_current c =
  let fr = Domain.DLS.get frame_key in
  fr.f_ctx <- c;
  fr.f_stack <- []

let with_current c f =
  let fr = Domain.DLS.get frame_key in
  let saved_ctx = fr.f_ctx and saved_stack = fr.f_stack in
  fr.f_ctx <- c;
  fr.f_stack <- [];
  Fun.protect
    ~finally:(fun () ->
      fr.f_ctx <- saved_ctx;
      fr.f_stack <- saved_stack)
    f

(* ------------------------------------------------------------------ *)
(* Recording *)

let start t ?t0 ?(args = []) name =
  let t0 = match t0 with Some n -> n | None -> now_ns () in
  {
    c_id = Atomic.fetch_and_add t.trace_ids 1;
    c_root_name = name;
    c_root_t0 = t0;
    c_root_dom = dom_id ();
    c_root_args = args;
    c_next = Atomic.make 1;
    c_scratch = Atomic.make [];
  }

let trace_id ctx = ctx.c_id

let push_event ctx ev =
  let rec loop () =
    let old = Atomic.get ctx.c_scratch in
    if not (Atomic.compare_and_set ctx.c_scratch old (ev :: old)) then loop ()
  in
  loop ()

(* The innermost open span of this domain belonging to [ctx], else the
   root (id 0). *)
let parent_id ctx =
  match (Domain.DLS.get frame_key).f_stack with
  | sp :: _ when sp.sp_ctx == ctx -> sp.sp_id
  | _ -> 0

let begin_span ctx ?(args = []) name =
  let fr = Domain.DLS.get frame_key in
  let sp =
    {
      sp_ctx = ctx;
      sp_id = Atomic.fetch_and_add ctx.c_next 1;
      sp_parent = parent_id ctx;
      sp_name = name;
      sp_dom = dom_id ();
      sp_t0 = now_ns ();
      sp_args = args;
    }
  in
  fr.f_stack <- sp :: fr.f_stack;
  sp

let close_span sp ~t1 =
  push_event sp.sp_ctx
    {
      ev_id = sp.sp_id;
      ev_parent = sp.sp_parent;
      ev_name = sp.sp_name;
      ev_dom = sp.sp_dom;
      ev_t0 = sp.sp_t0;
      ev_t1 = max sp.sp_t0 t1;
      ev_args = List.rev sp.sp_args;
    }

let end_span sp =
  let t1 = now_ns () in
  let fr = Domain.DLS.get frame_key in
  (match fr.f_stack with
  | top :: rest when top == sp -> fr.f_stack <- rest
  | stack -> fr.f_stack <- List.filter (fun s -> s != sp) stack);
  close_span sp ~t1

let add_arg sp k v = sp.sp_args <- (k, v) :: sp.sp_args

let timed ?args name f =
  match current () with
  | None -> f ()
  | Some ctx ->
      let sp = begin_span ctx ?args name in
      Fun.protect ~finally:(fun () -> end_span sp) f

let note k v =
  let fr = Domain.DLS.get frame_key in
  match fr.f_stack with
  | sp :: _ -> add_arg sp k v
  | [] -> (
      match fr.f_ctx with
      | Some ctx -> ctx.c_root_args <- (k, v) :: ctx.c_root_args
      | None -> ())

let emit ctx ?(args = []) name ~t0 ~t1 =
  (* clip to the statement window so records stay well-nested even
     when the measured interval started before this statement (e.g. a
     lock held since an earlier statement of an explicit txn) *)
  let t0 = max t0 ctx.c_root_t0 in
  push_event ctx
    {
      ev_id = Atomic.fetch_and_add ctx.c_next 1;
      ev_parent = parent_id ctx;
      ev_name = name;
      ev_dom = dom_id ();
      ev_t0 = t0;
      ev_t1 = max t0 t1;
      ev_args = args;
    }

let finish t ctx =
  let t1 = now_ns () in
  (* close anything this domain left open (error paths); other domains
     have long since drained — parallel batches join before the
     statement returns *)
  let fr = Domain.DLS.get frame_key in
  List.iter
    (fun sp -> if sp.sp_ctx == ctx then close_span sp ~t1)
    fr.f_stack;
  fr.f_stack <- [];
  let root =
    {
      ev_id = 0;
      ev_parent = -1;
      ev_name = ctx.c_root_name;
      ev_dom = ctx.c_root_dom;
      ev_t0 = ctx.c_root_t0;
      ev_t1 = max ctx.c_root_t0 t1;
      ev_args = List.rev ctx.c_root_args;
    }
  in
  let events =
    List.sort
      (fun a b ->
        if a.ev_t0 <> b.ev_t0 then compare a.ev_t0 b.ev_t0
        else compare a.ev_id b.ev_id)
      (root :: Atomic.get ctx.c_scratch)
  in
  Ring.push t.ring (fun _ -> { r_id = ctx.c_id; r_events = events })

(* ------------------------------------------------------------------ *)
(* Reading the ring *)

let count t = Ring.count t.ring
let recent t n = Ring.recent t.ring n

let find t id =
  List.find_opt (fun r -> r.r_id = id) (Ring.recent t.ring (capacity t))

let duration_ns r =
  match r.r_events with
  | root :: _ when root.ev_id = 0 -> root.ev_t1 - root.ev_t0
  | _ -> 0

let summary r =
  let order = ref [] in
  let acc : (string, int * int) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun ev ->
      if ev.ev_id <> 0 then begin
        if not (Hashtbl.mem acc ev.ev_name) then
          order := ev.ev_name :: !order;
        let n, ns =
          Option.value (Hashtbl.find_opt acc ev.ev_name) ~default:(0, 0)
        in
        Hashtbl.replace acc ev.ev_name (n + 1, ns + (ev.ev_t1 - ev.ev_t0))
      end)
    r.r_events;
  List.rev_map
    (fun name ->
      let n, ns = Hashtbl.find acc name in
      (name, n, ns))
    !order

let pp_ns ns =
  if ns >= 1_000_000 then Printf.sprintf "%.2fms" (float_of_int ns /. 1e6)
  else if ns >= 1_000 then Printf.sprintf "%.1fus" (float_of_int ns /. 1e3)
  else Printf.sprintf "%dns" ns

let render r =
  (* depth by following parent links; events are sorted by start time
     so parents (which start no later than their children) resolve
     before their children are printed *)
  let depth : (int, int) Hashtbl.t = Hashtbl.create 16 in
  List.map
    (fun ev ->
      let d =
        if ev.ev_parent < 0 then 0
        else 1 + Option.value (Hashtbl.find_opt depth ev.ev_parent) ~default:0
      in
      Hashtbl.replace depth ev.ev_id d;
      let args =
        match ev.ev_args with
        | [] -> ""
        | l ->
            " ["
            ^ String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) l)
            ^ "]"
      in
      Printf.sprintf "%s%-12s %8s%s%s"
        (String.make (2 * d) ' ')
        ev.ev_name (pp_ns (ev.ev_t1 - ev.ev_t0))
        (if ev.ev_dom > 0 then Printf.sprintf " (dom %d)" ev.ev_dom else "")
        args)
    r.r_events

(* ------------------------------------------------------------------ *)
(* Chrome trace-event export *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_chrome_json records =
  let t_base =
    List.fold_left
      (fun acc r ->
        List.fold_left (fun acc ev -> min acc ev.ev_t0) acc r.r_events)
      max_int records
  in
  let t_base = if t_base = max_int then 0 else t_base in
  let us ns = float_of_int (ns - t_base) /. 1e3 in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  let first = ref true in
  let add s =
    if !first then first := false else Buffer.add_string buf ",\n ";
    Buffer.add_string buf s
  in
  List.iter
    (fun r ->
      add
        (Printf.sprintf
           "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": %d, \
            \"tid\": 0, \"args\": {\"name\": \"stmt #%d\"}}"
           r.r_id r.r_id);
      List.iter
        (fun ev ->
          let args =
            String.concat ", "
              (List.map
                 (fun (k, v) ->
                   Printf.sprintf "\"%s\": \"%s\"" (json_escape k)
                     (json_escape v))
                 ev.ev_args)
          in
          add
            (Printf.sprintf
               "{\"name\": \"%s\", \"cat\": \"ifdb\", \"ph\": \"X\", \
                \"ts\": %.3f, \"dur\": %.3f, \"pid\": %d, \"tid\": %d, \
                \"args\": {%s}}"
               (json_escape ev.ev_name) (us ev.ev_t0)
               (float_of_int (ev.ev_t1 - ev.ev_t0) /. 1e3)
               r.r_id ev.ev_dom args))
        r.r_events)
    records;
  Buffer.add_string buf "]}\n";
  Buffer.contents buf
