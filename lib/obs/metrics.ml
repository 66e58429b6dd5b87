type counter = int Atomic.t

type histogram = {
  h_bounds : float array; (* strictly increasing upper bounds *)
  h_counts : int Atomic.t array; (* length = Array.length h_bounds + 1 *)
  h_sum_ns : int Atomic.t; (* sum scaled by 1e9 to stay in an int Atomic *)
}

type metric =
  | Counter of counter
  | Gauge of [ `Gauge | `Counter ] * (unit -> float)
  | Histogram of histogram

type entry = { e_name : string; e_help : string; e_metric : metric }

type t = {
  mu : Mutex.t;
  mutable entries : entry list; (* reverse registration order *)
  names : (string, unit) Hashtbl.t;
}

let create () = { mu = Mutex.create (); entries = []; names = Hashtbl.create 32 }

let valid_name n =
  n <> ""
  && (match n.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false)
       n

let register t name help metric =
  if not (valid_name name) then
    invalid_arg (Printf.sprintf "Metrics.register: bad metric name %S" name);
  Mutex.protect t.mu (fun () ->
      if Hashtbl.mem t.names name then
        invalid_arg (Printf.sprintf "Metrics.register: duplicate metric %S" name);
      Hashtbl.replace t.names name ();
      t.entries <- { e_name = name; e_help = help; e_metric = metric } :: t.entries)

let counter t ?(help = "") name =
  let c = Atomic.make 0 in
  register t name help (Counter c);
  c

let incr c = Atomic.incr c
let add c n = ignore (Atomic.fetch_and_add c n)
let counter_value c = Atomic.get c

let gauge t ?(help = "") ?(kind = `Gauge) name read =
  register t name help (Gauge (kind, read))

(* 1µs .. 10s, one decade apart: query latencies in seconds. *)
let default_buckets = [| 1e-6; 1e-5; 1e-4; 1e-3; 1e-2; 1e-1; 1.; 10. |]

let histogram t ?(help = "") ?(buckets = default_buckets) name =
  let ok = ref (Array.length buckets > 0) in
  Array.iteri
    (fun i b -> if i > 0 && b <= buckets.(i - 1) then ok := false)
    buckets;
  if not !ok then
    invalid_arg "Metrics.histogram: buckets must be non-empty, strictly increasing";
  let h =
    {
      h_bounds = Array.copy buckets;
      h_counts = Array.init (Array.length buckets + 1) (fun _ -> Atomic.make 0);
      h_sum_ns = Atomic.make 0;
    }
  in
  register t name help (Histogram h);
  h

let bucket_index h v =
  (* First bucket whose upper bound admits [v]; last slot is +Inf. *)
  let n = Array.length h.h_bounds in
  let rec go i = if i >= n then n else if v <= h.h_bounds.(i) then i else go (i + 1) in
  go 0

let observe h v =
  Atomic.incr h.h_counts.(bucket_index h v);
  ignore (Atomic.fetch_and_add h.h_sum_ns (int_of_float (v *. 1e9)))

let histogram_count h =
  Array.fold_left (fun acc c -> acc + Atomic.get c) 0 h.h_counts

let histogram_sum h = float_of_int (Atomic.get h.h_sum_ns) /. 1e9

(* Prometheus-style histogram_quantile: find the bucket holding the
   q-rank observation and interpolate linearly inside it.  The first
   bucket interpolates from 0; the overflow bucket cannot be
   interpolated, so it reports the largest finite bound (a lower
   bound on the true quantile, like PromQL). *)
let quantile h q =
  let q = Float.min 1.0 (Float.max 0.0 q) in
  let counts = Array.map Atomic.get h.h_counts in
  let total = Array.fold_left ( + ) 0 counts in
  if total = 0 then Float.nan
  else begin
    let rank = q *. float_of_int total in
    let nb = Array.length h.h_bounds in
    let rec go i cum =
      if i >= nb then h.h_bounds.(nb - 1)
      else
        let cum' = cum + counts.(i) in
        if float_of_int cum' >= rank then begin
          let lo = if i = 0 then 0.0 else h.h_bounds.(i - 1) in
          let hi = h.h_bounds.(i) in
          if counts.(i) = 0 then hi
          else
            lo
            +. (hi -. lo)
               *. ((rank -. float_of_int cum) /. float_of_int counts.(i))
        end
        else go (i + 1) cum'
    in
    go 0 0
  end

(* The quantiles every surface exports: p50/p95/p99 derived from the
   fixed buckets. *)
let export_quantiles = [ ("p50", 0.5); ("p95", 0.95); ("p99", 0.99) ]

let entries t = Mutex.protect t.mu (fun () -> List.rev t.entries)

let snapshot t =
  List.concat_map
    (fun e ->
      match e.e_metric with
      | Counter c -> [ (e.e_name, float_of_int (counter_value c)) ]
      | Gauge (_, read) -> [ (e.e_name, read ()) ]
      | Histogram h ->
          (e.e_name ^ "_count", float_of_int (histogram_count h))
          :: (e.e_name ^ "_sum", histogram_sum h)
          :: List.map
               (fun (tag, q) -> (e.e_name ^ "_" ^ tag, quantile h q))
               export_quantiles)
    (entries t)

let float_str v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.9g" v

let to_prometheus t =
  let buf = Buffer.create 1024 in
  List.iter
    (fun e ->
      let typ =
        match e.e_metric with
        | Counter _ | Gauge (`Counter, _) -> "counter"
        | Gauge (`Gauge, _) -> "gauge"
        | Histogram _ -> "histogram"
      in
      if e.e_help <> "" then
        Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" e.e_name e.e_help);
      Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" e.e_name typ);
      match e.e_metric with
      | Counter c ->
          Buffer.add_string buf
            (Printf.sprintf "%s %d\n" e.e_name (counter_value c))
      | Gauge (_, read) ->
          Buffer.add_string buf
            (Printf.sprintf "%s %s\n" e.e_name (float_str (read ())))
      | Histogram h ->
          let cum = ref 0 in
          Array.iteri
            (fun i c ->
              cum := !cum + Atomic.get c;
              Buffer.add_string buf
                (Printf.sprintf "%s_bucket{le=\"%s\"} %d\n" e.e_name
                   (float_str h.h_bounds.(i)) !cum))
            (Array.sub h.h_counts 0 (Array.length h.h_bounds));
          cum := !cum + Atomic.get h.h_counts.(Array.length h.h_bounds);
          Buffer.add_string buf
            (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" e.e_name !cum);
          Buffer.add_string buf
            (Printf.sprintf "%s_sum %s\n" e.e_name (float_str (histogram_sum h)));
          Buffer.add_string buf
            (Printf.sprintf "%s_count %d\n" e.e_name !cum);
          (* bucket-derived quantiles as companion gauges (Prometheus
             histograms have no native quantile samples) *)
          List.iter
            (fun (tag, q) ->
              let v = quantile h q in
              if not (Float.is_nan v) then begin
                Buffer.add_string buf
                  (Printf.sprintf "# TYPE %s_%s gauge\n" e.e_name tag);
                Buffer.add_string buf
                  (Printf.sprintf "%s_%s %s\n" e.e_name tag (float_str v))
              end)
            export_quantiles)
    (entries t);
  Buffer.contents buf

let reset t =
  List.iter
    (fun e ->
      match e.e_metric with
      | Counter c -> Atomic.set c 0
      | Gauge _ -> ()
      | Histogram h ->
          Array.iter (fun c -> Atomic.set c 0) h.h_counts;
          Atomic.set h.h_sum_ns 0)
    (entries t)
