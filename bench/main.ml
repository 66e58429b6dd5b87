(* The benchmark harness: one experiment per table/figure in the
   paper's evaluation (sections 8.1-8.3), plus ablations and
   microbenchmarks.

     dune exec bench/main.exe              -- run everything
     dune exec bench/main.exe -- fig3      -- just one experiment
     dune exec bench/main.exe -- --quick   -- smaller workloads

   Times are reported against a simulated clock: wall time on
   CLOCK_MONOTONIC plus, where an experiment models a disk or a web
   tier, the buffer pool's simulated I/O, the WAL's fsync costs, and
   the platform's simulated per-request CPU.  Absolute
   numbers are not comparable to the paper's testbed (16-core Xeon,
   RAID-5); the shapes are what the harness reproduces, and each table
   prints the paper's own numbers alongside. *)

module Db = Ifdb_core.Database
module Label = Ifdb_difc.Label
module Value = Ifdb_rel.Value
module Buffer_pool = Ifdb_storage.Buffer_pool
module Wal = Ifdb_storage.Wal
module Span = Ifdb_obs.Span
module Rng = Ifdb_workload.Rng
module Gps = Ifdb_workload.Gps
module Cweb = Ifdb_workload.Cartel_web
module Tpcc = Ifdb_workload.Tpcc
module Cartel = Ifdb_cartel.Cartel
module Web = Ifdb_platform.Web
module Label_store = Ifdb_difc.Label_store

let quick = ref false

(* seconds on CLOCK_MONOTONIC: the only clock the harness reads *)
let now () = Int64.to_float (Monotonic_clock.now ()) /. 1e9

let hr title = Printf.printf "\n=== %s ===\n%!" title

(* --json <path>: machine-readable results.  Experiments append flat
   records; the driver writes one JSON document at exit.  Values are
   already JSON-encoded ([jstr]/[jint]/[jfloat]). *)
let json_path : string option ref = ref None
let json_records : string list ref = ref []

let jstr s = Printf.sprintf "%S" s
let jint = string_of_int

let jfloat f =
  if Float.is_nan f then "null" else Printf.sprintf "%.6g" f

let record_json fields =
  json_records :=
    ("{"
    ^ String.concat ", "
        (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) fields)
    ^ "}")
    :: !json_records

let write_json path =
  let oc = open_out path in
  Printf.fprintf oc
    "{\n  \"cores\": %d,\n  \"quick\": %b,\n  \"results\": [\n    %s\n  ]\n}\n"
    (Domain.recommended_domain_count ())
    !quick
    (String.concat ",\n    " (List.rev !json_records));
  close_out oc

(* Nested "metrics" object for --json records: the run's flow-check and
   write-path story as the observability registry tells it, so every
   record carries enough to cross-check its headline number.  Domain
   pool steals are process-wide and monotone, so each record reports
   the delta since the previous one. *)
let last_steals = ref 0.0

let metrics_json ?txns db =
  let snap = Db.metrics_snapshot db in
  let v name = Option.value (List.assoc_opt name snap) ~default:0.0 in
  (* statement-latency quantiles, interpolated from the histogram
     buckets; null while the histogram is empty *)
  let q name = Option.value (List.assoc_opt name snap) ~default:Float.nan in
  let hits = v "ifdb_flow_memo_hits_total" in
  let checks = hits +. v "ifdb_flow_memo_misses_total" in
  let fsyncs = v "ifdb_wal_fsyncs_total" in
  let steals = v "ifdb_domain_pool_steals_total" in
  let stolen = steals -. !last_steals in
  last_steals := steals;
  Printf.sprintf
    "{\"flow_checks\": %s, \"memo_hit_rate\": %s, \"fsyncs\": %s, \
     \"fsyncs_per_txn\": %s, \"morsels_stolen\": %s, \
     \"stmt_seconds_p50\": %s, \"stmt_seconds_p95\": %s, \
     \"stmt_seconds_p99\": %s}"
    (jfloat checks)
    (jfloat (if checks = 0.0 then Float.nan else hits /. checks))
    (jfloat fsyncs)
    (jfloat
       (match txns with
       | Some n when n > 0 -> fsyncs /. float_of_int n
       | _ -> Float.nan))
    (jfloat stolen)
    (jfloat (q "ifdb_statement_seconds_p50"))
    (jfloat (q "ifdb_statement_seconds_p95"))
    (jfloat (q "ifdb_statement_seconds_p99"))

(* simulated seconds accumulated in a database's pool + wal *)
let db_io_s db =
  float_of_int (Buffer_pool.io_ns (Db.pool db) + Wal.io_ns (Db.wal db)) /. 1e9

let reset_db_io db =
  Buffer_pool.reset_stats (Db.pool db);
  Wal.reset_stats (Db.wal db)

(* ------------------------------------------------------------------ *)
(* The timer                                                           *)
(* ------------------------------------------------------------------ *)

(* Seconds per unit of work for one run of [work], which returns the
   units it did.  The run starts after a full major collection; with
   [~db], that database's simulated I/O during the run is added. *)
let per_unit ?db work =
  Gc.full_major ();
  Option.iter reset_db_io db;
  let t0 = now () in
  let units = work () in
  let io = match db with Some db -> db_io_s db | None -> 0.0 in
  (now () -. t0 +. io) /. float_of_int units

(* [n] calls of [f]; returns [n], the units for [per_unit] *)
let loop n f =
  for _ = 1 to n do
    f ()
  done;
  n

(* Interleaved best-of-[rounds]: each round runs every arm once, in
   order, so allocator and GC drift land on all arms alike, and each arm
   keeps its smallest result (an arm returns [per_unit]'s seconds per
   unit).  [~warm:true] runs one untimed round first. *)
let best_of ?(warm = false) ~rounds arms =
  if warm then Array.iter (fun arm -> ignore (arm ())) arms;
  let best = Array.make (Array.length arms) infinity in
  for _ = 1 to rounds do
    Array.iteri (fun i arm -> best.(i) <- Float.min best.(i) (arm ())) arms
  done;
  best

(* an arm for [best_of]: seconds per run of [n] back-to-back [q]s *)
let query_arm s q n () =
  per_unit (fun () -> loop n (fun () -> ignore (Db.query s q)))

(* ------------------------------------------------------------------ *)
(* Shared fixtures                                                     *)
(* ------------------------------------------------------------------ *)

let drive_groups = 16

(* CarTel-shaped scan data: [rows] rows of [drives] spread over
   [drive_groups] user tags, each a member of one covering compound,
   loaded by one transaction per tag in 500-row INSERTs.  The analyst
   reads under the compound, so every confinement check is a real flow
   derivation (member -> compound), not a subset test.  Returns the
   database and the analyst's session. *)
let drives ?(ifc = true) ?(metrics = true) ?(parallelism = 1) ~rows () =
  let db = Db.create ~ifc ~metrics ~parallelism () in
  let admin = Db.connect_admin db in
  let all_drives = Db.create_tag admin ~name:"all_drives" () in
  let users =
    Array.init drive_groups (fun g ->
        Db.create_tag admin
          ~name:(Printf.sprintf "user%d" g)
          ~compounds:[ all_drives ] ())
  in
  ignore (Db.exec admin "CREATE TABLE drives (id INT PRIMARY KEY, mi INT)");
  let per = rows / drive_groups in
  Array.iteri
    (fun g tag ->
      let w = Db.connect_admin db in
      if ifc then Db.add_secrecy w tag;
      ignore (Db.exec w "BEGIN");
      let i = ref 0 in
      while !i < per do
        let n = min 500 (per - !i) in
        let values =
          String.concat ", "
            (List.init n (fun j ->
                 let id = (g * per) + !i + j in
                 Printf.sprintf "(%d, %d)" id (id mod 97)))
        in
        ignore (Db.exec w ("INSERT INTO drives VALUES " ^ values));
        i := !i + n
      done;
      ignore (Db.exec w "COMMIT"))
    users;
  let analyst = Db.connect_admin db in
  if ifc then Db.add_secrecy analyst all_drives;
  (db, analyst)

let count_drives = "SELECT COUNT(*) FROM drives"

(* The point-query fixture: [rows] rows in [pt], written and read by a
   session labeled with two tags, so every execution still pays real
   confinement work, with [point_query] prepared as [pq] (the key a
   parameter).  Returns the database and the session.  The query is
   TPC-C-shaped: several predicates and projected expressions, but
   execution is one pk probe, the regime where the statement front-end
   dominates. *)
let point_query =
  "SELECT k, v, k + v, v * 2 FROM pt WHERE k = 500 AND v >= 0 AND v < \
   1000000 AND k > 0"

let point_fixture ?(trace_sample = 0) ~rows () =
  let db = Db.create ~trace_sample () in
  let admin = Db.connect_admin db in
  let s = Db.connect db ~principal:(Db.create_principal admin ~name:"bench") in
  let u1 = Db.create_tag s ~name:"u1" () in
  let u2 = Db.create_tag s ~name:"u2" () in
  Db.add_secrecy s u1;
  Db.add_secrecy s u2;
  ignore (Db.exec s "CREATE TABLE pt (k INT PRIMARY KEY, v INT)");
  ignore (Db.exec s "BEGIN");
  for i = 1 to rows do
    ignore (Db.exec s (Printf.sprintf "INSERT INTO pt VALUES (%d, %d)" i i))
  done;
  ignore (Db.exec s "COMMIT");
  ignore
    (Db.exec s
       "PREPARE pq AS SELECT k, v, k + v, v * 2 FROM pt WHERE k = $1 AND v \
        >= 0 AND v < 1000000 AND k > 0");
  (db, s)

(* ------------------------------------------------------------------ *)
(* Figure 3: the CarTel request mix (workload input validation)        *)
(* ------------------------------------------------------------------ *)

let fig3 () =
  hr "Figure 3: CarTel HTTP request mix (spec vs sampled)";
  let rng = Rng.create ~seed:303 in
  let samples = if !quick then 20_000 else 200_000 in
  let empirical = Cweb.empirical_mix rng ~samples in
  Printf.printf "%-18s %8s %10s\n" "request" "spec" "sampled";
  List.iter
    (fun (spec, req) ->
      Printf.printf "%-18s %8.2f %10.4f\n" (Cweb.path req) spec
        (List.assoc req empirical))
    Cweb.request_mix;
  Printf.printf "(%d samples)\n" samples

(* ------------------------------------------------------------------ *)
(* CarTel fixtures for Figures 4 and 5                                 *)
(* ------------------------------------------------------------------ *)

let build_cartel ~ifc ~capacity_pages ?miss_cost_ns ?base_cost_ns () =
  let users = if !quick then 6 else 12 in
  let t =
    Cartel.setup ~ifc ~if_platform:ifc ~users ~cars_per_user:2 ~capacity_pages
      ?miss_cost_ns ?base_cost_ns ()
  in
  let rng = Rng.create ~seed:404 in
  let cfg =
    {
      Gps.cars = users * 2;
      drives_per_car = (if !quick then 2 else 4);
      points_per_drive = (if !quick then 10 else 25);
      start_ts = 1_600_000_000;
    }
  in
  let points =
    List.map
      (fun p ->
        { p with Gps.car_id = ((p.Gps.car_id / 2) * 100) + (p.Gps.car_id mod 2) })
      (Gps.generate rng cfg)
  in
  Cartel.ingest_batch t points;
  (* some friendships so drives.php exercises delegations *)
  for u = 0 to users - 1 do
    Cartel.befriend t ~owner:u ~friend:((u + 1) mod users)
  done;
  t

let run_cartel_requests t rng ~requests =
  let users = Array.length t.Cartel.users in
  let ok = ref 0 and blocked = ref 0 and errors = ref 0 in
  for _ = 1 to requests do
    let user = Rng.int rng users in
    let req = Cweb.sample_request rng in
    let params =
      match req with
      | Cweb.Drives ->
          (* mostly own drives, sometimes a friend's: [build_cartel]
             has user u-1 delegate their drives tag to u *)
          if Rng.int rng 4 = 0 then
            [ ("target", string_of_int ((user + users - 1) mod users)) ]
          else []
      | Cweb.Get_cars | Cweb.Cars | Cweb.Drives_top | Cweb.Friends
      | Cweb.Edit_account ->
          []
    in
    let r = Cartel.request t ~path:(Cweb.path req) ~user ~params () in
    (match r.Web.status with
    | `Ok -> incr ok
    | `Blocked -> incr blocked
    | `Error -> incr errors)
  done;
  (!ok, !blocked, !errors)

(* ------------------------------------------------------------------ *)
(* Figure 4: CarTel web throughput                                     *)
(* ------------------------------------------------------------------ *)

(* The paper's two configurations saturate different resources: with
   three web servers the (disk-bound) database is the bottleneck; with
   one, the web tier's CPU is.  Each regime gets a fixture that makes
   the corresponding stage dominant: the db-bound one runs against a
   tiny buffer pool with RAID-era random-read latency; the web-bound
   one runs in memory behind a deliberately slow (interpreted-PHP-like)
   web tier.  Peak WIPS is the reciprocal of the slower stage. *)
let fig4_one ~ifc =
  let requests = if !quick then 400 else 1500 in
  let throughput t =
    let rng = Rng.create ~seed:42 in
    (* warm up, then measure *)
    ignore (run_cartel_requests t rng ~requests:(requests / 4));
    Web.reset_stats t.Cartel.web;
    let db_req =
      per_unit ~db:t.Cartel.db (fun () ->
          ignore (run_cartel_requests t rng ~requests);
          requests)
    in
    let web_time = float_of_int (Web.sim_cpu_ns t.Cartel.web) /. 1e9 in
    (db_req, web_time /. float_of_int requests)
  in
  (* db-bound: 3 web servers, database on slow disks *)
  let t_db =
    build_cartel ~ifc ~capacity_pages:(Some 16) ~miss_cost_ns:1_000_000 ()
  in
  let db_req, web_req = throughput t_db in
  let wips_db_bound = 1.0 /. Float.max db_req (web_req /. 3.0) in
  (* web-bound: 1 web server, in-memory database, slow web CPU *)
  let t_web =
    build_cartel ~ifc ~capacity_pages:None ~base_cost_ns:450_000 ()
  in
  let db_req, web_req = throughput t_web in
  let wips_web_bound = 1.0 /. Float.max db_req web_req in
  (wips_db_bound, wips_web_bound)

let fig4 () =
  hr "Figure 4: CarTel website throughput (web interactions per second)";
  let pg_db, pg_web = fig4_one ~ifc:false in
  let if_db, if_web = fig4_one ~ifc:true in
  Printf.printf "%-26s %18s %18s\n" "" "PostgreSQL + PHP" "IFDB + PHP-IF";
  Printf.printf "%-26s %18.1f %18.1f\n" "database-bound (3 web)" pg_db if_db;
  Printf.printf "%-26s %18.1f %18.1f\n" "web-server-bound (1 web)" pg_web if_web;
  Printf.printf
    "shape check: db-bound ratio %.3f (paper: 230.4/229.3 = 1.005); \
     web-bound ratio %.3f (paper: 103.5/132.0 = 0.784)\n"
    (if_db /. pg_db) (if_web /. pg_web)

(* ------------------------------------------------------------------ *)
(* Figure 5: per-script latency on an idle system                      *)
(* ------------------------------------------------------------------ *)

let fig5 () =
  hr "Figure 5: CarTel web request latency on an idle system (ms)";
  let reps = if !quick then 40 else 200 in
  let scripts =
    [ "login.php"; "drives.php"; "cars.php"; "get_cars.php"; "drives_top.php";
      "edit_account.php"; "friends.php" ]
  in
  let weights =
    (* figure 3 weights for the weighted-mean increase (login excluded,
       as in the paper's workload table) *)
    [ ("get_cars.php", 0.50); ("cars.php", 0.30); ("drives.php", 0.08);
      ("drives_top.php", 0.08); ("friends.php", 0.03); ("edit_account.php", 0.01) ]
  in
  let measure ~ifc =
    let t = build_cartel ~ifc ~capacity_pages:None () in
    List.map
      (fun path ->
        Web.reset_stats t.Cartel.web;
        let i = ref 0 in
        let db_req =
          per_unit ~db:t.Cartel.db (fun () ->
              loop reps (fun () ->
                  incr i;
                  ignore
                    (Cartel.request t ~path
                       ~user:(!i mod Array.length t.Cartel.users)
                       ())))
        in
        let web_req =
          float_of_int (Web.sim_cpu_ns t.Cartel.web) /. 1e9 /. float_of_int reps
        in
        (path, (db_req +. web_req) *. 1e3))
      scripts
  in
  let base = measure ~ifc:false in
  let ifdb = measure ~ifc:true in
  Printf.printf "%-18s %14s %14s %8s\n" "script" "PG+PHP (ms)" "IFDB+PHP-IF" "delta";
  List.iter2
    (fun (path, b) (_, i) ->
      Printf.printf "%-18s %14.3f %14.3f %7.1f%%\n" path b i
        ((i /. b -. 1.0) *. 100.0))
    base ifdb;
  let weighted xs =
    List.fold_left (fun acc (path, w) -> acc +. (w *. List.assoc path xs)) 0.0 weights
  in
  let wb = weighted base and wi = weighted ifdb in
  Printf.printf
    "weighted mean: %.3f ms -> %.3f ms (+%.1f%%; paper reports +24%%)\n" wb wi
    ((wi /. wb -. 1.0) *. 100.0)

(* ------------------------------------------------------------------ *)
(* Section 8.2.2: sensor data processing throughput                    *)
(* ------------------------------------------------------------------ *)

let sensor () =
  hr "Section 8.2.2: sensor ingest throughput (measurements/second)";
  let cars = if !quick then 8 else 20 in
  let cfg =
    {
      Gps.cars;
      drives_per_car = (if !quick then 3 else 6);
      points_per_drive = (if !quick then 25 else 60);
      start_ts = 1_600_000_000;
    }
  in
  let points =
    List.map
      (fun p -> { p with Gps.car_id = p.Gps.car_id * 100 })
      (Gps.generate (Rng.create ~seed:808) cfg)
  in
  (* one measured run: fresh database, replay the trace, wall time plus
     simulated I/O.  The paper's ingest ran against a disk-backed
     store, so both engines get the same bounded pool. *)
  let one_run ~ifc () =
    let t =
      Cartel.setup ~ifc ~if_platform:ifc ~users:cars ~cars_per_user:1
        ~capacity_pages:(Some 32) ~miss_cost_ns:1_000_000 ()
    in
    per_unit ~db:t.Cartel.db (fun () ->
        Cartel.ingest_batch t points;
        List.length points)
  in
  (* wall-clock noise is of the same order as the effect, so warm up
     and interleave repetitions, keeping each mode's best run *)
  let reps = if !quick then 2 else 4 in
  let best =
    best_of ~warm:true ~rounds:reps [| one_run ~ifc:false; one_run ~ifc:true |]
  in
  let pg = 1.0 /. best.(0) and ifdb = 1.0 /. best.(1) in
  Printf.printf "PostgreSQL: %8.0f meas/s\nIFDB:       %8.0f meas/s\n" pg ifdb;
  Printf.printf
    "overhead: %.1f%% over %d measurements x %d reps (paper: 2479 vs 2439 = 1.6%%)\n"
    ((1.0 -. (ifdb /. pg)) *. 100.0)
    (List.length points) reps

(* ------------------------------------------------------------------ *)
(* Figure 6: DBT-2 (TPC-C) throughput vs tags per label                *)
(* ------------------------------------------------------------------ *)

let fig6_point ?(ifc = true) ?(parallelism = 1) ?(commit_batch = 1)
    ?(prepared = false) ?(trace_sample = 0) ~tags ~capacity_pages ~txns
    ~config ~reps () =
  let db =
    Db.create ~ifc ~capacity_pages ~parallelism ~commit_batch ~trace_sample ()
  in
  let admin = Db.connect_admin db in
  let bench_p = Db.create_principal admin ~name:"bench" in
  let s = Db.connect db ~principal:bench_p in
  let tag_list =
    List.init tags (fun i -> Db.create_tag s ~name:(Printf.sprintf "t%d" i) ())
  in
  List.iter (fun tag -> Db.add_secrecy s tag) tag_list;
  let rng = Rng.create ~seed:606 in
  Tpcc.create_schema s;
  Tpcc.populate s rng config;
  (* wall-clock noise swamps small in-memory effects: keep the best of
     [reps] runs, timed per New-Order (simulated I/O is deterministic, so
     the disk-bound regime needs only one) *)
  let best =
    best_of ~rounds:reps
      [|
        (fun () ->
          per_unit ~db (fun () ->
              (Tpcc.run_mix ~prepared s rng config ~txns).Tpcc.new_orders));
      |]
  in
  (match Tpcc.consistency_check s config with
  | Ok () -> ()
  | Error e -> Printf.printf "  !! consistency: %s\n" e);
  (* the db rides along so callers can attach its metrics snapshot to
     their JSON records *)
  (60.0 /. best.(0), db)

let fig6 () =
  hr "Figure 6: TPC-C (DBT-2) NOTPM vs tags per label";
  let txns = if !quick then 600 else 3000 in
  let mem_config =
    { Tpcc.warehouses = 2; districts = 4; customers = 60; items = 400 }
  in
  let disk_config =
    { Tpcc.warehouses = 2; districts = 4; customers = 80; items = 1200 }
  in
  let tag_points = if !quick then [ 0; 2; 6; 10 ] else [ 0; 1; 2; 4; 6; 8; 10 ] in
  let run_regime name ~capacity_pages ~config ~reps =
    Printf.printf "\n-- %s --\n%!" name;
    let baseline, _ =
      fig6_point ~ifc:false ~tags:0 ~capacity_pages ~txns ~config ~reps ()
    in
    Printf.printf "%-16s %10.0f NOTPM\n%!" "PostgreSQL" baseline;
    let points =
      List.map
        (fun tags ->
          let notpm, _db =
            fig6_point ~tags ~capacity_pages ~txns ~config ~reps ()
          in
          (tags, notpm))
        tag_points
    in
    let zero =
      match points with (0, y) :: _ -> y | _ -> baseline
    in
    List.iter
      (fun (tags, notpm) ->
        Printf.printf
          "IFDB tags = %-3d %10.0f NOTPM (%.1f%% of 0-tag IFDB, %.1f%% of baseline)\n%!"
          tags notpm
          (notpm /. zero *. 100.0)
          (notpm /. baseline *. 100.0))
      points;
    (* least-squares per-tag slope, as a % of the fit's 0-tag intercept *)
    let n = float_of_int (List.length points) in
    let sx = List.fold_left (fun a (x, _) -> a +. float_of_int x) 0.0 points in
    let sy = List.fold_left (fun a (_, y) -> a +. y) 0.0 points in
    let sxy =
      List.fold_left (fun a (x, y) -> a +. (float_of_int x *. y)) 0.0 points
    in
    let sxx =
      List.fold_left (fun a (x, _) -> a +. (float_of_int x ** 2.0)) 0.0 points
    in
    let slope = ((n *. sxy) -. (sx *. sy)) /. ((n *. sxx) -. (sx *. sx)) in
    let y0 = (sy -. (slope *. sx)) /. n in
    Printf.printf "per-tag cost: %.2f%% of throughput per tag\n"
      (-.slope /. y0 *. 100.0);
    -.slope /. y0 *. 100.0
  in
  let mem_slope =
    run_regime "in-memory (unbounded buffer pool)" ~capacity_pages:None
      ~config:mem_config
      ~reps:(if !quick then 2 else 3)
  in
  let disk_slope =
    run_regime "disk-bound (small buffer pool)" ~capacity_pages:(Some 48)
      ~config:disk_config ~reps:1
  in
  Printf.printf
    "\nshape check: paper reports ~0.6%%/tag in-memory and ~1%%/tag on-disk; \
     measured %.2f%%/tag and %.2f%%/tag (disk steeper: %b)\n"
    mem_slope disk_slope
    (disk_slope > mem_slope)

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

let ablation_exact_label () =
  hr "Ablation: exact-label filters vs plain confinement scans";
  let db = Db.create () in
  let admin = Db.connect_admin db in
  let p = Db.create_principal admin ~name:"p" in
  let s = Db.connect db ~principal:p in
  let _t1 = Db.create_tag s ~name:"x1" () in
  let _t2 = Db.create_tag s ~name:"x2" () in
  ignore (Db.exec s "CREATE TABLE T (k INT, v INT)");
  let rows = if !quick then 2_000 else 10_000 in
  ignore (Db.exec s "PERFORM addsecrecy(x1)");
  ignore (Db.exec s "BEGIN");
  for i = 1 to rows / 2 do
    ignore (Db.exec s (Printf.sprintf "INSERT INTO T VALUES (%d, %d)" i i))
  done;
  ignore (Db.exec s "COMMIT");
  ignore (Db.exec s "PERFORM addsecrecy(x2)");
  ignore (Db.exec s "BEGIN");
  for i = 1 to rows / 2 do
    ignore (Db.exec s (Printf.sprintf "INSERT INTO T VALUES (%d, %d)" (i + rows) i))
  done;
  ignore (Db.exec s "COMMIT");
  let time q = query_arm s q 20 () *. 1e3 in
  let plain = time "SELECT COUNT(*) FROM T" in
  let exact = time "SELECT COUNT(*) FROM T WHERE _label = {x1}" in
  Printf.printf
    "scan of %d rows: plain %.3f ms, exact-label filter %.3f ms (%+.0f%%)\n"
    rows plain exact
    ((exact /. plain -. 1.0) *. 100.0)

let ablation_clearance () =
  hr "Ablation: clearance-rule checks under Serializable isolation";
  (* interleave the two modes so allocator/GC drift hits both equally *)
  let mk iso =
    let db = Db.create ~isolation:iso () in
    let admin = Db.connect_admin db in
    let p = Db.create_principal admin ~name:"p" in
    let s = Db.connect db ~principal:p in
    let tag = Db.create_tag s ~name:"t" () in
    ignore (Db.exec s "CREATE TABLE T (a INT)");
    (s, tag)
  in
  let si_s, si_tag = mk Db.Snapshot in
  let ser_s, ser_tag = mk Db.Serializable in
  let reps = if !quick then 2_000 else 10_000 in
  let measure (s, tag) () =
    per_unit (fun () ->
        loop reps (fun () ->
            ignore (Db.exec s "BEGIN");
            Db.add_secrecy s tag;
            ignore (Db.exec s "INSERT INTO T VALUES (1)");
            Db.declassify s tag;
            ignore (Db.exec s "COMMIT")))
  in
  let best =
    best_of ~rounds:3 [| measure (si_s, si_tag); measure (ser_s, ser_tag) |]
  in
  let si = best.(0) *. 1e6 and ser = best.(1) *. 1e6 in
  Printf.printf
    "label-raising transaction: snapshot %.2f us, serializable %.2f us \
     (clearance overhead %+.1f%%; the check is one authority lookup per \
     raise, expected near zero)\n"
    si ser
    ((ser /. si -. 1.0) *. 100.0)

let ablation_join_strategy () =
  hr "Ablation: join strategies (index nested loop vs hash vs nested loop)";
  let db = Db.create ~ifc:false () in
  let s = Db.connect_admin db in
  ignore (Db.exec s "CREATE TABLE big (k INT PRIMARY KEY, g INT, v INT)");
  ignore (Db.exec s "CREATE TABLE sel (k INT PRIMARY KEY, w INT)");
  let rows = if !quick then 2_000 else 8_000 in
  ignore (Db.exec s "BEGIN");
  for k = 0 to rows - 1 do
    ignore
      (Db.exec s
         (Printf.sprintf "INSERT INTO big VALUES (%d, %d, %d)" k (k mod 50) k))
  done;
  for k = 0 to 49 do
    ignore (Db.exec s (Printf.sprintf "INSERT INTO sel VALUES (%d, %d)" k k))
  done;
  ignore (Db.exec s "COMMIT");
  let time q = query_arm s q 30 () *. 1e3 in
  (* INL: probe big's pk per sel row *)
  let inl = time "SELECT COUNT(*) FROM sel JOIN big ON big.k = sel.k" in
  (* hash: equi pair intact, probe defeated by the non-indexed column *)
  let hash = time "SELECT COUNT(*) FROM sel JOIN big ON big.v = sel.k" in
  (* nested loop: no equi pair at all *)
  let nested = time "SELECT COUNT(*) FROM sel JOIN big ON big.k + 0 = sel.k + 0" in
  Printf.printf
    "50-row driver joined to %d rows: index-nested-loop %.3f ms, hash %.3f \
     ms, nested loop %.3f ms\n"
    rows inl hash nested

let ablation_labelcache () =
  hr "Ablation: label interning + memoized flow checks (labelcache)";
  let rows = if !quick then 2_000 else 10_000 in
  let scans = if !quick then 10 else 30 in
  let fixtures = [| drives ~ifc:false ~rows (); drives ~rows () |] in
  (* the first scan pays the per-group flow derivations; time steady
     state, best of 3 interleaved rounds *)
  Array.iter
    (fun (db, analyst) ->
      ignore (Db.query analyst count_drives);
      Label_store.reset_stats (Db.label_store db))
    fixtures;
  let best =
    best_of ~rounds:3
      (Array.map
         (fun (_, analyst) -> query_arm analyst count_drives scans)
         fixtures)
  in
  Printf.printf "%d rows, %d label groups, %d scans each\n%-28s %10s %10s %9s %9s\n"
    rows drive_groups scans "config" "ms/scan" "Mrows/s" "hit rate" "labels";
  let line name i =
    let ms = best.(i) *. 1e3 in
    let st = Label_store.stats (Db.label_store (fst fixtures.(i))) in
    let hits = st.Label_store.flow_hits in
    let probes = hits + st.Label_store.flow_misses in
    Printf.printf "%-28s %10.3f %10.2f %9s %9d\n" name ms
      (float_of_int rows /. ms /. 1e3)
      (if probes = 0 then "-"
       else Printf.sprintf "%.1f%%" (float hits /. float probes *. 100.0))
      st.Label_store.interned
  in
  line "ifc off (baseline)" 0;
  line "ifc on, flow cache" 1;
  Printf.printf "IFC-on overhead vs baseline: %.2fx (acceptance: within 2x)\n"
    (best.(1) /. best.(0))

(* The observability acceptance bound: the labelcache scan workload —
   IFC on, every row through a confinement check, the densest
   instrument traffic a read gets — must run within 5% of the same
   workload on a registry-disabled database.  The statement path's only
   always-on costs are one [Atomic.incr], one histogram observe and two
   clock reads per statement, all no-ops when the registry is off. *)
let ablation_metrics () =
  hr "Ablation: metrics registry on vs off (observability overhead)";
  let rows = if !quick then 2_000 else 10_000 in
  let scans = if !quick then 10 else 30 in
  let on_fix = drives ~rows () in
  let off_fix = drives ~metrics:false ~rows () in
  let best =
    best_of ~warm:true ~rounds:4
      (Array.map
         (fun (_, analyst) -> query_arm analyst count_drives scans)
         [| on_fix; off_fix |])
  in
  let on_ms = best.(0) *. 1e3 and off_ms = best.(1) *. 1e3 in
  let overhead = ((on_ms /. off_ms) -. 1.0) *. 100.0 in
  Printf.printf
    "%d-row labeled scan x %d: metrics off %.3f ms, metrics on %.3f ms \
     (%+.1f%%; acceptance <= 5%%: %b)\n"
    rows scans off_ms on_ms overhead (overhead <= 5.0);
  record_json
    [
      ("workload", jstr "metrics_ablation");
      ("rows", jint rows);
      ("scans", jint scans);
      ("ms_per_scan_metrics_off", jfloat off_ms);
      ("ms_per_scan_metrics_on", jfloat on_ms);
      ("overhead_pct", jfloat overhead);
      ("metrics", metrics_json (fst on_fix));
    ]

(* ------------------------------------------------------------------ *)
(* Parallel execution: domain-count sweep                              *)
(* ------------------------------------------------------------------ *)

let parallel_sweep () =
  hr "Parallel execution: morsel-driven scans, domain-count sweep";
  let rows = if !quick then 10_000 else 60_000 in
  let scans = if !quick then 5 else 12 in
  (* the labelcache workload, scaled up: the scan-heavy CarTel shape,
     where every row passes a real confinement check *)
  let queries =
    [
      ("count", count_drives);
      ("filter_sum", "SELECT SUM(mi) FROM drives WHERE mi < 48");
      ("group_by", "SELECT mi, COUNT(*) FROM drives GROUP BY mi");
    ]
  in
  let domain_counts = [ 1; 2; 4; 8 ] in
  Printf.printf "%d rows over %d label groups; available cores: %d\n" rows
    drive_groups
    (Domain.recommended_domain_count ());
  Printf.printf "%-12s %8s %12s %12s %10s\n" "query" "domains" "ms/scan"
    "Mrows/s" "vs 1-dom";
  let base : (string, float) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun domains ->
      let db, analyst = drives ~parallelism:domains ~rows () in
      List.iter
        (fun (qname, q) ->
          ignore (Db.query analyst q);
          (* warm: label verdicts, domain-local memos *)
          Label_store.reset_stats (Db.label_store db);
          Buffer_pool.reset_stats (Db.pool db);
          let ms =
            (best_of ~rounds:3 [| query_arm analyst q scans |]).(0) *. 1e3
          in
          if domains = 1 then Hashtbl.replace base qname ms;
          let speedup = Hashtbl.find base qname /. ms in
          let st = Label_store.stats (Db.label_store db) in
          let bp = Buffer_pool.stats (Db.pool db) in
          Printf.printf "%-12s %8d %12.3f %12.2f %9.2fx\n%!" qname domains ms
            (float_of_int rows /. ms /. 1e3)
            speedup;
          record_json
            [
              ("workload", jstr "cartel_scan");
              ("regime", jstr "in_memory");
              ("query", jstr qname);
              ("domains", jint domains);
              ("rows", jint rows);
              ("ms_per_scan", jfloat ms);
              ("throughput_rows_per_s", jfloat (float_of_int rows /. ms *. 1e3));
              ("speedup_vs_serial", jfloat speedup);
              ("io_ns", jint (Buffer_pool.io_ns (Db.pool db)));
              ("flow_hits", jint st.Label_store.flow_hits);
              ("flow_misses", jint st.Label_store.flow_misses);
              ("bp_hits", jint bp.Buffer_pool.hits);
              ("bp_misses", jint bp.Buffer_pool.misses);
              ("metrics", metrics_json db);
            ])
        queries)
    domain_counts;
  (* fig6 in-memory TPC-C under the same sweep: the transaction mix is
     point-query and write heavy, so its scans rarely clear the morsel
     threshold — included to show the knob is safe on OLTP, not to
     claim speedup there *)
  let txns = if !quick then 300 else 1200 in
  let config =
    { Tpcc.warehouses = 2; districts = 4; customers = 60; items = 400 }
  in
  Printf.printf "\nTPC-C in-memory, tags=2:\n%-8s %12s\n" "domains" "NOTPM";
  List.iter
    (fun domains ->
      let notpm, pdb =
        fig6_point ~parallelism:domains ~tags:2 ~capacity_pages:None ~txns
          ~config ~reps:2 ()
      in
      Printf.printf "%-8d %12.0f\n%!" domains notpm;
      record_json
        [
          ("workload", jstr "tpcc");
          ("regime", jstr "in_memory");
          ("query", jstr "mix");
          ("domains", jint domains);
          ("tags", jint 2);
          ("notpm", jfloat notpm);
          ("metrics", metrics_json ~txns pdb);
        ])
    domain_counts;
  Printf.printf
    "note: speedup is bounded by physical cores (%d here); on one core the \
     sweep verifies correctness and barrier overhead, not scaling\n"
    (Domain.recommended_domain_count ())

(* ------------------------------------------------------------------ *)
(* Write path: group commit and batched inserts (PR 3)                 *)
(* ------------------------------------------------------------------ *)

(* The paper's sensor-ingest experiment (section 8.2.2) is write-bound:
   every GPS point is one INSERT, and on the paper's RAID-5 testbed the
   commit fsync dominates.  This experiment sweeps the two write-path
   levers: the group-commit coalescing degree (how many commit records
   share one fsync) and the statement batch size (how many rows share
   one Write-Rule pass, one WAL append and one index descent). *)
let writepath () =
  hr "Write path: group commit + batched inserts (paper section 8.2.2)";
  (* --- group commit: single-insert transactions, swept coalescing --- *)
  let txns = if !quick then 500 else 4000 in
  Printf.printf
    "\n-- group commit: %d single-insert transactions (CarTel ingest shape) --\n"
    txns;
  Printf.printf "%-10s %10s %12s %16s %12s\n" "coalesce" "fsyncs" "fsyncs/txn"
    "wal io_ns/txn" "txns/s";
  let solo_io = ref 0.0 in
  List.iter
    (fun degree ->
      let db = Db.create ~commit_batch:degree () in
      let s = Db.connect_admin db in
      ignore (Db.exec s "CREATE TABLE obs (id INT PRIMARY KEY, car INT, mi INT)");
      Gc.full_major ();
      reset_db_io db;
      let t0 = now () in
      for i = 0 to txns - 1 do
        ignore
          (Db.exec s
             (Printf.sprintf "INSERT INTO obs VALUES (%d, %d, %d)" i (i mod 16)
                (i mod 97)))
      done;
      Db.flush_wal db;
      let wall = now () -. t0 in
      let st = Wal.stats (Db.wal db) in
      let io_ns = Wal.io_ns (Db.wal db) in
      let per_txn = float_of_int io_ns /. float_of_int txns in
      if degree = 1 then solo_io := per_txn;
      let fsyncs_per_txn = float_of_int st.Wal.fsyncs /. float_of_int txns in
      let rate = float_of_int txns /. (wall +. (float_of_int io_ns /. 1e9)) in
      Printf.printf "%-10d %10d %12.3f %16.0f %12.0f\n%!" degree st.Wal.fsyncs
        fsyncs_per_txn per_txn rate;
      record_json
        [
          ("workload", jstr "writepath_coalesce");
          ("coalesce", jint degree);
          ("txns", jint txns);
          ("fsyncs", jint st.Wal.fsyncs);
          ("fsyncs_per_txn", jfloat fsyncs_per_txn);
          ("wal_io_ns_per_txn", jfloat per_txn);
          ("txns_per_s", jfloat rate);
          ("io_reduction_vs_solo", jfloat (!solo_io /. per_txn));
          ("metrics", metrics_json ~txns db);
        ];
      if degree = 8 then
        Printf.printf
          "acceptance: coalesce 8 -> %.3f fsyncs/txn (< 0.2: %b), io_ns/txn \
           %.1fx lower than solo (>= 5x: %b)\n"
          fsyncs_per_txn (fsyncs_per_txn < 0.2) (!solo_io /. per_txn)
          (!solo_io /. per_txn >= 5.0))
    [ 1; 2; 4; 8 ];
  (* --- statement batching: multi-row INSERT over labeled groups --- *)
  let rows = if !quick then 2_000 else 10_000 in
  let groups = 8 in
  Printf.printf
    "\n-- batched inserts: %d rows over %d per-car label groups --\n" rows
    groups;
  Printf.printf "%-10s %10s %14s %12s %12s\n" "batch" "fsyncs" "flow probes"
    "io_ns/row" "rows/s";
  let solo_row_io = ref 0.0 in
  List.iter
    (fun batch ->
      let db = Db.create () in
      let admin = Db.connect_admin db in
      ignore
        (Db.exec admin "CREATE TABLE obs (id INT PRIMARY KEY, car INT, mi INT)");
      let tags =
        Array.init groups (fun i ->
            Db.create_tag admin ~name:(Printf.sprintf "car%d" i) ())
      in
      Gc.full_major ();
      reset_db_io db;
      Label_store.reset_stats (Db.label_store db);
      let t0 = now () in
      Array.iteri
        (fun g tag ->
          let w = Db.connect_admin db in
          Db.add_secrecy w tag;
          let per = rows / groups in
          let i = ref 0 in
          while !i < per do
            let n = min batch (per - !i) in
            let values =
              String.concat ", "
                (List.init n (fun j ->
                     let id = (g * per) + !i + j in
                     Printf.sprintf "(%d, %d, %d)" id g (id mod 97)))
            in
            ignore (Db.exec w ("INSERT INTO obs VALUES " ^ values));
            i := !i + n
          done)
        tags;
      Db.flush_wal db;
      let wall = now () -. t0 in
      let st = Wal.stats (Db.wal db) in
      let lst = Label_store.stats (Db.label_store db) in
      let probes = lst.Label_store.flow_hits + lst.Label_store.flow_misses in
      let io_per_row =
        float_of_int (Wal.io_ns (Db.wal db)) /. float_of_int rows
      in
      if batch = 1 then solo_row_io := io_per_row;
      let rate = float_of_int rows /. (wall +. db_io_s db) in
      Printf.printf "%-10d %10d %14d %12.0f %12.0f\n%!" batch st.Wal.fsyncs
        probes io_per_row rate;
      record_json
        [
          ("workload", jstr "writepath_batch");
          ("batch", jint batch);
          ("rows", jint rows);
          ("label_groups", jint groups);
          ("fsyncs", jint st.Wal.fsyncs);
          ("flow_probes", jint probes);
          ("wal_io_ns_per_row", jfloat io_per_row);
          ("rows_per_s", jfloat rate);
          ("io_reduction_vs_row_at_a_time", jfloat (!solo_row_io /. io_per_row));
          ("metrics", metrics_json db);
        ])
    [ 1; 10; 200 ];
  (* --- TPC-C New-Order under group commit --- *)
  let tpcc_txns = if !quick then 300 else 1500 in
  let config =
    { Tpcc.warehouses = 2; districts = 4; customers = 60; items = 400 }
  in
  Printf.printf "\nTPC-C in-memory, tags=2, group-commit sweep:\n%-10s %12s\n"
    "coalesce" "NOTPM";
  List.iter
    (fun degree ->
      let notpm, pdb =
        fig6_point ~commit_batch:degree ~tags:2 ~capacity_pages:None
          ~txns:tpcc_txns ~config ~reps:2 ()
      in
      Printf.printf "%-10d %12.0f\n%!" degree notpm;
      record_json
        [
          ("workload", jstr "writepath_tpcc");
          ("regime", jstr "in_memory");
          ("coalesce", jint degree);
          ("tags", jint 2);
          ("notpm", jfloat notpm);
          ("metrics", metrics_json ~txns:tpcc_txns pdb);
        ])
    [ 1; 8 ];
  Printf.printf
    "\npaper section 8.2.2 reports 2479 (PostgreSQL) vs 2439 (IFDB) meas/s \
     on RAID-5: ingest is fsync-bound, which is the regime group commit \
     and statement batching recover\n"

(* ------------------------------------------------------------------ *)
(* Incremental view maintenance: crossover vs recompute-per-read       *)
(* ------------------------------------------------------------------ *)

(* A CarTel-shaped declassifying aggregate — per-car mileage totals
   over labeled telemetry, read by a public analyst — under read:write
   mixes from read-heavy (the website) to write-heavy (ingest).  The
   same view body runs twice per mix: MATERIALIZED (commit-time deltas)
   and plain (recompute per read).  Reads and writes are timed
   separately so the two acceptance numbers fall out directly:
   read speedup at 100:1 and write-path overhead at 1:1. *)
let views () =
  hr "Incremental view maintenance: materialized vs recompute-per-read";
  let cars = 8 in
  let base_rows = if !quick then 800 else 4000 in
  let mixes =
    (* (label, reads, writes) *)
    if !quick then [ ("100:1", 1000, 10); ("10:1", 500, 50); ("1:1", 400, 400) ]
    else [ ("100:1", 5000, 50); ("10:1", 2000, 200); ("1:1", 1500, 1500) ]
  in
  let tag_list =
    String.concat ", " (List.init cars (Printf.sprintf "car%d"))
  in
  let run ~materialized (mix, reads, writes) =
    let db = Db.create () in
    let admin = Db.connect_admin db in
    ignore
      (Db.exec admin "CREATE TABLE obs (id INT PRIMARY KEY, car INT, mi INT)");
    let tags =
      Array.init cars (fun i ->
          Db.create_tag admin ~name:(Printf.sprintf "car%d" i) ())
    in
    (* labeled base load: one writer session per car *)
    let writers =
      Array.map
        (fun tag ->
          let w = Db.connect_admin db in
          Db.add_secrecy w tag;
          w)
        tags
    in
    let next_id = ref 0 in
    let insert_row () =
      let id = !next_id in
      incr next_id;
      let car = id mod cars in
      ignore
        (Db.exec writers.(car)
           (Printf.sprintf "INSERT INTO obs VALUES (%d, %d, %d)" id car
              (id mod 97)))
    in
    for _ = 1 to base_rows do
      insert_row ()
    done;
    ignore
      (Db.exec admin
         (Printf.sprintf
            "CREATE %sVIEW fleet AS SELECT car, COUNT(*) AS n, SUM(mi) AS \
             total FROM obs GROUP BY car WITH DECLASSIFYING (%s)"
            (if materialized then "MATERIALIZED " else "")
            tag_list));
    let analyst =
      Db.connect db ~principal:(Db.create_principal admin ~name:"analyst")
    in
    (* interleave: spread the writes evenly through the read stream *)
    Gc.full_major ();
    let t_read = ref 0.0 and t_write = ref 0.0 in
    let reads_done = ref 0 and writes_done = ref 0 in
    let total = reads + writes in
    for op = 0 to total - 1 do
      (* Bresenham-style interleave keeps the mix steady throughout *)
      let want_writes = (op + 1) * writes / total in
      if !writes_done < want_writes then begin
        let t0 = now () in
        insert_row ();
        t_write := !t_write +. (now () -. t0);
        incr writes_done
      end
      else begin
        let t0 = now () in
        ignore (Db.query analyst "SELECT * FROM fleet");
        t_read := !t_read +. (now () -. t0);
        incr reads_done
      end
    done;
    let read_us = !t_read /. float_of_int (max 1 !reads_done) *. 1e6 in
    let write_us = !t_write /. float_of_int (max 1 !writes_done) *. 1e6 in
    let served, recomputed, deltas =
      match Db.view_stats db with
      | s :: _ ->
          Ifdb_engine.Ivm.(s.vs_served, s.vs_recomputes, s.vs_deltas)
      | [] -> (0, !reads_done, 0) (* plain view: every read recomputes *)
    in
    Printf.printf "%-6s %-12s %12.1f %12.1f %10d %10d %10d\n%!" mix
      (if materialized then "materialized" else "plain")
      read_us write_us served recomputed deltas;
    record_json
      [
        ("workload", jstr "views");
        ("mix", jstr mix);
        ("materialized", if materialized then "true" else "false");
        ("reads", jint !reads_done);
        ("writes", jint !writes_done);
        ("base_rows", jint base_rows);
        ("read_us", jfloat read_us);
        ("write_us", jfloat write_us);
        ("reads_served_incremental", jint served);
        ("reads_recomputed", jint recomputed);
        ("deltas_applied", jint deltas);
        ("metrics", metrics_json ~txns:(base_rows + !writes_done) db);
      ];
    (read_us, write_us)
  in
  Printf.printf "%-6s %-12s %12s %12s %10s %10s %10s\n" "mix" "view" "read_us"
    "write_us" "served" "recomp" "deltas";
  let results =
    List.map
      (fun mix ->
        let plain = run ~materialized:false mix in
        let mat = run ~materialized:true mix in
        (mix, plain, mat))
      mixes
  in
  let speedup_at m =
    match
      List.find_opt (fun ((mix, _, _), _, _) -> mix = m) results
    with
    | Some (_, (pr, _), (mr, _)) -> pr /. mr
    | None -> Float.nan
  in
  let overhead_at m =
    match
      List.find_opt (fun ((mix, _, _), _, _) -> mix = m) results
    with
    | Some (_, (_, pw), (_, mw)) -> (mw -. pw) /. pw
    | None -> Float.nan
  in
  let speedup = speedup_at "100:1" in
  let overhead = overhead_at "1:1" in
  Printf.printf
    "\nacceptance: read speedup at 100:1 = %.1fx (>= 10x: %b); write \
     overhead at 1:1 = %+.1f%% (<= 15%%: %b)\n"
    speedup (speedup >= 10.0) (overhead *. 100.0) (overhead <= 0.15);
  record_json
    [
      ("workload", jstr "views_acceptance");
      ("read_speedup_100_1", jfloat speedup);
      ("write_overhead_1_1", jfloat overhead);
    ]

let ablations () =
  ablation_exact_label ();
  ablation_clearance ();
  ablation_join_strategy ()

(* ------------------------------------------------------------------ *)
(* Prepared statements + plan cache (PR 8)                             *)
(* ------------------------------------------------------------------ *)

(* How much of a point query is parse/analyze/plan, and how much of it
   the generation-stamped plan cache recovers.  Three modes over the
   same labeled table (IFC on, a two-tag session, so every execution
   still pays real confinement work — the cache never skips that):

   - [cold]:     the statement text parsed every time and run through
                 [Db.exec_stmt], which never consults the plan cache:
                 the full parse -> analyze -> plan -> execute path.
   - [implicit]: cache on, same SQL text each time; parse and plan are
                 amortized by the text-keyed cache, analysis re-runs.
   - [prepared]: PREPARE once, EXECUTE with a bound parameter; parse,
                 analysis and planning all amortized.

   Then TPC-C with every transaction statement as a prepared template
   vs the same templates rendered to literal SQL, for the end-to-end
   number. *)
let prepared_bench () =
  hr "Prepared statements + plan cache: amortizing the statement front-end";
  let rows = if !quick then 500 else 1000 in
  let reps = if !quick then 1_500 else 8_000 in
  let _cold_db, cold_s = point_fixture ~rows () in
  let _imp_db, imp_s = point_fixture ~rows () in
  let prep_db, prep_s = point_fixture ~rows () in
  let arg = [ Value.Int 500 ] in
  let arm f () = per_unit (fun () -> loop reps f) *. 1e6 in
  let best =
    best_of ~warm:true ~rounds:5
      [|
        arm (fun () ->
            let stmt = Ifdb_sql.Parser.parse_one point_query in
            ignore (Db.exec_stmt cold_s stmt));
        arm (fun () -> ignore (Db.query imp_s point_query));
        arm (fun () -> ignore (Db.execute_prepared prep_s "pq" arg));
      |]
  in
  let us_cold = best.(0) and us_implicit = best.(1) and us_prepared = best.(2) in
  let snap name db =
    let m = Db.metrics_snapshot db in
    Option.value (List.assoc_opt name m) ~default:0.0
  in
  let hits = snap "ifdb_plan_cache_hits_total" prep_db in
  let misses = snap "ifdb_plan_cache_misses_total" prep_db in
  let hit_rate =
    if hits +. misses = 0.0 then Float.nan else hits /. (hits +. misses)
  in
  (* invalidation is observable: DDL moves the catalog version, the next
     EXECUTE re-plans *)
  ignore (Db.exec prep_s "CREATE TABLE pt_inval_probe (a INT)");
  ignore (Db.execute_prepared prep_s "pq" arg);
  let invalidations =
    int_of_float (snap "ifdb_plan_cache_invalidations_total" prep_db)
  in
  let speedup = us_cold /. us_prepared in
  Printf.printf
    "point SELECT on %d labeled rows, %d reps (best of 5):\n\
     %-34s %10.2f us/op\n%-34s %10.2f us/op (%.2fx)\n\
     %-34s %10.2f us/op (%.2fx)\n"
    rows reps "cold (parse + exec_stmt)" us_cold "implicit cache (same text)"
    us_implicit (us_cold /. us_implicit) "PREPARE/EXECUTE" us_prepared speedup;
  Printf.printf
    "front-end fraction amortized: %.0f%%; plan-cache hit rate %.3f; \
     invalidations after DDL: %d\n"
    ((us_cold -. us_prepared) /. us_cold *. 100.0)
    hit_rate invalidations;
  Printf.printf
    "acceptance: cached EXECUTE >= 2x cold serial: %b (%.2fx)\n"
    (speedup >= 2.0) speedup;
  record_json
    [
      ("workload", jstr "prepared_micro");
      ("rows", jint rows);
      ("reps", jint reps);
      ("us_cold", jfloat us_cold);
      ("us_implicit", jfloat us_implicit);
      ("us_prepared", jfloat us_prepared);
      ("speedup_prepared_vs_cold", jfloat speedup);
      ("speedup_implicit_vs_cold", jfloat (us_cold /. us_implicit));
      ("amortized_fraction", jfloat ((us_cold -. us_prepared) /. us_cold));
      ("cache_hit_rate", jfloat hit_rate);
      ("invalidations_after_ddl", jint invalidations);
      ("prepared_faster", if speedup > 1.0 then "true" else "false");
      ("speedup_ge_2x", if speedup >= 2.0 then "true" else "false");
      ("metrics", metrics_json prep_db);
    ];
  (* --- TPC-C: all five transactions through prepared templates --- *)
  let txns = if !quick then 300 else 1500 in
  let config =
    { Tpcc.warehouses = 2; districts = 4; customers = 60; items = 400 }
  in
  let reps6 = 2 in
  let direct, _ =
    fig6_point ~tags:2 ~capacity_pages:None ~txns ~config ~reps:reps6 ()
  in
  let prepared, pdb =
    fig6_point ~prepared:true ~tags:2 ~capacity_pages:None ~txns ~config
      ~reps:reps6 ()
  in
  let tpcc_hits = snap "ifdb_plan_cache_hits_total" pdb in
  let tpcc_misses = snap "ifdb_plan_cache_misses_total" pdb in
  let tpcc_hit_rate =
    if tpcc_hits +. tpcc_misses = 0.0 then Float.nan
    else tpcc_hits /. (tpcc_hits +. tpcc_misses)
  in
  Printf.printf
    "\nTPC-C in-memory, tags=2, %d txns:\n%-24s %12.0f NOTPM\n%-24s %12.0f \
     NOTPM (%+.1f%%)\nplan-cache hit rate (prepared run): %.3f\n"
    txns "direct (literal SQL)" direct "prepared templates" prepared
    ((prepared /. direct -. 1.0) *. 100.0)
    tpcc_hit_rate;
  Printf.printf "acceptance: prepared NOTPM no worse than direct: %b\n"
    (prepared >= direct *. 0.95);
  record_json
    [
      ("workload", jstr "prepared_tpcc");
      ("regime", jstr "in_memory");
      ("tags", jint 2);
      ("txns", jint txns);
      ("notpm_direct", jfloat direct);
      ("notpm_prepared", jfloat prepared);
      ("notpm_ratio", jfloat (prepared /. direct));
      ("cache_hit_rate", jfloat tpcc_hit_rate);
      ("prepared_no_worse",
       if prepared >= direct *. 0.95 then "true" else "false");
      ("metrics", metrics_json ~txns pdb);
    ]

(* ------------------------------------------------------------------ *)
(* Span tracing: sampled-off overhead + commit-path wait attribution   *)
(* ------------------------------------------------------------------ *)

(* --trace-out PATH: where the spans experiment writes its TPC-C
   Chrome trace export (loadable in chrome://tracing / Perfetto). *)
let trace_out : string option ref = ref None

let spans_bench () =
  hr "Span tracing: sampled-off overhead and commit-path breakdown";
  (* same workload shape as prepared_micro, so us_sample_off is
     directly comparable to earlier BENCH_PR*.json prepared numbers
     (scripts/check_bench_trend.py does that comparison) *)
  let rows = if !quick then 500 else 1000 in
  let reps = if !quick then 1_500 else 8_000 in
  let _off_db, off_s = point_fixture ~rows () in
  let on_db, on_s = point_fixture ~trace_sample:32 ~rows () in
  let arg = [ Value.Int 500 ] in
  let arm s () =
    per_unit (fun () ->
        loop reps (fun () -> ignore (Db.execute_prepared s "pq" arg)))
    *. 1e6
  in
  let best = best_of ~warm:true ~rounds:5 [| arm off_s; arm on_s |] in
  let us_off = best.(0) and us_on = best.(1) in
  let overhead_on = (us_on /. us_off -. 1.0) *. 100.0 in
  Printf.printf
    "prepared point SELECT, %d reps (best of 5):\n\
     %-34s %10.2f us/op\n%-34s %10.2f us/op (%+.1f%%)\n"
    reps "sampling off (trace_sample=0)" us_off
    "sampling 1/32 (trace_sample=32)" us_on overhead_on;
  Printf.printf
    "sampled-off path cost: one atomic fetch-and-add per statement, no \
     clock reads; cross-PR <=5%% check against the pre-span baseline runs \
     in scripts/check_bench_trend.py\n";
  Printf.printf "sampled %d statement(s) into the on-run's ring\n"
    (Span.count (Db.spans on_db));
  record_json
    [
      ("workload", jstr "spans_micro");
      ("rows", jint rows);
      ("reps", jint reps);
      ("us_sample_off", jfloat us_off);
      ("us_sample_on", jfloat us_on);
      ("overhead_sampled_on_pct", jfloat overhead_on);
      ("sampled_records", jint (Span.count (Db.spans on_db)));
    ];
  (* --- TPC-C prepared run with sampling on: where does commit time
     go?  The span ring answers with real wait attribution. *)
  let txns = if !quick then 300 else 1500 in
  let config =
    { Tpcc.warehouses = 2; districts = 4; customers = 60; items = 400 }
  in
  let notpm, pdb =
    fig6_point ~prepared:true ~trace_sample:20 ~tags:2 ~capacity_pages:None
      ~txns ~config ~reps:2 ()
  in
  let sp = Db.spans pdb in
  let records = Span.recent sp (Span.capacity sp) in
  (* aggregate the per-record phase summaries over the whole ring *)
  let agg : (string, int * int) Hashtbl.t = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun r ->
      List.iter
        (fun (phase, count, ns) ->
          match Hashtbl.find_opt agg phase with
          | Some (c, t) -> Hashtbl.replace agg phase (c + count, t + ns)
          | None ->
              order := phase :: !order;
              Hashtbl.add agg phase (count, ns))
        (Span.summary r))
    records;
  let phases = List.rev !order in
  Printf.printf
    "\nTPC-C prepared, tags=2, %d txns, sampling 1/20: %.0f NOTPM, %d \
     sampled statement(s)\n"
    txns notpm (List.length records);
  List.iter
    (fun phase ->
      let count, ns = Hashtbl.find agg phase in
      Printf.printf "  %-14s %6d span(s) %12.3f ms total\n" phase count
        (float_of_int ns /. 1e6))
    phases;
  let breakdown =
    "{"
    ^ String.concat ", "
        (List.map
           (fun phase ->
             let _, ns = Hashtbl.find agg phase in
             Printf.sprintf "%S: %s" phase (jint ns))
           phases)
    ^ "}"
  in
  (match !trace_out with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      output_string oc (Span.to_chrome_json records);
      close_out oc;
      Printf.printf "wrote Chrome trace export to %s\n" path);
  record_json
    [
      ("workload", jstr "spans_tpcc");
      ("tags", jint 2);
      ("txns", jint txns);
      ("notpm", jfloat notpm);
      ("sampled_records", jint (List.length records));
      ("commit_breakdown_ns", breakdown);
      ("metrics", metrics_json ~txns pdb);
    ]

(* ------------------------------------------------------------------ *)
(* Microbenchmarks (bechamel)                                          *)
(* ------------------------------------------------------------------ *)

let micro () =
  hr "Microbenchmarks (bechamel; ns/op)";
  let open Bechamel in
  let lbl k = Label.of_ints (Array.init k (fun i -> (i * 13) + 1)) in
  let l3 = lbl 3 and l10 = lbl 10 in
  let db = Db.create () in
  let admin = Db.connect_admin db in
  let p = Db.create_principal admin ~name:"p" in
  let ps = Db.connect db ~principal:p in
  let tag = Db.create_tag ps ~name:"t" () in
  let auth = Db.authority db in
  ignore (Db.exec ps "CREATE TABLE M (k INT PRIMARY KEY, v INT)");
  ignore (Db.exec ps "BEGIN");
  for i = 1 to 1000 do
    ignore (Db.exec ps (Printf.sprintf "INSERT INTO M VALUES (%d, %d)" i i))
  done;
  ignore (Db.exec ps "COMMIT");
  let tests =
    [
      Test.make ~name:"label.subset(3,10)"
        (Staged.stage (fun () -> Label.subset l3 l10));
      Test.make ~name:"label.union(3,10)"
        (Staged.stage (fun () -> Label.union l3 l10));
      Test.make ~name:"authority.check"
        (Staged.stage (fun () -> Ifdb_difc.Authority.has_authority auth p tag));
      Test.make ~name:"parse simple select"
        (Staged.stage (fun () ->
             Ifdb_sql.Parser.parse_one "SELECT v FROM M WHERE k = 500"));
      Test.make ~name:"pk probe (end-to-end)"
        (Staged.stage (fun () -> Db.query ps "SELECT v FROM M WHERE k = 500"));
    ]
  in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:(Some 500) ()
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      let analyzed = Analyze.all ols instance results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] -> Printf.printf "%-28s %12.1f ns/op\n" name est
          | Some _ | None -> Printf.printf "%-28s (no estimate)\n" name)
        analyzed)
    tests

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let all =
  [ "fig3"; "fig4"; "fig5"; "sensor"; "fig6"; "ablations"; "labelcache";
    "parallel"; "writepath"; "views"; "obs"; "prepared"; "spans"; "micro" ]

let run_one = function
  | "fig3" -> fig3 ()
  | "fig4" -> fig4 ()
  | "fig5" -> fig5 ()
  | "sensor" -> sensor ()
  | "fig6" -> fig6 ()
  | "ablations" -> ablations ()
  | "labelcache" -> ablation_labelcache ()
  | "parallel" -> parallel_sweep ()
  | "writepath" -> writepath ()
  | "views" -> views ()
  | "obs" -> ablation_metrics ()
  | "prepared" -> prepared_bench ()
  | "spans" -> spans_bench ()
  | "micro" -> micro ()
  | other ->
      Printf.eprintf "unknown experiment %S (known: %s)\n" other
        (String.concat ", " all);
      exit 1

let () =
  let rec parse acc = function
    | [] -> List.rev acc
    | "--quick" :: rest ->
        quick := true;
        parse acc rest
    | "--json" :: path :: rest ->
        json_path := Some path;
        parse acc rest
    | [ "--json" ] ->
        Printf.eprintf "--json requires a path\n";
        exit 1
    | "--trace-out" :: path :: rest ->
        trace_out := Some path;
        parse acc rest
    | [ "--trace-out" ] ->
        Printf.eprintf "--trace-out requires a path\n";
        exit 1
    | a :: rest -> parse (a :: acc) rest
  in
  let args = parse [] (List.tl (Array.to_list Sys.argv)) in
  let chosen = if args = [] then all else args in
  let t0 = now () in
  List.iter run_one chosen;
  (match !json_path with Some path -> write_json path | None -> ());
  Printf.printf "\n(total bench wall time: %.1fs)\n" (now () -. t0)
