module Db = Ifdb_core.Database
module Errors = Ifdb_core.Errors
module Web = Ifdb_platform.Web
module Process = Ifdb_platform.Process
module Label = Ifdb_difc.Label
module Tag = Ifdb_difc.Tag
module Principal = Ifdb_difc.Principal
module Value = Ifdb_rel.Value
module Tuple = Ifdb_rel.Tuple
module Gps = Ifdb_workload.Gps

type user = {
  uid : int;
  name : string;
  principal : Principal.t;
  drives_tag : Tag.t;
  location_tag : Tag.t;
}

type t = {
  db : Db.t;
  web : Web.t;
  sys : Db.session;
  all_drives : Tag.t;
  all_locations : Tag.t;
  stats_principal : Principal.t;
  users : user array;
  anonymous : Principal.t;
}

let ifc_on t = Db.ifc_enabled t.db

(* Raise the process label only when IFC is on; the baseline scripts
   (original CarTel) do no label manipulation at all. *)
let raise_if t proc tags = if ifc_on t then List.iter (Process.add_secrecy proc) tags

let release_if t proc = if ifc_on t then Process.release proc

let user t uid = t.users.(uid)

let schema_sql =
  [
    "CREATE TABLE Users (uid INT PRIMARY KEY, name TEXT NOT NULL, email TEXT)";
    "CREATE TABLE Cars (carid INT PRIMARY KEY, uid INT NOT NULL, make TEXT, \
     FOREIGN KEY (uid) REFERENCES Users (uid))";
    "CREATE TABLE Locations (carid INT NOT NULL, ts INT NOT NULL, lat FLOAT, \
     lng FLOAT, speed FLOAT, heading FLOAT, altitude FLOAT, hdop FLOAT, nsat \
     INT, fix TEXT)";
    "CREATE TABLE LocationsLatest (carid INT PRIMARY KEY, ts INT, lat FLOAT, \
     lng FLOAT)";
    "CREATE TABLE Drives (driveid INT PRIMARY KEY, carid INT NOT NULL, \
     start_ts INT, end_ts INT, dist FLOAT, start_lat FLOAT, start_lng FLOAT, \
     end_lat FLOAT, end_lng FLOAT)";
    "CREATE TABLE Friends (uid INT NOT NULL, friend_uid INT NOT NULL)";
    "CREATE INDEX locations_car ON Locations (carid, ts)";
    "CREATE INDEX drives_car ON Drives (carid, end_ts)";
    "CREATE INDEX cars_user ON Cars (uid)";
    "CREATE INDEX friends_uid ON Friends (uid)";
  ]

let fmt_query s fmt = Format.kasprintf (fun q -> Db.query s q) fmt
let fmt_exec s fmt = Format.kasprintf (fun q -> ignore (Db.exec s q)) fmt

(* --- drive segmentation trigger ----------------------------------- *)

(* Splitting the raw point stream into drives: a point more than
   [Gps.drive_gap_s] after the last drive's end starts a new drive.
   Runs as a deferred stored authority closure holding the location
   tags (via all-locations): it declassifies the location tag and
   writes {u-drives}-labeled rows, mirroring the paper's driveupdate()
   (sections 6.1, 8.2.2). *)
let driveupdate t s (ev : Db.trigger_event) =
  match ev.Db.ev_new with
  | None -> ()
  | Some row ->
      let carid = Value.to_int (Tuple.get row 0) in
      let ts = Value.to_int (Tuple.get row 1) in
      let speed = Value.to_float (Tuple.get row 4) in
      if ifc_on t then
        (* strip the location tags; the drives tags stay *)
        Label.iter
          (fun tag ->
            if
              Ifdb_difc.Authority.covers (Db.authority t.db)
                (Label.singleton t.all_locations) tag
            then Db.declassify s tag)
          (Db.session_label s);
      let last =
        fmt_query s
          "SELECT driveid, end_ts FROM Drives WHERE carid = %d ORDER BY \
           end_ts DESC LIMIT 1"
          carid
      in
      let extend =
        match last with
        | row :: _ ->
            let end_ts = Value.to_int (Tuple.get row 1) in
            if ts - end_ts <= Gps.drive_gap_s then
              Some (Value.to_int (Tuple.get row 0), end_ts)
            else None
        | [] -> None
      in
      (match extend with
      | Some (driveid, prev_end) ->
          let dt = float_of_int (ts - prev_end) in
          let dist_km = speed *. dt /. 3600.0 in
          let lat = Value.to_float (Tuple.get row 2) in
          let lng = Value.to_float (Tuple.get row 3) in
          fmt_exec s
            "UPDATE Drives SET end_ts = %d, dist = dist + %f, end_lat = %f, \
             end_lng = %f WHERE driveid = %d"
            ts dist_km lat lng driveid
      | None ->
          (* fresh drive; ids are derived from (car, ts) to stay unique *)
          let lat = Value.to_float (Tuple.get row 2) in
          let lng = Value.to_float (Tuple.get row 3) in
          fmt_exec s
            "INSERT INTO Drives VALUES (%d, %d, %d, %d, 0.0, %f, %f, %f, %f)"
            ((carid * 1_000_000_000) + ts)
            carid ts ts lat lng lat lng)

(* LocationsLatest keeps the current position per car; same label as
   the raw point, updated immediately. *)
let latestupdate _t s (ev : Db.trigger_event) =
  match ev.Db.ev_new with
  | None -> ()
  | Some row ->
      let carid = Value.to_int (Tuple.get row 0) in
      let ts = Value.to_int (Tuple.get row 1) in
      let lat = Value.to_float (Tuple.get row 2) in
      let lng = Value.to_float (Tuple.get row 3) in
      let updated =
        Db.insert_returning_count s
          (Printf.sprintf
             "UPDATE LocationsLatest SET ts = %d, lat = %f, lng = %f WHERE \
              carid = %d"
             ts lat lng carid)
      in
      if updated = 0 then
        fmt_exec s "INSERT INTO LocationsLatest VALUES (%d, %d, %f, %f)" carid
          ts lat lng

(* --- web scripts (Figure 3) ---------------------------------------- *)

let param params name = List.assoc_opt name params

let int_param params name =
  match param params name with
  | Some v -> ( match int_of_string_opt v with Some i -> Some i | None -> None)
  | None -> None

let owner_of_car (_ : Db.t) s carid =
  match
    fmt_query s "SELECT uid FROM Cars WHERE carid = %d" carid
  with
  | row :: _ -> Some (Value.to_int (Tuple.get row 0))
  | [] -> None
  | exception Errors.Sql_error _ -> None

(* raise for a target user's tags (both location and drives cover the
   raw/current tables) *)
let raise_for_user t proc uid ~location =
  let u = user t uid in
  raise_if t proc (if location then [ u.drives_tag; u.location_tag ] else [ u.drives_tag ])

let render_rows rows =
  String.concat "\n"
    (List.map
       (fun row ->
         String.concat "|"
           (List.map Value.to_string (Array.to_list (Tuple.values row))))
       rows)

(* get_cars.php / cars.php: current locations of the user's cars *)
let script_current_locations t ~authenticate proc params =
  let s = Process.session proc in
  let target =
    match int_param params "uid" with
    | Some uid -> uid
    | None -> Errors.sql "missing uid"
  in
  (* the authentication check the buggy scripts forgot *)
  if authenticate
     && not
          (Principal.equal (Process.principal proc) (user t target).principal)
  then Errors.flow "not logged in as user %d" target;
  raise_for_user t proc target ~location:true;
  let rows =
    fmt_query s
      "SELECT c.carid, l.ts, l.lat, l.lng FROM Cars c JOIN LocationsLatest l \
       ON l.carid = c.carid WHERE c.uid = %d"
      target
  in
  let body = render_rows rows in
  release_if t proc;
  body

(* drives.php: the drive log of a target user (self or friend) *)
let script_drives t ~authorize proc params =
  let s = Process.session proc in
  let me =
    match int_param params "uid" with Some u -> u | None -> Errors.sql "missing uid"
  in
  let target = match int_param params "target" with Some x -> x | None -> me in
  (* the authorization check whose absence was the paper's friend bug:
     the fixed script verifies friendship, the buggy one trusts the URL *)
  if authorize && target <> me then begin
    let friends =
      fmt_query s
        "SELECT COUNT(*) FROM Friends WHERE uid = %d AND friend_uid = %d"
        target me
    in
    match friends with
    | row :: _ when Value.to_int (Tuple.get row 0) > 0 -> ()
    | _ -> Errors.flow "user %d is not a friend of %d" me target
  end;
  raise_for_user t proc target ~location:false;
  let rows =
    fmt_query s
      "SELECT d.driveid, d.start_ts, d.end_ts, d.dist FROM Drives d JOIN Cars \
       c ON d.carid = c.carid WHERE c.uid = %d ORDER BY d.start_ts"
      target
  in
  let body = render_rows rows in
  release_if t proc;
  body

(* drives_top.php: aggregate driving patterns over everyone — runs as
   the stats authority closure (authoritative for all-drives) *)
let script_drives_top t proc _params =
  let s = Process.session proc in
  Db.with_principal s t.stats_principal (fun () ->
      raise_if t proc [ t.all_drives ];
      let rows =
        Db.query s
          "SELECT c.uid, COUNT(*) AS drives, SUM(d.dist) FROM Drives d JOIN \
           Cars c ON d.carid = c.carid GROUP BY c.uid ORDER BY drives DESC \
           LIMIT 10"
      in
      let body = render_rows rows in
      release_if t proc;
      body)

let script_friends t proc params =
  let s = Process.session proc in
  let me =
    match int_param params "uid" with Some u -> u | None -> Errors.sql "missing uid"
  in
  (match (param params "add", ifc_on t) with
  | Some f, _ -> (
      match int_of_string_opt f with
      | Some friend when friend >= 0 && friend < Array.length t.users ->
          fmt_exec s "INSERT INTO Friends VALUES (%d, %d)" me friend;
          (* the delegation that makes the drives visible *)
          if ifc_on t then
            Db.delegate s ~tag:(user t me).drives_tag
              ~grantee:(user t friend).principal
      | _ -> Errors.sql "bad friend id")
  | None, _ -> ());
  let rows = fmt_query s "SELECT friend_uid FROM Friends WHERE uid = %d" me in
  render_rows rows

let script_edit_account _t proc params =
  let s = Process.session proc in
  let me =
    match int_param params "uid" with Some u -> u | None -> Errors.sql "missing uid"
  in
  (match param params "email" with
  | Some email -> fmt_exec s "UPDATE Users SET email = '%s' WHERE uid = %d" email me
  | None -> ());
  render_rows (fmt_query s "SELECT name, email FROM Users WHERE uid = %d" me)

let script_login _t _proc _params = "welcome"

(* --- setup ---------------------------------------------------------- *)

let setup ?(ifc = true) ?(if_platform = true) ?(users = 8) ?(cars_per_user = 2)
    ?(capacity_pages = None) ?miss_cost_ns ?base_cost_ns () =
  let db = Db.create ~ifc ~capacity_pages ?miss_cost_ns () in
  let sys_session = Db.connect_admin db in
  let sysp = Db.create_principal sys_session ~name:"cartel-system" in
  let sys = Db.connect db ~principal:sysp in
  List.iter (fun q -> ignore (Db.exec sys q)) schema_sql;
  let all_drives = Db.create_tag sys ~name:"all_drives" () in
  let all_locations = Db.create_tag sys ~name:"all_locations" () in
  let anonymous = Db.create_principal sys ~name:"anonymous" in
  let mk_user uid =
    let name = Printf.sprintf "user%d" uid in
    let principal = Db.create_principal sys ~name in
    let user_session = Db.connect db ~principal in
    let drives_tag =
      Db.create_tag user_session
        ~name:(Printf.sprintf "%s_drives" name)
        ~compounds:[ all_drives ] ()
    in
    let location_tag =
      Db.create_tag user_session
        ~name:(Printf.sprintf "%s_location" name)
        ~compounds:[ all_locations ] ()
    in
    ignore
      (Db.exec sys
         (Printf.sprintf "INSERT INTO Users VALUES (%d, '%s', '%s@cartel')" uid
            name name));
    for c = 0 to cars_per_user - 1 do
      let carid = (uid * 100) + c in
      ignore
        (Db.exec sys
           (Printf.sprintf "INSERT INTO Cars VALUES (%d, %d, 'make%d')" carid
              uid (carid mod 7)))
    done;
    { uid; name; principal; drives_tag; location_tag }
  in
  let users = Array.init users mk_user in
  (* stats closure over everyone's drives *)
  let stats_principal =
    Db.closure_principal sys ~name:"traffic-stats" ~tags:[ all_drives ]
  in
  let t =
    {
      db;
      web = Web.create ~if_platform ?base_cost_ns db;
      sys;
      all_drives;
      all_locations;
      stats_principal;
      users;
      anonymous;
    }
  in
  (* the segmentation closure holds all-locations (it must read raw
     points and drop only the location tags) *)
  let drive_closure =
    Db.closure_principal sys ~name:"driveupdate" ~tags:[ all_locations ]
  in
  Db.create_trigger sys ~name:"driveupdate" ~table:"Locations"
    ~kinds:[ `Insert ] ~timing:`Deferred ~authority:drive_closure
    (driveupdate t);
  Db.create_trigger sys ~name:"latestupdate" ~table:"Locations"
    ~kinds:[ `Insert ] ~timing:`Immediate (latestupdate t);
  (* Figure 3 routes, plus deliberately buggy variants (section 6.1) *)
  Web.route t.web "login.php" (script_login t);
  Web.route t.web "get_cars.php" (script_current_locations t ~authenticate:true);
  Web.route t.web "cars.php" (script_current_locations t ~authenticate:true);
  Web.route t.web "drives.php" (script_drives t ~authorize:true);
  Web.route t.web "drives_top.php" (script_drives_top t);
  Web.route t.web "friends.php" (script_friends t);
  Web.route t.web "edit_account.php" (script_edit_account t);
  (* the bugs: no authentication / no authorization *)
  Web.route t.web "get_cars_noauth.php"
    (script_current_locations t ~authenticate:false);
  Web.route t.web "drives_noauthz.php" (script_drives t ~authorize:false);
  t

let befriend t ~owner ~friend =
  let s = Db.connect t.db ~principal:(user t owner).principal in
  ignore
    (Db.exec s (Printf.sprintf "INSERT INTO Friends VALUES (%d, %d)" owner friend));
  if ifc_on t then
    Db.delegate s ~tag:(user t owner).drives_tag ~grantee:(user t friend).principal

let ingest_batch t points =
  let owner_cache = Hashtbl.create 64 in
  let owner carid =
    match Hashtbl.find_opt owner_cache carid with
    | Some uid -> uid
    | None -> (
        match owner_of_car t.db t.sys carid with
        | Some uid ->
            Hashtbl.add owner_cache carid uid;
            uid
        | None -> invalid_arg (Printf.sprintf "no such car %d" carid))
  in
  let batches =
    let rec chunk acc cur n = function
      | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
      | p :: rest ->
          if n = 200 then chunk (List.rev cur :: acc) [ p ] 1 rest
          else chunk acc (p :: cur) (n + 1) rest
    in
    chunk [] [] 0 points
  in
  List.iter
    (fun batch ->
      ignore (Db.exec t.sys "BEGIN");
      List.iter
        (fun (p : Gps.point) ->
          let u = user t (owner p.Gps.car_id) in
          if ifc_on t then begin
            Db.add_secrecy t.sys u.drives_tag;
            Db.add_secrecy t.sys u.location_tag
          end;
          ignore
            (Db.exec t.sys
               (Printf.sprintf
                  "INSERT INTO Locations VALUES (%d, %d, %f, %f, %f, %f, \
                   %f, %f, %d, 'gps-3d')"
                  p.Gps.car_id p.Gps.ts p.Gps.lat p.Gps.lng p.Gps.speed
                  (Float.rem p.Gps.speed 360.0)
                  (10.0 +. Float.rem p.Gps.lat 50.0)
                  1.2
                  ((p.Gps.ts mod 6) + 6)));
          if ifc_on t then begin
            (* the trusted labeler drops its contamination between
               points; it owns no tags, but the ingest runs as the
               system principal which was delegated the compounds *)
            Db.declassify t.sys u.drives_tag;
            Db.declassify t.sys u.location_tag
          end)
        batch;
      ignore (Db.exec t.sys "COMMIT"))
    batches

let request t ~path ?user:uid ?(params = []) () =
  let principal =
    match uid with
    | Some uid -> (user t uid).principal
    | None -> t.anonymous
  in
  let params =
    match (uid, List.mem_assoc "uid" params) with
    | Some uid, false -> ("uid", string_of_int uid) :: params
    | _ -> params
  in
  Web.handle t.web ~path ~user:principal ~params

let drives_count t =
  let s = Db.connect t.db ~principal:t.stats_principal in
  if ifc_on t then Db.add_secrecy s t.all_drives;
  let row = Db.query_one s "SELECT COUNT(*) FROM Drives" in
  Value.to_int (Tuple.get row 0)

let locations_count t =
  (* raw points carry both compounds' members; the system session holds
     authority for both compounds *)
  let sys = t.sys in
  if ifc_on t then begin
    Db.add_secrecy sys t.all_drives;
    Db.add_secrecy sys t.all_locations
  end;
  let row = Db.query_one sys "SELECT COUNT(*) FROM Locations" in
  let n = Value.to_int (Tuple.get row 0) in
  if ifc_on t then begin
    Db.declassify sys t.all_drives;
    Db.declassify sys t.all_locations
  end;
  n
