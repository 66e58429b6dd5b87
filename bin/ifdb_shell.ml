(* An interactive shell over IFDB, in the spirit of the modified psql
   the paper mentions (section 7.2): SQL statements plus backslash
   commands for the DIFC state.

     dune exec bin/ifdb_shell.exe            -- IFC on
     dune exec bin/ifdb_shell.exe -- --no-ifc
     echo "CREATE TABLE t (a INT); ..." | dune exec bin/ifdb_shell.exe

   Commands:
     \principal NAME         create/switch to principal NAME
     \newtag NAME [COMPOUND] create a tag owned by the current principal
     \addsecrecy NAME        raise the session label
     \declassify NAME        lower it (requires authority)
     \label                  show the session label
     \delegate TAG NAME      delegate TAG to principal NAME
     \revoke TAG NAME        revoke a delegation
     \tables                 list tables
     \views                  list views with materialization state
     \dt NAME                describe a table
     \check [SQL]            whole-script label-flow analysis (trace),
                             no execution.  \check alone reads a
                             multi-line script (statements and \meta
                             commands) until a lone \end
     \partitions [TABLE]     label partition directory (versions/live/pages)
     \vacuum                 reclaim dead versions
     \wal                    WAL and group-commit statistics
     \metrics [reset]        metrics registry in Prometheus text format
     \explain [analyze] SQL  plan tree / traced execution report
     \slow [N]               recent slow queries (enable with --slow-ms);
                             span-sampled entries include a phase breakdown
     \spans [N]              recent sampled statement span trees
                             (enable with --trace-sample)
     \trace-out FILE         write sampled spans as Chrome trace-event
                             JSON (chrome://tracing, Perfetto)
     \prepared               this session's prepared statements
     \audit [N]              recent IFC audit events
     \dump [TABLE]           label-preserving SQL dump (pg_dump analogue)
     \q                      quit
   Anything else is executed as SQL. *)

module Db = Ifdb_core.Database
module Errors = Ifdb_core.Errors
module Label = Ifdb_difc.Label
module Authority = Ifdb_difc.Authority
module Value = Ifdb_rel.Value
module Tuple = Ifdb_rel.Tuple
module Schema = Ifdb_rel.Schema
module Catalog = Ifdb_engine.Catalog
module Trace = Ifdb_obs.Trace
module Span = Ifdb_obs.Span
module Audit = Ifdb_obs.Audit

type state = {
  db : Db.t;
  mutable session : Db.session;
  input : prompt:string -> string option;
      (* read one more input line (used by multi-line \check) *)
}

let label_string st l =
  let auth = Db.authority st.db in
  match Label.to_list l with
  | [] -> "{}"
  | tags ->
      "{"
      ^ String.concat ", "
          (List.map
             (fun tag ->
               match Authority.tag_name auth tag with
               | "" -> Format.asprintf "%a" Ifdb_difc.Tag.pp tag
               | name -> name
               | exception Authority.Unknown _ ->
                   Format.asprintf "%a" Ifdb_difc.Tag.pp tag)
             tags)
      ^ "}"

let print_rows st columns tuples =
  let widths =
    List.mapi
      (fun i c ->
        List.fold_left
          (fun w row -> max w (String.length (Value.to_string (Tuple.get row i))))
          (String.length c) tuples)
      columns
  in
  let pad s w = s ^ String.make (max 0 (w - String.length s)) ' ' in
  print_endline
    (String.concat " | " (List.map2 pad columns widths) ^ " | _label");
  print_endline
    (String.concat "-+-" (List.map (fun w -> String.make w '-') widths) ^ "-+-------");
  List.iter
    (fun row ->
      let cells =
        List.mapi (fun i w -> pad (Value.to_string (Tuple.get row i)) w) widths
      in
      print_endline
        (String.concat " | " cells ^ " | " ^ label_string st (Tuple.label row)))
    tuples;
  Printf.printf "(%d row%s)\n" (List.length tuples)
    (if List.length tuples = 1 then "" else "s")

let run_sql st text =
  match Db.exec st.session text with
  | Db.Rows { columns = [ "QUERY PLAN" ]; tuples } ->
      (* EXPLAIN output: plain report lines, no table chrome or label
         column *)
      List.iter
        (fun row ->
          print_endline
            (match Tuple.get row 0 with
            | Value.Text s -> s
            | v -> Value.to_string v))
        tuples
  | Db.Rows { columns; tuples } -> print_rows st columns tuples
  | Db.Affected n -> Printf.printf "OK, %d row%s\n" n (if n = 1 then "" else "s")
  | Db.Done msg -> print_endline msg

let find_or_create_principal st name =
  match Db.find_principal st.db name with
  | p -> p
  | exception Authority.Unknown _ ->
      let admin = Db.connect_admin st.db in
      Printf.printf "(created principal %s)\n" name;
      Db.create_principal admin ~name

let run_command st line =
  let parts =
    String.split_on_char ' ' line |> List.filter (fun s -> s <> "")
  in
  match parts with
  | [ "\\q" ] -> raise Exit
  | [ "\\label" ] ->
      Printf.printf "principal=%s label=%s\n"
        (Authority.principal_name (Db.authority st.db)
           (Db.session_principal st.session))
        (label_string st (Db.session_label st.session))
  | [ "\\principal"; name ] ->
      let p = find_or_create_principal st name in
      st.session <- Db.connect st.db ~principal:p;
      Printf.printf "now acting as %s (fresh session, empty label)\n" name
  | "\\newtag" :: name :: rest ->
      let compounds =
        List.map (fun c -> Db.find_tag st.db c) rest
      in
      ignore (Db.create_tag st.session ~name ~compounds ());
      Printf.printf "created tag %s\n" name
  | [ "\\addsecrecy"; name ] ->
      Db.add_secrecy st.session (Db.find_tag st.db name);
      Printf.printf "label is now %s\n" (label_string st (Db.session_label st.session))
  | [ "\\declassify"; name ] ->
      Db.declassify st.session (Db.find_tag st.db name);
      Printf.printf "label is now %s\n" (label_string st (Db.session_label st.session))
  | [ "\\delegate"; tag; grantee ] ->
      Db.delegate st.session ~tag:(Db.find_tag st.db tag)
        ~grantee:(find_or_create_principal st grantee);
      Printf.printf "delegated %s to %s\n" tag grantee
  | [ "\\revoke"; tag; grantee ] ->
      Db.revoke st.session ~tag:(Db.find_tag st.db tag)
        ~grantee:(Db.find_principal st.db grantee);
      Printf.printf "revoked %s from %s\n" tag grantee
  | [ "\\tables" ] ->
      List.iter print_endline (Db.table_names st.db)
  | [ "\\views" ] -> (
      let module Ivm = Ifdb_engine.Ivm in
      match Catalog.all_views (Db.catalog st.db) with
      | [] -> print_endline "no views"
      | views ->
          let stats = Db.view_stats st.db in
          List.iter
            (fun (vw : Catalog.view) ->
              let flavor =
                match
                  ( Label.is_empty vw.Catalog.vw_declassify,
                    vw.Catalog.vw_relabel )
                with
                | true, [] -> ""
                | false, [] ->
                    Printf.sprintf " declassifying %s"
                      (label_string st vw.Catalog.vw_declassify)
                | _, _ -> " relabeling"
              in
              if not vw.Catalog.vw_materialized then
                Printf.printf "%s: plain%s\n" vw.Catalog.vw_name flavor
              else
                match
                  List.find_opt
                    (fun s ->
                      String.lowercase_ascii s.Ivm.vs_name
                      = String.lowercase_ascii vw.Catalog.vw_name)
                    stats
                with
                | None ->
                    Printf.printf "%s: materialized%s (not registered)\n"
                      vw.Catalog.vw_name flavor
                | Some s when not s.Ivm.vs_supported ->
                    Printf.printf
                      "%s: materialized%s, recompute-only (%s); %d \
                       recomputed read(s)\n"
                      vw.Catalog.vw_name flavor s.Ivm.vs_reason
                      s.Ivm.vs_recomputes
                | Some s ->
                    Printf.printf
                      "%s: materialized%s, %d row(s) in %d label \
                       partition(s)%s; %d delta(s) applied, %d refresh(es), \
                       %d read(s) served incrementally, %d recomputed\n"
                      vw.Catalog.vw_name flavor s.Ivm.vs_rows
                      s.Ivm.vs_partitions
                      (if s.Ivm.vs_stale then ", stale" else "")
                      s.Ivm.vs_deltas s.Ivm.vs_refreshes s.Ivm.vs_served
                      s.Ivm.vs_recomputes)
            views)
  | [ "\\dt"; name ] -> (
      match Catalog.find_table (Db.catalog st.db) name with
      | Some tbl ->
          Format.printf "%a@." Schema.pp tbl.Catalog.tbl_schema;
          List.iter
            (fun idx ->
              Printf.printf "  index %s%s\n" idx.Catalog.idx_name
                (if idx.Catalog.idx_unique then " (unique)" else ""))
            tbl.Catalog.tbl_indexes
      | None -> Printf.printf "no such table: %s\n" name)
  | "\\check" :: _ ->
      (* Reparse from the raw line: the SQL may contain runs of spaces. *)
      let text =
        String.trim (String.sub line 6 (String.length line - 6))
      in
      let text =
        if text <> "" then text
        else begin
          (* multi-line script (statements and \meta commands), read
             until a lone \end or EOF *)
          let b = Buffer.create 256 in
          let fin = ref false in
          while not !fin do
            match st.input ~prompt:"check> " with
            | None -> fin := true
            | Some l ->
                if String.trim l = "\\end" then fin := true
                else begin
                  Buffer.add_string b l;
                  Buffer.add_char b '\n'
                end
          done;
          Buffer.contents b
        end
      in
      if String.trim text = "" then
        print_endline
          "usage: \\check SQL  —  or \\check alone, then script lines \
           terminated by \\end"
      else begin
        (* whole-script trace analysis against the live session state;
           nothing executes *)
        let items = Db.check_script st.session text in
        let any = ref false in
        List.iter
          (fun (ck : Db.check_item) ->
            if ck.Db.ck_diags <> [] then begin
              any := true;
              Printf.printf "statement %d (line %d): %s\n" ck.Db.ck_index
                ck.Db.ck_line ck.Db.ck_text;
              List.iter
                (fun d ->
                  Printf.printf "  %s\n" (Ifdb_analysis.Diag.to_string d))
                ck.Db.ck_diags
            end)
          items;
        if not !any then print_endline "no issues found"
      end
  | "\\partitions" :: rest -> (
      let module Heap = Ifdb_storage.Heap in
      let module Label_store = Ifdb_difc.Label_store in
      let report =
        match rest with
        | [ table ] ->
            List.filter
              (fun tp ->
                String.lowercase_ascii tp.Db.tp_table
                = String.lowercase_ascii table)
              (Db.partition_report st.db)
        | _ -> Db.partition_report st.db
      in
      match report with
      | [] -> print_endline "no partitions (empty tables hold none)"
      | tables ->
          Printf.printf "%d partition(s) pruned from scans so far\n"
            (Db.partitions_pruned st.db);
          let lstore = Db.label_store st.db in
          List.iter
            (fun tp ->
              Printf.printf "%s:\n" tp.Db.tp_table;
              List.iter
                (fun ps ->
                  let label =
                    label_string st (Label_store.label_of lstore ps.Heap.ps_lid)
                  in
                  Printf.printf
                    "  %-24s %6d version(s) %6d live %5d page(s)\n" label
                    ps.Heap.ps_versions ps.Heap.ps_live ps.Heap.ps_pages)
                tp.Db.tp_stats)
            tables)
  | [ "\\vacuum" ] ->
      Printf.printf "vacuum removed %d dead version(s)\n" (Db.vacuum st.db)
  | [ "\\wal" ] -> (
      (* the same numbers every other consumer sees: read through the
         metrics registry instead of the component stat blocks *)
      let module Group_commit = Ifdb_txn.Group_commit in
      match Db.metrics_snapshot st.db with
      | [] -> print_endline "metrics registry is disabled"
      | snap ->
          let v name =
            match List.assoc_opt name snap with
            | Some f -> int_of_float f
            | None -> 0
          in
          Printf.printf
            "wal: %d records, %d bytes, %d fsyncs, %d simulated io ns\n"
            (v "ifdb_wal_records_total") (v "ifdb_wal_bytes_total")
            (v "ifdb_wal_fsyncs_total") (v "ifdb_wal_io_ns_total");
          Printf.printf
            "group commit: batch %d, %d commits in %d batches (largest %d), \
             %d pending\n"
            (Group_commit.batch (Db.group_commit st.db))
            (v "ifdb_group_commit_submitted_total")
            (v "ifdb_group_commit_batches_total")
            (v "ifdb_group_commit_max_batch")
            (v "ifdb_group_commit_pending"))
  | [ "\\metrics" ] -> print_string (Db.metrics_prometheus st.db)
  | [ "\\metrics"; "reset" ] ->
      Db.reset_stats st.db;
      print_endline "statistics reset"
  | "\\explain" :: _ ->
      (* Reparse from the raw line, like \check: the SQL keeps its
         internal spacing and the ANALYZE keyword stays part of it. *)
      let text = String.trim (String.sub line 8 (String.length line - 8)) in
      if text = "" then print_endline "usage: \\explain [analyze] SQL"
      else run_sql st ("EXPLAIN " ^ text)
  | "\\slow" :: rest -> (
      let n =
        match rest with
        | [ n ] -> Option.value (int_of_string_opt n) ~default:20
        | _ -> 20
      in
      match Db.slow_queries ~n st.db with
      | [] -> print_endline "slow-query log is empty (enable with --slow-ms)"
      | entries ->
          List.iter
            (fun e ->
              Printf.printf "#%d  %.3f ms  %d row(s)  %s\n" e.Trace.sq_seq
                (float_of_int e.Trace.sq_ns /. 1e6)
                e.Trace.sq_rows e.Trace.sq_sql;
              (* span-sampled entry: phase breakdown from its record,
                 if the span ring still holds it *)
              if e.Trace.sq_trace >= 0 then
                match Span.find (Db.spans st.db) e.Trace.sq_trace with
                | None -> Printf.printf "    (trace %d evicted)\n" e.Trace.sq_trace
                | Some r ->
                    List.iter
                      (fun (phase, count, ns) ->
                        Printf.printf "    %-14s %5d span(s)  %8.3f ms\n" phase
                          count
                          (float_of_int ns /. 1e6))
                      (Span.summary r))
            entries)
  | "\\spans" :: rest -> (
      let n =
        match rest with
        | [ n ] -> Option.value (int_of_string_opt n) ~default:5
        | _ -> 5
      in
      let sp = Db.spans st.db in
      match Span.recent sp n with
      | [] ->
          print_endline
            "span ring is empty (enable sampling with --trace-sample)"
      | records ->
          List.iter
            (fun r ->
              Printf.printf "trace %d  (%.3f ms total)\n" r.Span.r_id
                (float_of_int (Span.duration_ns r) /. 1e6);
              List.iter (fun l -> print_endline ("  " ^ l)) (Span.render r))
            records;
          Printf.printf "(%d sampled statement%s recorded in total)\n"
            (Span.count sp)
            (if Span.count sp = 1 then "" else "s"))
  | [ "\\trace-out"; file ] -> (
      let sp = Db.spans st.db in
      match Span.recent sp (Span.capacity sp) with
      | [] ->
          print_endline
            "span ring is empty (enable sampling with --trace-sample)"
      | records ->
          Out_channel.with_open_text file (fun oc ->
              Out_channel.output_string oc (Span.to_chrome_json records));
          Printf.printf
            "wrote %d trace(s) to %s (load in chrome://tracing or Perfetto)\n"
            (List.length records) file)
  | [ "\\prepared" ] -> (
      match Db.prepared_statements st.session with
      | [] -> print_endline "no prepared statements"
      | infos ->
          List.iter
            (fun (pi : Db.prepared_info) ->
              Printf.printf
                "%s (%d param%s): %s\n  %d cached-plan hit(s), %d plan(s); \
                 stamps: catalog v%d, authority gen %d\n"
                pi.Db.pi_name pi.Db.pi_nparams
                (if pi.Db.pi_nparams = 1 then "" else "s")
                pi.Db.pi_text pi.Db.pi_hits pi.Db.pi_plans pi.Db.pi_cat_version
                pi.Db.pi_generation)
            infos)
  | "\\audit" :: rest ->
      let n =
        match rest with
        | [ n ] -> Option.value (int_of_string_opt n) ~default:20
        | _ -> 20
      in
      let log = Db.audit_log st.db in
      (match Audit.recent log n with
      | [] -> print_endline "audit log is empty"
      | events ->
          List.iter (fun e -> print_endline (Audit.event_to_string e)) events);
      Printf.printf "(%d event%s recorded in total)\n" (Audit.count log)
        (if Audit.count log = 1 then "" else "s")
  | [ "\\dump" ] -> print_string (Ifdb_core.Dump.dump st.db)
  | [ "\\dump"; table ] -> print_string (Ifdb_core.Dump.dump_table st.db table)
  | cmd :: _ -> Printf.printf "unknown command %s\n" cmd
  | [] -> ()

let repl ~ifc ~parallelism ~commit_batch ~slow_ms ~trace_sample =
  let db =
    Db.create ~ifc ~parallelism ~commit_batch ?slow_query_ms:slow_ms
      ~trace_sample ()
  in
  let admin = Db.connect_admin db in
  let interactive = Unix.isatty Unix.stdin in
  let input ~prompt =
    if interactive then (print_string prompt; flush stdout);
    In_channel.input_line stdin
  in
  let st = { db; session = admin; input } in
  Printf.printf "IFDB shell (ifc %s%s). \\q quits, \\label shows the session label.\n"
    (if ifc then "on" else "off")
    (if parallelism > 1 then Printf.sprintf ", %d domains" parallelism else "");
  (try
     while true do
       match input ~prompt:"ifdb> " with
       | None -> raise Exit
       | Some line ->
           let line = String.trim line in
           if line = "" then ()
           else if String.length line > 0 && line.[0] = '\\' then (
             try run_command st line with
             | Errors.Flow_violation m -> Printf.printf "FLOW VIOLATION: %s\n" m
             | Errors.Authority_required m -> Printf.printf "DENIED: %s\n" m
             | Errors.Sql_error m | Authority.Unknown m ->
                 Printf.printf "ERROR: %s\n" m)
           else
             try run_sql st line with
             | Errors.Flow_violation m -> Printf.printf "FLOW VIOLATION: %s\n" m
             | Errors.Authority_required m -> Printf.printf "DENIED: %s\n" m
             | Errors.Constraint_violation m -> Printf.printf "CONSTRAINT: %s\n" m
             | Errors.Sql_error m -> Printf.printf "ERROR: %s\n" m
     done
   with Exit -> ());
  print_endline "bye."

open Cmdliner

let no_ifc =
  Arg.(value & flag & info [ "no-ifc" ] ~doc:"Run the baseline engine (no labels).")

let parallelism =
  Arg.(
    value & opt int 1
    & info [ "parallelism" ]
        ~doc:"Domains per query (morsel-parallel scans); 1 = serial.")

let commit_batch =
  Arg.(
    value & opt int 1
    & info [ "commit-batch" ]
        ~doc:
          "Group-commit coalescing degree: fsync the WAL once per N commit \
           records; 1 = every commit.")

let slow_ms =
  Arg.(
    value
    & opt (some float) None
    & info [ "slow-ms" ]
        ~doc:
          "Slow-query threshold in milliseconds: statements at or above it \
           land in the \\\\slow ring buffer.  Unset disables the log.")

let trace_sample =
  Arg.(
    value & opt int 0
    & info [ "trace-sample" ]
        ~doc:
          "Span-sample every Nth statement into the \\\\spans ring \
           (1 = every statement, 0 = off).  Export with \\\\trace-out.")

let cmd =
  let doc = "interactive shell over the IFDB engine" in
  Cmd.v
    (Cmd.info "ifdb_shell" ~doc)
    Term.(
      const (fun no_ifc parallelism commit_batch slow_ms trace_sample ->
          repl ~ifc:(not no_ifc) ~parallelism ~commit_batch ~slow_ms
            ~trace_sample)
      $ no_ifc $ parallelism $ commit_batch $ slow_ms $ trace_sample)

let () = exit (Cmd.eval cmd)
