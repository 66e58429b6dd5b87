type kind =
  | View_declassify
  | Closure_call
  | Delegate
  | Revoke
  | Write_rule_rejection
  | Commit_rejection
  | Clearance_raise
  | Session_declassify

let kind_name = function
  | View_declassify -> "view_declassify"
  | Closure_call -> "closure_call"
  | Delegate -> "delegate"
  | Revoke -> "revoke"
  | Write_rule_rejection -> "write_rule_rejection"
  | Commit_rejection -> "commit_rejection"
  | Clearance_raise -> "clearance_raise"
  | Session_declassify -> "session_declassify"

type event = {
  ev_seq : int;
  ev_kind : kind;
  ev_principal : string;
  ev_tags : string list;
  ev_stmt : string;
  ev_detail : string;
}

let event_to_string e =
  let tags =
    match e.ev_tags with
    | [] -> ""
    | ts -> Printf.sprintf " tags={%s}" (String.concat ", " ts)
  in
  let detail = if e.ev_detail = "" then "" else " " ^ e.ev_detail in
  let stmt = if e.ev_stmt = "" then "" else Printf.sprintf " stmt=[%s]" e.ev_stmt in
  Printf.sprintf "#%d %s principal=%s%s%s%s" e.ev_seq (kind_name e.ev_kind)
    e.ev_principal tags detail stmt

type t = { ring : event Ring.t; sink : (event -> unit) option }

let create ?sink () = { ring = Ring.create ~capacity:4096; sink }

let emit t ~kind ~principal ?(tags = []) ?(stmt = "") ?(detail = "") () =
  Ring.push t.ring (fun seq ->
      let e =
        {
          ev_seq = seq;
          ev_kind = kind;
          ev_principal = principal;
          ev_tags = tags;
          ev_stmt = stmt;
          ev_detail = detail;
        }
      in
      (match t.sink with Some f -> f e | None -> ());
      e)

let count t = Ring.count t.ring
let recent t n = Ring.recent t.ring n

let events t = List.rev (recent t max_int)

let count_kind t kind =
  List.length (List.filter (fun e -> e.ev_kind = kind) (events t))
