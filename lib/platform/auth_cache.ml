module Authority = Ifdb_difc.Authority
module Principal = Ifdb_difc.Principal
module Tag = Ifdb_difc.Tag
module Label = Ifdb_difc.Label

type stats = { hits : int; misses : int }

type t = {
  auth : Authority.t;
  entries : (int * int, bool) Hashtbl.t; (* (principal, tag) -> answer *)
  mutable valid_generation : int;
  mutable hits : int;
  mutable misses : int;
}

let create auth =
  {
    auth;
    entries = Hashtbl.create 256;
    valid_generation = Authority.generation auth;
    hits = 0;
    misses = 0;
  }

let has_authority t p tag =
  let g = Authority.generation t.auth in
  if g <> t.valid_generation then begin
    Hashtbl.reset t.entries;
    t.valid_generation <- g
  end;
  let key = (Principal.to_int p, Tag.to_int tag) in
  match Hashtbl.find_opt t.entries key with
  | Some answer ->
      t.hits <- t.hits + 1;
      answer
  | None ->
      t.misses <- t.misses + 1;
      let answer = Authority.has_authority t.auth p tag in
      Hashtbl.replace t.entries key answer;
      answer

let can_declassify_label t p label =
  Label.for_all (fun tag -> has_authority t p tag) label

let stats t = { hits = t.hits; misses = t.misses }

let reset_stats t =
  t.hits <- 0;
  t.misses <- 0

(* The core registers its own components' gauges; the platform cache
   lives a layer above the core, so it hooks itself in. *)
let register_metrics reg t =
  let c name help read =
    ignore (Ifdb_obs.Metrics.gauge reg ~help ~kind:`Counter name read)
  in
  c "ifdb_auth_cache_hits_total" "authority checks answered from the cache"
    (fun () -> float_of_int t.hits);
  c "ifdb_auth_cache_misses_total" "authority checks computed from state"
    (fun () -> float_of_int t.misses)
