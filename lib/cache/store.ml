module J = Cim_obs.Json
module Metrics = Cim_obs.Metrics
module Trace = Cim_obs.Trace

let entry_version = 1

type counters = {
  hits : int;
  misses : int;
  invalid : int;
  puts : int;
}

let zero_counters = { hits = 0; misses = 0; invalid = 0; puts = 0 }

type mut_counters = {
  mutable c_hits : int;
  mutable c_misses : int;
  mutable c_invalid : int;
  mutable c_puts : int;
}

let fresh_mut () = { c_hits = 0; c_misses = 0; c_invalid = 0; c_puts = 0 }

let freeze (m : mut_counters) =
  { hits = m.c_hits; misses = m.c_misses; invalid = m.c_invalid;
    puts = m.c_puts }

let set_mut (m : mut_counters) (c : counters) =
  m.c_hits <- c.hits;
  m.c_misses <- c.misses;
  m.c_invalid <- c.invalid;
  m.c_puts <- c.puts

let add_counters a b =
  { hits = a.hits + b.hits; misses = a.misses + b.misses;
    invalid = a.invalid + b.invalid; puts = a.puts + b.puts }

let sub_counters a b =
  { hits = a.hits - b.hits; misses = a.misses - b.misses;
    invalid = a.invalid - b.invalid; puts = a.puts - b.puts }

type t = {
  root : string;
  mutex : Mutex.t;
  total : mut_counters;
  by_tier : (string, mut_counters) Hashtbl.t;
  (* the slice of [total]/[by_tier] already merged into counters.json:
     lifetime = file + (in-process - flushed) *)
  flushed_total : mut_counters;
  flushed_by_tier : (string, mut_counters) Hashtbl.t;
}

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir && parent <> "." then mkdir_p parent;
    try Sys.mkdir dir 0o755
    with Sys_error _ when Sys.is_directory dir -> ()
  end

let open_dir root =
  mkdir_p root;
  { root; mutex = Mutex.create (); total = fresh_mut ();
    by_tier = Hashtbl.create 4; flushed_total = fresh_mut ();
    flushed_by_tier = Hashtbl.create 4 }

let dir t = t.root

(* --- counters ------------------------------------------------------------ *)

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let tier_mut t tier =
  match Hashtbl.find_opt t.by_tier tier with
  | Some m -> m
  | None ->
    let m = fresh_mut () in
    Hashtbl.add t.by_tier tier m;
    m

let metric tier name = Metrics.counter (Printf.sprintf "cache.%s.%s" tier name)
let metric_total name = Metrics.counter ("cache." ^ name)

let bump ?by t tier f metric_name =
  locked t (fun () ->
      f t.total;
      f (tier_mut t tier));
  Metrics.incr ?by (metric_total metric_name);
  Metrics.incr ?by (metric tier metric_name)

let record_hit t tier = bump t tier (fun m -> m.c_hits <- m.c_hits + 1) "hits"

let unrecord_hit t tier =
  bump ~by:(-1.) t tier (fun m -> m.c_hits <- m.c_hits - 1) "hits"

let record_miss t tier = bump t tier (fun m -> m.c_misses <- m.c_misses + 1) "misses"

let record_invalid t tier =
  bump t tier (fun m -> m.c_invalid <- m.c_invalid + 1) "invalid"

let record_put t tier = bump t tier (fun m -> m.c_puts <- m.c_puts + 1) "puts"

let counters t = locked t (fun () -> freeze t.total)

let tier_counters t tier =
  locked t (fun () ->
      match Hashtbl.find_opt t.by_tier tier with
      | Some m -> freeze m
      | None -> zero_counters)

(* --- paths --------------------------------------------------------------- *)

let entry_path t ~tier ~key =
  Filename.concat (Filename.concat t.root tier)
    (Digest.to_hex (Digest.string key) ^ ".json")

let is_entry_file name = Filename.check_suffix name ".json"
let is_temp_file name = Filename.check_suffix name ".tmp"

let tier_dirs t =
  if Sys.file_exists t.root && Sys.is_directory t.root then
    Sys.readdir t.root |> Array.to_list
    |> List.filter (fun d -> Sys.is_directory (Filename.concat t.root d))
    |> List.sort compare
  else []

let entries_of_tier t tier =
  let d = Filename.concat t.root tier in
  if Sys.file_exists d && Sys.is_directory d then
    Sys.readdir d |> Array.to_list |> List.filter is_entry_file
    |> List.sort compare
    |> List.map (Filename.concat d)
  else []

let all_entries t =
  List.concat_map (fun tier -> entries_of_tier t tier) (tier_dirs t)

(* --- entry (de)serialisation --------------------------------------------- *)

let entry_to_string ~tier ~key ~payload =
  J.to_string
    (J.Obj
       [ ("version", J.Int entry_version);
         ("tier", J.String tier);
         ("key", J.String key);
         ("payload_md5", J.String (Digest.to_hex (Digest.string payload)));
         ("payload", J.String payload) ])

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Parse and integrity-check one entry file; [Ok (key, payload)] only when
   the digest matches. *)
let parse_entry src =
  match J.of_string src with
  | exception J.Parse_error m -> Error ("unparseable entry: " ^ m)
  | j -> (
    let str k = match J.member k j with Some (J.String s) -> Some s | _ -> None in
    match (J.member "version" j, str "tier", str "key", str "payload_md5",
           str "payload")
    with
    | Some (J.Int v), _, _, _, _ when v <> entry_version ->
      Error (Printf.sprintf "unsupported entry version %d" v)
    | Some (J.Int _), Some tier, Some key, Some md5, Some payload ->
      if Digest.to_hex (Digest.string payload) <> md5 then
        Error "payload digest mismatch (corrupted or truncated entry)"
      else Ok (tier, key, payload)
    | _ -> Error "missing or ill-typed entry field")

(* --- lifetime counters --------------------------------------------------- *)

let counters_path t = Filename.concat t.root "counters.json"

let counters_to_json (c : counters) =
  J.Obj
    [ ("hits", J.Int c.hits); ("misses", J.Int c.misses);
      ("invalid", J.Int c.invalid); ("puts", J.Int c.puts) ]

let counters_of_json j =
  let i k = match J.member k j with Some (J.Int n) when n >= 0 -> n | _ -> 0 in
  { hits = i "hits"; misses = i "misses"; invalid = i "invalid";
    puts = i "puts" }

(* A missing or damaged counters file reads as all-zero: lifetime stats are
   advisory and must never fail a cache operation. *)
let read_lifetime_file t =
  let path = counters_path t in
  if not (Sys.file_exists path) then (zero_counters, [])
  else
    match read_file path with
    | exception Sys_error _ -> (zero_counters, [])
    | src -> (
      match J.of_string src with
      | exception J.Parse_error _ -> (zero_counters, [])
      | j ->
        let total =
          match J.member "total" j with
          | Some o -> counters_of_json o
          | None -> zero_counters
        in
        let tiers =
          match J.member "tiers" j with
          | Some (J.Obj kvs) ->
            List.map (fun (k, v) -> (k, counters_of_json v)) kvs
          | _ -> []
        in
        (total, tiers))

let flush_counters t =
  locked t (fun () ->
      let delta_total = sub_counters (freeze t.total) (freeze t.flushed_total) in
      let tier_snap =
        Hashtbl.fold
          (fun tier m acc ->
            let cur = freeze m in
            let prev =
              match Hashtbl.find_opt t.flushed_by_tier tier with
              | Some f -> freeze f
              | None -> zero_counters
            in
            (tier, cur, sub_counters cur prev) :: acc)
          t.by_tier []
      in
      let file_total, file_tiers = read_lifetime_file t in
      let tier_names =
        List.sort_uniq compare
          (List.map fst file_tiers @ List.map (fun (n, _, _) -> n) tier_snap)
      in
      let new_tiers =
        List.map
          (fun n ->
            let from_file =
              Option.value (List.assoc_opt n file_tiers) ~default:zero_counters
            in
            let delta =
              match List.find_opt (fun (tn, _, _) -> tn = n) tier_snap with
              | Some (_, _, d) -> d
              | None -> zero_counters
            in
            (n, add_counters from_file delta))
          tier_names
      in
      let json =
        J.Obj
          [ ("version", J.Int 1);
            ("total", counters_to_json (add_counters file_total delta_total));
            ("tiers",
             J.Obj (List.map (fun (n, c) -> (n, counters_to_json c)) new_tiers))
          ]
      in
      match
        let tmp =
          Printf.sprintf "%s.%d.%d.tmp" (counters_path t) (Unix.getpid ())
            (Domain.self () :> int)
        in
        let oc = open_out_bin tmp in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () -> output_string oc (J.to_string json));
        Sys.rename tmp (counters_path t)
      with
      | () ->
        (* the file now covers everything counted so far; a failed write
           leaves [flushed_*] untouched so the delta is retried next time *)
        set_mut t.flushed_total (freeze t.total);
        List.iter
          (fun (tier, cur, _) ->
            let f =
              match Hashtbl.find_opt t.flushed_by_tier tier with
              | Some f -> f
              | None ->
                let f = fresh_mut () in
                Hashtbl.add t.flushed_by_tier tier f;
                f
            in
            set_mut f cur)
          tier_snap
      | exception (Sys_error _ | Unix.Unix_error _) -> ())

let lifetime_counters t =
  locked t (fun () ->
      let file_total, _ = read_lifetime_file t in
      add_counters file_total
        (sub_counters (freeze t.total) (freeze t.flushed_total)))

let lifetime_tier_counters t tier =
  locked t (fun () ->
      let _, file_tiers = read_lifetime_file t in
      let from_file =
        Option.value (List.assoc_opt tier file_tiers) ~default:zero_counters
      in
      let cur =
        match Hashtbl.find_opt t.by_tier tier with
        | Some m -> freeze m
        | None -> zero_counters
      in
      let flushed =
        match Hashtbl.find_opt t.flushed_by_tier tier with
        | Some m -> freeze m
        | None -> zero_counters
      in
      add_counters from_file (sub_counters cur flushed))

(* --- key enumeration ----------------------------------------------------- *)

let fold_keys t ~tier ~init ~f =
  let keys =
    List.filter_map
      (fun path ->
        match read_file path with
        | exception Sys_error _ -> None
        | src -> (
          match parse_entry src with
          | Ok (etier, key, _payload) when etier = tier -> Some key
          | Ok _ | Error _ -> None))
      (entries_of_tier t tier)
    |> List.sort compare
  in
  List.fold_left f init keys

(* --- find ---------------------------------------------------------------- *)

let find t ~tier ~key =
  Trace.with_span "cache.find" ~cat:"cache" ~args:[ ("tier", J.String tier) ]
  @@ fun () ->
  let path = entry_path t ~tier ~key in
  if not (Sys.file_exists path) then begin
    record_miss t tier;
    None
  end
  else
    let verdict =
      match read_file path with
      | exception Sys_error m -> Error ("unreadable entry: " ^ m)
      | src -> (
        match parse_entry src with
        | Error _ as e -> e
        | Ok (etier, ekey, payload) ->
          if etier <> tier || ekey <> key then
            Error "entry key does not match the requested key"
          else Ok payload)
    in
    match verdict with
    | Ok payload ->
      record_hit t tier;
      Some payload
    | Error _ ->
      (* a bad entry is a miss, loudly accounted; [verify] can still find
         and describe it on disk *)
      record_invalid t tier;
      record_miss t tier;
      None

(* [find] counted the entry as a hit; rejected, it becomes an invalid miss *)
let note_invalid t ~tier =
  unrecord_hit t tier;
  record_invalid t tier;
  record_miss t tier

(* --- put ------------------------------------------------------------------ *)

let file_size path = match (Unix.stat path).Unix.st_size with s -> s

let disk_bytes t =
  List.fold_left (fun acc p -> acc + try file_size p with Unix.Unix_error _ -> 0)
    0 (all_entries t)

(* the footprint stats every entry on disk, so it is walked only when the
   registry records the gauge *)
let record_footprint t =
  if Metrics.enabled () then
    Metrics.set_gauge (Metrics.gauge "cache.bytes") (float_of_int (disk_bytes t))

let put t ~tier ~key ~payload =
  Trace.with_span "cache.put" ~cat:"cache" ~args:[ ("tier", J.String tier) ]
  @@ fun () ->
  let path = entry_path t ~tier ~key in
  (try
     mkdir_p (Filename.dirname path);
     let tmp =
       Printf.sprintf "%s.%d.%d.tmp" path (Unix.getpid ())
         (Domain.self () :> int)
     in
     let oc = open_out_bin tmp in
     Fun.protect
       ~finally:(fun () -> close_out_noerr oc)
       (fun () -> output_string oc (entry_to_string ~tier ~key ~payload));
     Sys.rename tmp path;
     record_put t tier
   with Sys_error _ | Unix.Unix_error _ -> ());
  record_footprint t

(* --- maintenance --------------------------------------------------------- *)

type tier_stats = { tier : string; entries : int; bytes : int }

type disk_stats = { total_entries : int; total_bytes : int; tiers : tier_stats list }

let disk_stats t =
  let tiers =
    List.map
      (fun tier ->
        let files = entries_of_tier t tier in
        { tier;
          entries = List.length files;
          bytes =
            List.fold_left
              (fun a p -> a + try file_size p with Unix.Unix_error _ -> 0)
              0 files })
      (tier_dirs t)
  in
  { total_entries = List.fold_left (fun a s -> a + s.entries) 0 tiers;
    total_bytes = List.fold_left (fun a s -> a + s.bytes) 0 tiers;
    tiers }

let clear t =
  let removed = ref 0 in
  List.iter
    (fun tier ->
      let d = Filename.concat t.root tier in
      Array.iter
        (fun name ->
          let p = Filename.concat d name in
          if is_entry_file name then begin
            (try
               Sys.remove p;
               incr removed
             with Sys_error _ -> ())
          end
          else if is_temp_file name then try Sys.remove p with Sys_error _ -> ())
        (try Sys.readdir d with Sys_error _ -> [||]))
    (tier_dirs t);
  record_footprint t;
  !removed

let verify t =
  List.filter_map
    (fun path ->
      let problem =
        match read_file path with
        | exception Sys_error m -> Some ("unreadable: " ^ m)
        | src -> (
          match parse_entry src with
          | Error m -> Some m
          | Ok (tier, key, _payload) ->
            let expected = entry_path t ~tier ~key in
            if expected <> path then
              Some
                (Printf.sprintf
                   "entry key hashes to %s (file moved or key tampered)"
                   expected)
            else None)
      in
      Option.map (fun m -> (path, m)) problem)
    (all_entries t)
