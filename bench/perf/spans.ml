(* In-memory span recorder for traced runs. The benchmark wraps each call
   it makes into a library layer in a span (name, layer, start, end, parent
   span, request id); nothing inside lib/ is instrumented for it. Spans are
   written out as a Chrome trace when the run ends. Disabled, [with_] is a
   plain call. *)

type span = {
  id : int;
  parent : int;  (* -1 at the root *)
  name : string;
  layer : string;
  req : int;     (* request / op id, inherited from the parent *)
  t0 : float;
  mutable t1 : float;
}

let on = ref false
let recorded : span list ref = ref []
let stack : span list ref = ref []
let next_id = ref 0
let next_req = ref 0

let start () =
  recorded := [];
  stack := [];
  on := true

let stop () = on := false

let fresh_req () =
  incr next_req;
  !next_req

let with_ ?req ~layer name f =
  if not !on then f ()
  else begin
    let parent, inherited =
      match !stack with s :: _ -> (s.id, s.req) | [] -> (-1, -1)
    in
    incr next_id;
    let s =
      { id = !next_id; parent; name; layer;
        req = Option.value req ~default:inherited;
        t0 = Unix.gettimeofday (); t1 = nan }
    in
    stack := s :: !stack;
    recorded := s :: !recorded;
    Fun.protect f ~finally:(fun () ->
        s.t1 <- Unix.gettimeofday ();
        stack := List.tl !stack)
  end

let spans () = List.rev !recorded

(* Self time: a span's duration minus the part its children cover. *)
let self_times spans =
  let child = Hashtbl.create 256 in
  List.iter
    (fun s ->
      let d = s.t1 -. s.t0 in
      Hashtbl.replace child s.parent
        (d +. Option.value (Hashtbl.find_opt child s.parent) ~default:0.))
    spans;
  List.map
    (fun s ->
      let kids = Option.value (Hashtbl.find_opt child s.id) ~default:0. in
      (s, s.t1 -. s.t0 -. kids))
    spans

(* Total self seconds and call count per key. *)
let totals key spans =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (s, self) ->
      let k = key s in
      let t, n = Option.value (Hashtbl.find_opt tbl k) ~default:(0., 0) in
      Hashtbl.replace tbl k (t +. self, n + 1))
    (self_times spans);
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (_, (a, _)) (_, (b, _)) -> Float.compare b a)

let by_layer spans = totals (fun s -> s.layer) spans
let by_name spans = totals (fun s -> s.name) spans

let to_chrome spans =
  let module J = Cim_obs.Json in
  let base = match spans with s :: _ -> s.t0 | [] -> 0. in
  let us t = Float.round ((t -. base) *. 1e7) /. 10. in
  let event s =
    J.Obj
      [ ("name", J.String s.name); ("cat", J.String s.layer); ("ph", J.String "X");
        ("ts", J.Float (us s.t0)); ("dur", J.Float (us s.t1 -. us s.t0));
        ("pid", J.Int 1); ("tid", J.Int 1);
        ("args", J.Obj [ ("id", J.Int s.id); ("parent", J.Int s.parent); ("req", J.Int s.req) ]) ]
  in
  J.Obj [ ("traceEvents", J.List (List.map event spans)); ("displayTimeUnit", J.String "ms") ]

let write_chrome path spans =
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Cim_obs.Json.to_string (to_chrome spans)))

(* Self-time table per layer, as a share of [wall] seconds. *)
let pp_layers ppf ~wall spans =
  Format.fprintf ppf "%-10s %12s %8s %8s@." "layer" "self ms" "share" "spans";
  List.iter
    (fun (layer, (t, n)) ->
      Format.fprintf ppf "%-10s %12.1f %7.1f%% %8d@." layer (1e3 *. t)
        (100. *. t /. wall) n)
    (by_layer spans)
