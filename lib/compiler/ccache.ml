module Chip = Cim_arch.Chip
module Faultmap = Cim_arch.Faultmap
module Mode = Cim_arch.Mode
module J = Cim_obs.Json

(* Canonical strings use %h for floats: exact binary64, stable across
   printers and processes. Versioned prefixes let a format change invalidate
   every old key at once instead of mis-parsing it. *)

let chip_canonical (c : Chip.t) =
  Printf.sprintf
    "chip.v1{name=%s;n_arrays=%d;grid_cols=%d;rows=%d;cols=%d;cell_bits=%d;\
     weight_bits=%d;buffer_bytes=%d;internal_bw=%h;extern_bw=%h;op_cim=%h;\
     d_cim=%h;l_m2c=%h;l_c2m=%h;write_latency=%h;switch_method=%s;freq_mhz=%h}"
    c.Chip.name c.Chip.n_arrays c.Chip.grid_cols c.Chip.rows c.Chip.cols
    c.Chip.cell_bits c.Chip.weight_bits c.Chip.buffer_bytes c.Chip.internal_bw
    c.Chip.extern_bw c.Chip.op_cim c.Chip.d_cim c.Chip.l_m2c c.Chip.l_c2m
    c.Chip.write_latency c.Chip.switch_method c.Chip.freq_mhz

let fault_canonical (c : Chip.coord) (f : Faultmap.fault) =
  let kind =
    match f with
    | Faultmap.Dead -> "dead"
    | Faultmap.Stuck_mode Mode.Compute -> "stuck=compute"
    | Faultmap.Stuck_mode Mode.Memory -> "stuck=memory"
    | Faultmap.Transient_switch_failure p -> Printf.sprintf "transient=%h" p
  in
  Printf.sprintf "(%d,%d):%s" c.Chip.x c.Chip.y kind

let faults_canonical = function
  | None -> "faults:none"
  | Some fm ->
    Printf.sprintf "faults.v1[%s]"
      (String.concat ";" (List.map (fun (c, f) -> fault_canonical c f)
                            (Faultmap.faults fm)))

let alloc_canonical (o : Alloc.options) =
  Printf.sprintf "alloc.v2{milp_max_nodes=%d;refine=%b;force_all_compute=%b}"
    o.Alloc.milp_max_nodes o.Alloc.refine o.Alloc.force_all_compute

(* --- per-segment tier ----------------------------------------------------- *)

let seg_tier = "seg"

let seg_key ~chip ~alloc ~signature =
  String.concat "\n"
    [ "seg.v1"; chip_canonical chip; alloc_canonical alloc; signature ]

let plan_to_json (p : Plan.seg_plan) =
  J.Obj
    [ ("lo", J.Int p.Plan.lo);
      ("hi", J.Int p.Plan.hi);
      ( "allocs",
        J.List
          (List.map
             (fun (a : Plan.op_alloc) ->
               J.List
                 [ J.Int a.Plan.uid; J.Int a.Plan.com; J.Int a.Plan.mem_in;
                   J.Int a.Plan.mem_out ])
             p.Plan.allocs) );
      ( "reuse",
        J.List
          (List.map (fun (i, j, r) -> J.List [ J.Int i; J.Int j; J.Int r ])
             p.Plan.reuse) ) ]

(* stored windows are anchored at [lo = 0], so one entry serves every
   position of an identical window *)
let seg_payload_to_string = function
  | None -> J.to_string (J.Obj [ ("infeasible", J.Bool true) ])
  | Some p ->
    J.to_string (J.Obj [ ("plan", plan_to_json (Plan.shift ~lo:0 p)) ])

let ( let* ) = Result.bind

let plan_of_json j =
  let ints = function
    | J.List xs ->
      let rec go acc = function
        | [] -> Some (List.rev acc)
        | J.Int i :: rest -> go (i :: acc) rest
        | _ -> None
      in
      go [] xs
    | _ -> None
  in
  match (J.member "lo" j, J.member "hi" j, J.member "allocs" j, J.member "reuse" j)
  with
  | Some (J.Int lo), Some (J.Int hi), Some (J.List allocs), Some (J.List reuse)
    ->
    let* allocs =
      List.fold_left
        (fun acc a ->
          let* acc = acc in
          match ints a with
          | Some [ uid; com; mem_in; mem_out ] ->
            Ok ({ Plan.uid; com; mem_in; mem_out } :: acc)
          | _ -> Error "malformed alloc quadruple")
        (Ok []) allocs
    in
    let* reuse =
      List.fold_left
        (fun acc r ->
          let* acc = acc in
          match ints r with
          | Some [ i; j; v ] -> Ok ((i, j, v) :: acc)
          | _ -> Error "malformed reuse triple")
        (Ok []) reuse
    in
    Ok
      { Plan.lo; hi; allocs = List.rev allocs; reuse = List.rev reuse;
        intra_cycles = 0. }
  | _ -> Error "missing or ill-typed plan field"

(* Shape validation + latency recomputation of a plan anchored at its own
   [lo..hi]: the cached entry only gets to pick WHICH feasible allocation is
   used; every derived number is recomputed by the live cost model. *)
let revalidate_plan ~chip ~(ops : Opinfo.t array) (p : Plan.seg_plan) =
  let lo = p.Plan.lo and hi = p.Plan.hi in
  if lo < 0 || hi >= Array.length ops || lo > hi then Error "bad plan window"
  else begin
    let n = hi - lo + 1 in
    if List.length p.Plan.allocs <> n then Error "wrong alloc count"
    else begin
      let uids_ok =
        List.for_all2
          (fun (a : Plan.op_alloc) expect -> a.Plan.uid = expect)
          p.Plan.allocs
          (List.init n (fun k -> lo + k))
      in
      if not uids_ok then Error "allocs out of uid order"
      else begin
        let alloc_of uid =
          List.find_opt (fun (a : Plan.op_alloc) -> a.Plan.uid = uid)
            p.Plan.allocs
        in
        let reuse_ok =
          List.for_all
            (fun (i, j, r) ->
              i >= lo && j > i && j <= hi && r >= 0
              && (match alloc_of i with
                 | Some a -> r <= a.Plan.mem_out
                 | None -> false)
              && match alloc_of j with
                 | Some a -> r <= a.Plan.mem_in
                 | None -> false)
            p.Plan.reuse
        in
        if not reuse_ok then Error "reuse triple out of range"
        else begin
          let intra =
            List.fold_left
              (fun acc (a : Plan.op_alloc) ->
                Float.max acc (Alloc.op_latency chip ops.(a.Plan.uid) a))
              0. p.Plan.allocs
          in
          let p = { p with Plan.intra_cycles = intra } in
          if Alloc.plan_feasible chip ops p then Ok p
          else Error "cached plan infeasible for the live chip"
        end
      end
    end
  end

let seg_payload_of_string ~chip ~ops ~lo ~hi s =
  if lo < 0 || hi >= Array.length ops || lo > hi then Error "bad window"
  else
    match J.of_string s with
    | exception J.Parse_error m -> Error ("unparseable payload: " ^ m)
    | j -> (
      match (J.member "infeasible" j, J.member "plan" j) with
      | Some (J.Bool true), _ -> Ok None
      | _, Some pj ->
        let* p = plan_of_json pj in
        if p.Plan.lo <> 0 || p.Plan.hi <> hi - lo then
          Error "plan window does not match the requested window"
        else
          let* p = revalidate_plan ~chip ~ops (Plan.shift ~lo p) in
          Ok (Some p)
      | _ -> Error "neither a plan nor an infeasibility verdict")

(* --- whole-program tier --------------------------------------------------- *)

let prog_tier = "prog"

let prog_key ?shape ~graph_text ~chip ~faults ~config ~passes () =
  String.concat "\n"
    [ "prog.v2"; chip_canonical chip; faults_canonical faults; config; passes;
      Option.value shape ~default:"shape:none";
      graph_text ]

let shape_fragment b ~ceil =
  Printf.sprintf "shape.v1(%s:ceil=%d)" (Bucket.canonical b) ceil

(* the digits between the fragment's last ":ceil=" and its closing paren,
   in the writer's exact form: positive, no sign, no leading zero *)
let ceiling_of_fragment s =
  let prefix = "shape.v1(" and tag = ":ceil=" in
  let n = String.length s and p = String.length prefix
  and t = String.length tag in
  if not (String.starts_with ~prefix s && String.ends_with ~suffix:")" s) then
    None
  else
    match String.rindex_opt s '=' with
    | Some i when i - t + 1 > p && String.sub s (i - t + 1) t = tag -> (
      let digits = String.sub s (i + 1) (n - i - 2) in
      match int_of_string_opt digits with
      | Some c when c > 0 && string_of_int c = digits -> Some c
      | Some _ | None -> None)
    | Some _ | None -> None

(* the shape fragment is the sixth line of a prog key *)
let bucket_ceiling key =
  match String.split_on_char '\n' key with
  | "prog.v2" :: _chip :: _faults :: _config :: _passes :: shape :: _ ->
    ceiling_of_fragment shape
  | _ -> None

type prog_payload = {
  segments : Plan.seg_plan list;
  cmsi_md5 : string;
  mip_solves : int;
  mip_cache_hits : int;
  candidates : int;
  pruned_infeasible : int;
  events : Degrade.event list;
}

let stage_to_tag = function
  | Degrade.Milp_optimal -> "milp_optimal"
  | Degrade.Milp_incumbent -> "milp_incumbent"
  | Degrade.Greedy_fallback -> "greedy_fallback"
  | Degrade.Serial_fallback -> "serial_fallback"

let stage_of_tag = function
  | "milp_optimal" -> Some Degrade.Milp_optimal
  | "milp_incumbent" -> Some Degrade.Milp_incumbent
  | "greedy_fallback" -> Some Degrade.Greedy_fallback
  | "serial_fallback" -> Some Degrade.Serial_fallback
  | _ -> None

let prog_payload_to_string p =
  J.to_string
    (J.Obj
       [ ("segments", J.List (List.map plan_to_json p.segments));
         ("cmsi_md5", J.String p.cmsi_md5);
         ("mip_solves", J.Int p.mip_solves);
         ("mip_cache_hits", J.Int p.mip_cache_hits);
         ("candidates", J.Int p.candidates);
         ("pruned_infeasible", J.Int p.pruned_infeasible);
         ( "events",
           J.List
             (List.map
                (fun (e : Degrade.event) ->
                  J.Obj
                    [ ("lo", J.Int e.Degrade.lo);
                      ("hi", J.Int e.Degrade.hi);
                      ("stage", J.String (stage_to_tag e.Degrade.stage));
                      ("detail", J.String e.Degrade.detail) ])
                p.events) ) ])

let prog_payload_of_string s =
  match J.of_string s with
  | exception J.Parse_error m -> Error ("unparseable payload: " ^ m)
  | j -> (
    let int k = match J.member k j with Some (J.Int i) -> Some i | _ -> None in
    match
      (J.member "segments" j, J.member "cmsi_md5" j, int "mip_solves",
       int "mip_cache_hits", int "candidates", int "pruned_infeasible",
       J.member "events" j)
    with
    | ( Some (J.List segs), Some (J.String cmsi_md5), Some mip_solves,
        Some mip_cache_hits, Some candidates, Some pruned_infeasible,
        Some (J.List events) ) ->
      let* segments =
        List.fold_left
          (fun acc sj ->
            let* acc = acc in
            let* p = plan_of_json sj in
            Ok (p :: acc))
          (Ok []) segs
      in
      let* events =
        List.fold_left
          (fun acc ej ->
            let* acc = acc in
            match
              (J.member "lo" ej, J.member "hi" ej, J.member "stage" ej,
               J.member "detail" ej)
            with
            | Some (J.Int lo), Some (J.Int hi), Some (J.String tag),
              Some (J.String detail) -> (
              match stage_of_tag tag with
              | Some stage -> Ok ({ Degrade.lo; hi; stage; detail } :: acc)
              | None -> Error ("unknown degradation stage " ^ tag))
            | _ -> Error "malformed degradation event")
          (Ok []) events
      in
      Ok
        { segments = List.rev segments; cmsi_md5; mip_solves;
          mip_cache_hits; candidates; pruned_infeasible;
          events = List.rev events }
    | _ -> Error "missing or ill-typed program payload field")
