module Graph = Cim_nnir.Graph
module Intensity = Cim_models.Intensity
module Shape = Cim_tensor.Shape
module Shape_infer = Cim_nnir.Shape_infer
module Attr = Cim_nnir.Attr
module Op = Cim_nnir.Op
module Chip = Cim_arch.Chip

type t = {
  uid : int;
  node_id : int;
  label : string;
  kind : Intensity.kind;
  macs : float;
  ai : float;
  in_bytes : int;
  out_bytes : int;
  weight_bytes : int;
  stationary_rows : int;
  stationary_cols : int;
  replicas : int;
  min_compute_arrays : int;
  out_lo : int;
  out_hi : int;
  inputs : string list;
  output : string;
  deps : int list;
}

exception Unsupported of string

let unsupported fmt = Printf.ksprintf (fun s -> raise (Unsupported s)) fmt

let ceil_div = Cim_util.Bytesize.ceil_div

let arrays_for (chip : Chip.t) ~rows ~cols ~replicas =
  if rows <= 0 || cols <= 0 || replicas <= 0 then
    invalid_arg "Opinfo.arrays_for: non-positive dimensions";
  ceil_div rows chip.rows * ceil_div cols (Chip.weight_cols chip) * replicas

(* Stationary-matrix geometry of a CIM node (Fig. 12): the matrix mapped
   onto the arrays, with [replicas] independent copies for batched matmuls
   and grouped convolutions. *)
let stationary_geometry (nd : Graph.node) shapes =
  let shape_of n = Hashtbl.find shapes n in
  match nd.Graph.op with
  | Op.Conv -> begin
    match (List.map shape_of nd.inputs, nd.inputs) with
    | ([ _x; [ oc; cg; kh; kw ] ] | [ _x; [ oc; cg; kh; kw ]; _ ]), _ ->
      let groups = Attr.get_int_d nd.attrs "groups" 1 in
      (cg * kh * kw, oc / groups, groups)
    | _ -> unsupported "node %s: malformed Conv" nd.name
  end
  | Op.Gemm | Op.Mat_mul -> begin
    match List.map shape_of nd.inputs with
    | [ _; [ k; n ] ] | [ _; [ k; n ]; _ ] -> (k, n, 1)
    | [ _; [ bd; k; n ] ] -> (k, n, bd)
    | _ -> unsupported "node %s: malformed MatMul/Gemm" nd.name
  end
  | op -> unsupported "node %s: %s is not CIM-supported" nd.name (Op.to_string op)

(* CIM producers of each CIM node, reached transitively through non-CIM
   nodes — the dependency relation w_{i,j} lifted over vector ops. *)
let cim_deps (g : Graph.t) =
  let producer_of = Hashtbl.create 64 in
  List.iter
    (fun (nd : Graph.node) ->
      List.iter (fun o -> Hashtbl.replace producer_of o nd) nd.outputs)
    g.nodes;
  let deps_of_node = Hashtbl.create 64 in
  (* nodes are topologically sorted, so producers are resolved first *)
  List.iter
    (fun (nd : Graph.node) ->
      let acc = Hashtbl.create 8 in
      let visit name =
        match Hashtbl.find_opt producer_of name with
        | None -> ()
        | Some (p : Graph.node) ->
          if Op.is_cim_supported p.op then Hashtbl.replace acc p.id ()
          else
            (* vector op: its CIM ancestry was already computed *)
            List.iter
              (fun d -> Hashtbl.replace acc d ())
              (Option.value (Hashtbl.find_opt deps_of_node p.id) ~default:[])
      in
      List.iter visit nd.inputs;
      Hashtbl.replace deps_of_node nd.id (List.of_seq (Hashtbl.to_seq_keys acc)))
    g.nodes;
  deps_of_node

(* Split one operator into sub-operators each needing at most [cap] arrays
   (§4.3.1's greedy partitioning, granularity set by on-chip resources).
   Splitting order: replica groups first (independent stationary matrices of
   batched matmuls / grouped convolutions), then output-column chunks, and
   only when a single column tile of one replica still exceeds the cap, row
   chunks (partial sums accumulated by the peripheral adder). *)
let partition chip ~cap (stats : Intensity.node_stats) ~rows ~cols ~replicas
    ~inputs ~output ~node_id =
  let aw = Chip.weight_cols chip in
  let rt = ceil_div rows chip.Chip.rows in
  let ct = ceil_div cols aw in
  let pieces = ref [] in
  (* fractions of the whole operator this piece carries *)
  let push ~arrays ~lo ~hi ~repl_frac ~row_frac ~label_suffix =
    let col_frac = float_of_int (hi - lo) /. float_of_int cols in
    let macs = stats.Intensity.macs *. repl_frac *. col_frac *. row_frac in
    let weight_bytes =
      stats.Intensity.weight_bytes *. repl_frac *. col_frac *. row_frac
    in
    let out_bytes = stats.Intensity.act_out_bytes *. repl_frac *. col_frac in
    (* each column chunk re-streams its replicas' whole input; row chunks
       read a fraction of it *)
    let in_bytes = stats.Intensity.act_in_bytes *. repl_frac *. row_frac in
    let traffic = in_bytes +. out_bytes +. weight_bytes in
    let ai = if traffic <= 0. then 1. else macs /. traffic in
    let label =
      if label_suffix = "" then stats.Intensity.node_name
      else stats.Intensity.node_name ^ label_suffix
    in
    pieces :=
      {
        uid = -1;
        node_id;
        label;
        kind = stats.Intensity.kind;
        macs;
        ai;
        in_bytes = int_of_float (Float.round in_bytes);
        out_bytes = int_of_float (Float.round out_bytes);
        weight_bytes = int_of_float (Float.round weight_bytes);
        stationary_rows = rows;
        stationary_cols = hi - lo;
        replicas;
        min_compute_arrays = arrays;
        out_lo = lo;
        out_hi = hi;
        inputs;
        output;
        deps = [];
      }
      :: !pieces
  in
  if rt * ct * replicas <= cap then
    (* fits whole *)
    push
      ~arrays:(rt * ct * replicas)
      ~lo:0 ~hi:cols ~repl_frac:1. ~row_frac:1. ~label_suffix:""
  else if rt * ct <= cap then begin
    (* replica groups, full columns each *)
    let per_chunk = max 1 (cap / (rt * ct)) in
    let r = ref 0 in
    while !r < replicas do
      let take = min per_chunk (replicas - !r) in
      push ~arrays:(rt * ct * take) ~lo:0 ~hi:cols
        ~repl_frac:(float_of_int take /. float_of_int replicas)
        ~row_frac:1.
        ~label_suffix:(Printf.sprintf "@r%d+%d" !r take);
      r := !r + take
    done
  end
  else if rt <= cap then begin
    (* one replica at a time, column chunks *)
    let tiles_wide = max 1 (cap / rt) in
    let chunk_cols = tiles_wide * aw in
    for r = 0 to replicas - 1 do
      let lo = ref 0 in
      while !lo < cols do
        let hi = min cols (!lo + chunk_cols) in
        let arrays = rt * ceil_div (hi - !lo) aw in
        let suffix =
          if replicas = 1 then Printf.sprintf "[%d:%d]" !lo hi
          else Printf.sprintf "@r%d[%d:%d]" r !lo hi
        in
        push ~arrays ~lo:!lo ~hi
          ~repl_frac:(1. /. float_of_int replicas)
          ~row_frac:1. ~label_suffix:suffix;
        lo := hi
      done
    done
  end
  else begin
    (* row chunks of single column tiles: partial sums *)
    let nparts = ceil_div rt cap in
    let arrays = ceil_div rt nparts in
    for r = 0 to replicas - 1 do
      let lo = ref 0 in
      while !lo < cols do
        let hi = min cols (!lo + aw) in
        for part = 1 to nparts do
          push ~arrays ~lo:!lo ~hi
            ~repl_frac:(1. /. float_of_int replicas)
            ~row_frac:(1. /. float_of_int nparts)
            ~label_suffix:
              (Printf.sprintf "@r%d[%d:%d]#%d/%d" r !lo hi part nparts)
        done;
        lo := hi
      done
    done
  end;
  List.rev !pieces

let extract chip ?(partition_fraction = 0.5) (g : Graph.t) =
  if not (partition_fraction > 0. && partition_fraction <= 1.) then
    invalid_arg "Opinfo.extract: partition_fraction must be in (0, 1]";
  let cap =
    max 1 (int_of_float (partition_fraction *. float_of_int chip.Chip.n_arrays))
  in
  let shapes = Shape_infer.infer g in
  let stats = Intensity.node_stats g in
  let deps_tbl = cim_deps g in
  let by_id = Hashtbl.create 64 in
  List.iter (fun (nd : Graph.node) -> Hashtbl.replace by_id nd.id nd) g.nodes;
  (* first pass: partition every CIM node *)
  let groups =
    List.map
      (fun (s : Intensity.node_stats) ->
        let nd = Hashtbl.find by_id s.Intensity.node_id in
        let rows, cols, replicas = stationary_geometry nd shapes in
        let dynamic_inputs =
          List.filter (fun n -> not (Graph.is_initializer g n)) nd.inputs
        in
        let output = match nd.outputs with [ o ] -> o | _ -> assert false in
        let pieces =
          partition chip ~cap s ~rows ~cols ~replicas ~inputs:dynamic_inputs
            ~output ~node_id:nd.id
        in
        (nd.id, pieces))
      stats
  in
  (* second pass: assign uids and resolve each node's deps from node ids
     to uids, once per node: its sub-operators share the list. Producers
     come first in topological order, so their uids are already known. *)
  let uids_of_node = Hashtbl.create 64 in
  let next = ref 0 in
  let resolve node_id =
    let dep_nodes = Option.value (Hashtbl.find_opt deps_tbl node_id) ~default:[] in
    List.concat_map
      (fun d -> Option.value (Hashtbl.find_opt uids_of_node d) ~default:[])
      dep_nodes
    |> List.sort_uniq Int.compare
  in
  List.concat_map
    (fun (node_id, pieces) ->
      let deps = resolve node_id in
      let pieces =
        List.map (fun p -> incr next; { p with uid = !next - 1; deps }) pieces
      in
      Hashtbl.replace uids_of_node node_id (List.map (fun p -> p.uid) pieces);
      pieces)
    groups
  |> Array.of_list

let node_cim_ancestors = cim_deps

let total_min_arrays ops ~lo ~hi =
  let acc = ref 0 in
  for i = lo to hi do
    acc := !acc + ops.(i).min_compute_arrays
  done;
  !acc
