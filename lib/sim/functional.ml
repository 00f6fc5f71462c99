module Chip = Cim_arch.Chip
module Flow = Cim_metaop.Flow
module Check = Cim_metaop.Check
module Graph = Cim_nnir.Graph
module Exec = Cim_nnir.Exec
module Attr = Cim_nnir.Attr
module Op = Cim_nnir.Op
module Tensor = Cim_tensor.Tensor
module Shape = Cim_tensor.Shape
module Ops = Cim_tensor.Ops
module Quant = Cim_tensor.Quant
module Kernels = Cim_tensor.Kernels
module Pool = Cim_util.Pool

type report = {
  outputs : (string * Tensor.t) list;
  reference : (string * Tensor.t) list;
  max_abs_err : float;
  max_rel_err : float;
  compute_instrs : int;
  vector_instrs : int;
  switches : int * int;
  switch_retries : int;
}

exception Error of string

let err fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

(* int8 matrix multiply as the compute array performs it, lifted back to
   float tensors; handles the batched layouts of Ops.matmul. *)
let qmatmul a b =
  let mm2 x y = Quant.dequantize (Quant.matmul (Quant.quantize x) (Quant.quantize y)) in
  match (Tensor.shape a, Tensor.shape b) with
  | [ _; _ ], [ _; _ ] -> mm2 a b
  | [ bd; m; k ], [ k'; n ] when k = k' ->
    let out = Tensor.zeros (Shape.of_list [ bd; m; n ]) in
    for bi = 0 to bd - 1 do
      let sub =
        Tensor.create (Shape.of_list [ m; k ]) (Array.sub (Tensor.data a) (bi * m * k) (m * k))
      in
      Array.blit (Tensor.data (mm2 sub b)) 0 (Tensor.data out) (bi * m * n) (m * n)
    done;
    out
  | [ bd; m; k ], [ bd'; k'; n ] when k = k' && bd = bd' ->
    let out = Tensor.zeros (Shape.of_list [ bd; m; n ]) in
    for bi = 0 to bd - 1 do
      let suba =
        Tensor.create (Shape.of_list [ m; k ]) (Array.sub (Tensor.data a) (bi * m * k) (m * k))
      in
      let subb =
        Tensor.create (Shape.of_list [ k; n ]) (Array.sub (Tensor.data b) (bi * k * n) (k * n))
      in
      Array.blit (Tensor.data (mm2 suba subb)) 0 (Tensor.data out) (bi * m * n) (m * n)
    done;
    out
  | sa, sb ->
    err "qmatmul: incompatible shapes %s x %s" (Shape.to_string sa) (Shape.to_string sb)

(* Evaluate a CIM node with int8 array arithmetic. A rejected operand (a
   NaN makes the quantisation scale NaN, which requantisation refuses)
   becomes an [Error] naming the node. *)
let quant_eval (nd : Graph.node) ins =
  try
    match (nd.Graph.op, ins) with
    | Op.Mat_mul, [ a; b ] | Op.Gemm, [ a; b ] -> qmatmul a b
    | Op.Gemm, [ a; b; bias ] -> Ops.add (qmatmul a b) bias
    | Op.Conv, ([ x; w ] | [ x; w; _ ]) ->
      let stride = Attr.get_int_d nd.attrs "stride" 1 in
      let pad = Attr.get_int_d nd.attrs "pad" 0 in
      let groups = Attr.get_int_d nd.attrs "groups" 1 in
      let bias = match ins with [ _; _; b ] -> Some b | _ -> None in
      Ops.conv2d_with ~matmul:qmatmul x ~weight:w ?bias ~stride ~pad ~groups ()
    | op, _ -> err "quant_eval: %s is not a CIM operator" (Op.to_string op)
  with Invalid_argument m -> err "node %s: %s" nd.Graph.name m

(* Interval set per node to check the sub-operator slices cover the whole
   output width. *)
type coverage = { width : int; mutable intervals : (int * int) list }

let covered cov =
  let merged =
    List.sort compare cov.intervals
    |> List.fold_left
         (fun acc (lo, hi) ->
           match acc with
           | (plo, phi) :: rest when lo <= phi -> (plo, max phi hi) :: rest
           | _ -> (lo, hi) :: acc)
         []
  in
  match merged with [ (0, hi) ] -> hi >= cov.width | _ -> false

(* The interpreter walks the program's instructions in order, the order a
   device-side sequencer drains the encoded command stream in. It trusts
   its program: [run] has already had [Check] accept it, so no block is
   nested in another. *)
let interpret pool chip ?faults ?rng ?max_switch_retries (g : Graph.t)
    (p : Flow.program) ~inputs =
  let env : (string, Tensor.t) Hashtbl.t = Hashtbl.create 64 in
  List.iter (fun (n, t) -> Hashtbl.replace env n t) inputs;
  List.iter
    (fun (i : Graph.initializer_) ->
      match i.Graph.value with
      | Some v -> Hashtbl.replace env i.Graph.init_name v
      | None -> err "initializer %s has no value" i.Graph.init_name)
    g.Graph.initializers;
  let lookup name =
    match Hashtbl.find_opt env name with
    | Some t -> t
    | None -> err "tensor %s used before it is computed" name
  in
  let node_of id =
    try Graph.find_node g id with Graph.Invalid m -> err "%s" m
  in
  let machine = Machine.create chip ?faults ?rng ?max_switch_retries () in
  let node_results : (int, Tensor.t) Hashtbl.t = Hashtbl.create 32 in
  let coverages : (int, coverage) Hashtbl.t = Hashtbl.create 32 in
  let computes = ref 0 and vectors = ref 0 in
  (* Wave pre-evaluation: before a [Parallel] block issues, evaluate its
     pending CIM nodes concurrently — one task per distinct node whose
     inputs are all available in [env] and not written by any instruction
     of this block (an op chained on a vector output inside the block must
     wait for the in-order issue). Inputs are snapshotted on the submitting
     domain before any task runs, tasks never touch [env] or the machine,
     and results (or exceptions) merge in submission order, so outputs,
     stats and error points are byte-identical to a serial run at any job
     count. *)
  let pre_results : (int, (Tensor.t, exn) result) Hashtbl.t = Hashtbl.create 32 in
  let pre_eval_block body =
    let written = Hashtbl.create 16 in
    List.iter
      (function
        | Flow.Vector_op { output; _ } | Flow.Compute { output; _ } ->
          Hashtbl.replace written output ()
        | _ -> ())
      body;
    let seen = Hashtbl.create 16 in
    let pending = ref [] in
    List.iter
      (function
        | Flow.Compute { node_id; _ }
          when (not (Hashtbl.mem node_results node_id))
               && (not (Hashtbl.mem pre_results node_id))
               && not (Hashtbl.mem seen node_id) -> begin
          Hashtbl.replace seen node_id ();
          match Graph.find_node g node_id with
          | exception Graph.Invalid _ -> ()
          | nd ->
            if
              List.for_all
                (fun nm -> Hashtbl.mem env nm && not (Hashtbl.mem written nm))
                nd.Graph.inputs
            then pending := (node_id, nd) :: !pending
        end
        | _ -> ())
      body;
    let tasks =
      List.rev_map
        (fun (node_id, (nd : Graph.node)) ->
          let ins = List.map (Hashtbl.find env) nd.Graph.inputs in
          (node_id, Pool.submit pool (fun () -> quant_eval nd ins)))
        !pending
    in
    List.iter
      (fun (node_id, fut) ->
        let r = match Pool.await fut with t -> Ok t | exception e -> Error e in
        Hashtbl.replace pre_results node_id r)
      tasks
  in
  let rec exec instr =
    Machine.exec machine instr;
    match instr with
    | Flow.Parallel body ->
      (* the block's wave is pre-evaluated, then its body issues in order *)
      pre_eval_block body;
      List.iter exec body
    | Flow.Switch _ | Flow.Write_weights _ | Flow.Store _ -> ()
    | Flow.Load { tensor; _ } -> ignore (lookup tensor)
    | Flow.Vector_op { node_id; inputs; output; _ } ->
      incr vectors;
      let nd = node_of node_id in
      let ins = List.map lookup inputs in
      Hashtbl.replace env output (Exec.eval_node nd ins)
    | Flow.Compute { node_id; output; slice = { Flow.lo; hi }; _ } ->
      incr computes;
      let nd = node_of node_id in
      (* full-node int8 result, computed once and shared by sub-operators *)
      let result =
        match Hashtbl.find_opt node_results node_id with
        | Some r -> r
        | None ->
          let r =
            match Hashtbl.find_opt pre_results node_id with
            | Some (Ok r) -> r
            | Some (Error e) -> raise e
            | None ->
              let ins = List.map lookup nd.Graph.inputs in
              quant_eval nd ins
          in
          Hashtbl.replace node_results node_id r;
          r
      in
      (* a Conv sub-operator slices output channels (axis 1 of NCHW) within
         each group, viewing that axis as [groups; oc / groups];
         matmul/gemm sub-operators slice the last (feature) axis *)
      let shape = Tensor.shape result in
      let axis, groups =
        match nd.Graph.op with
        | Op.Conv -> (1, Attr.get_int_d nd.Graph.attrs "groups" 1)
        | _ -> (Shape.rank shape - 1, 1)
      in
      let width = Shape.dim shape axis / groups in
      if lo < 0 || lo >= hi || hi > width then
        err "node %d: slice [%d,%d) is not inside its output width %d" node_id
          lo hi width;
      let cov =
        match Hashtbl.find_opt coverages node_id with
        | Some c -> c
        | None ->
          let c = { width; intervals = [] } in
          Hashtbl.replace coverages node_id c;
          c
      in
      cov.intervals <- (lo, hi) :: cov.intervals;
      (* publish the slice into the (possibly partial) output tensor *)
      let out =
        match Hashtbl.find_opt env output with
        | Some t when Shape.equal (Tensor.shape t) shape -> t
        | Some _ | None ->
          let t = Tensor.zeros shape in
          Hashtbl.replace env output t;
          t
      in
      let dims = Array.of_list shape in
      let inner = ref 1 in
      for a = axis + 1 to Array.length dims - 1 do
        inner := !inner * dims.(a)
      done;
      let outer = Tensor.numel result / (width * !inner) in
      let rd = Tensor.data result and od = Tensor.data out in
      for o = 0 to outer - 1 do
        let base = o * width * !inner in
        Array.blit rd (base + (lo * !inner)) od (base + (lo * !inner)) ((hi - lo) * !inner)
      done
  in
  List.iter exec p.Flow.instrs;
  (* every partitioned operator must have covered its full output width *)
  Hashtbl.iter
    (fun node_id cov ->
      if not (covered cov) then
        err "node %d: sub-operator slices do not cover its output" node_id)
    coverages;
  let outputs =
    List.map
      (fun o ->
        match Hashtbl.find_opt env o with
        | Some t -> (o, t)
        | None -> err "graph output %s was never produced" o)
      g.Graph.graph_outputs
  in
  let reference = Exec.run_outputs g inputs in
  let max_abs = ref 0. and max_rel = ref 0. in
  List.iter2
    (fun (_, sim) (_, ref_) ->
      let d = Tensor.max_abs_diff sim ref_ in
      let scale = Tensor.fold (fun acc x -> Float.max acc (Float.abs x)) 0. ref_ in
      max_abs := Float.max !max_abs d;
      if scale > 0. then max_rel := Float.max !max_rel (d /. scale))
    outputs reference;
  {
    outputs;
    reference;
    max_abs_err = !max_abs;
    max_rel_err = !max_rel;
    compute_instrs = !computes;
    vector_instrs = !vectors;
    switches = Machine.switch_counts machine;
    switch_retries = Machine.switch_retries machine;
  }

let run chip ?faults ?rng ?max_switch_retries ?jobs ?backend (g : Graph.t)
    (p : Flow.program) ~inputs =
  (match Check.run chip ?faults p with
  | [] -> ()
  | d :: _ -> err "invalid program: %s" (Check.diagnostic_to_string d));
  (* from inside a pool worker (e.g. a fleet prefetch task) degrade to
     serial instead of multiplying domains *)
  let jobs =
    if Pool.current_worker () <> None then 1
    else match jobs with Some j -> j | None -> Pool.default_jobs ()
  in
  let backend = match backend with Some b -> b | None -> Kernels.backend () in
  Pool.with_pool ~name:"funcsim" ~jobs (fun pool ->
      Kernels.with_pool (Some pool) (fun () ->
          Kernels.with_backend backend (fun () ->
              interpret pool chip ?faults ?rng ?max_switch_retries g p ~inputs)))

let digest r =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (name, t) ->
      Buffer.add_string buf name;
      Buffer.add_char buf '\000';
      Array.iter
        (fun x -> Buffer.add_int64_le buf (Int64.bits_of_float x))
        (Tensor.data t);
      Buffer.add_char buf '\n')
    r.outputs;
  let mc, cm = r.switches in
  Buffer.add_string buf
    (Printf.sprintf "stats:%d,%d,%d,%d,%d" r.compute_instrs r.vector_instrs mc
       cm r.switch_retries);
  Digest.to_hex (Digest.string (Buffer.contents buf))
