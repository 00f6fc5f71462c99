module Tensor = Cim_tensor.Tensor
module Shape = Cim_tensor.Shape
module Ops = Cim_tensor.Ops

exception Error of string

let err fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

let eval_node (nd : Graph.node) ins =
  match (nd.op, ins) with
  | Op.Mat_mul, [ a; b ] -> Ops.matmul a b
  | Op.Gemm, [ a; b ] -> Ops.matmul a b
  | Op.Gemm, [ a; b; bias ] -> Ops.add (Ops.matmul a b) bias
  | Op.Conv, ([ x; w ] | [ x; w; _ ]) ->
    let stride = Attr.get_int_d nd.attrs "stride" 1 in
    let pad = Attr.get_int_d nd.attrs "pad" 0 in
    let groups = Attr.get_int_d nd.attrs "groups" 1 in
    let bias = match ins with [ _; _; b ] -> Some b | _ -> None in
    Ops.conv2d x ~weight:w ?bias ~stride ~pad ~groups ()
  | Op.Relu, [ x ] -> Ops.relu x
  | Op.Clip, [ x ] ->
    Ops.clip x
      ~lo:(Attr.get_float_d nd.attrs "min" neg_infinity)
      ~hi:(Attr.get_float_d nd.attrs "max" infinity)
  | Op.Gelu, [ x ] -> Ops.gelu x
  | Op.Silu, [ x ] -> Ops.silu x
  | Op.Softmax, [ x ] -> Ops.softmax x
  | Op.Layer_norm, [ x; g; b ] -> Ops.layernorm x ~gamma:g ~beta:b
  | Op.Rms_norm, [ x; g ] -> Ops.rmsnorm x ~gamma:g
  | Op.Add, [ a; b ] -> Ops.add a b
  | Op.Mul, [ a; b ] -> Ops.mul a b
  | Op.Max_pool, [ x ] ->
    let k = Attr.get_int_d nd.attrs "k" 2 in
    let stride = Attr.get_int_d nd.attrs "stride" k in
    let pad = Attr.get_int_d nd.attrs "pad" 0 in
    Ops.maxpool2d x ~k ~stride ~pad ()
  | Op.Avg_pool, [ x ] ->
    let k = Attr.get_int_d nd.attrs "k" 2 in
    let stride = Attr.get_int_d nd.attrs "stride" k in
    let pad = Attr.get_int_d nd.attrs "pad" 0 in
    Ops.avgpool2d x ~k ~stride ~pad ()
  | Op.Global_avg_pool, [ x ] -> Ops.avgpool_global x
  | Op.Reshape, [ x ] -> begin
    match Attr.get_ints nd.attrs "shape" with
    | None -> err "node %s: Reshape missing shape" nd.name
    | Some dims ->
      let shapes = Shape_infer.output_shape nd.op nd.attrs [ Tensor.shape x ] in
      ignore dims;
      Tensor.reshape x (List.hd shapes)
  end
  | Op.Transpose, [ x ] -> begin
    match Attr.get_ints nd.attrs "perm" with
    | None -> err "node %s: Transpose missing perm" nd.name
    | Some perm -> Ops.permute x perm
  end
  | Op.Concat, [ a; b ] ->
    Ops.concat a b ~axis:(Attr.get_int_d nd.attrs "axis" 0)
  | Op.Embedding, [ ids; w ] -> begin
    match Tensor.shape w with
    | [ vocab; d ] ->
      let out_shape = Shape.of_list (Tensor.shape ids @ [ d ]) in
      let wd = Tensor.data w in
      let out = Array.create_float (Shape.numel out_shape) in
      Array.iteri
        (fun p id ->
          let row = int_of_float id in
          if row < 0 || row >= vocab then err "node %s: id out of vocab" nd.name;
          Array.blit wd (row * d) out (p * d) d)
        (Tensor.data ids);
      Tensor.create out_shape out
    | _ -> err "node %s: Embedding weight not [vocab;d]" nd.name
  end
  | op, ins ->
    err "node %s: %s applied to %d inputs" nd.name (Op.to_string op)
      (List.length ins)

let run (g : Graph.t) inputs =
  let env = Hashtbl.create 128 in
  List.iter
    (fun (name, shape) ->
      match List.assoc_opt name inputs with
      | Some t ->
        if not (Shape.equal (Tensor.shape t) shape) then
          err "input %s: expected %s, got %s" name (Shape.to_string shape)
            (Shape.to_string (Tensor.shape t));
        Hashtbl.replace env name t
      | None -> err "missing graph input %s" name)
    g.graph_inputs;
  List.iter
    (fun (i : Graph.initializer_) ->
      match i.value with
      | Some v -> Hashtbl.replace env i.init_name v
      | None -> err "initializer %s has no value (not executable)" i.init_name)
    g.initializers;
  List.iter
    (fun (nd : Graph.node) ->
      let ins =
        List.map
          (fun n ->
            match Hashtbl.find_opt env n with
            | Some t -> t
            | None -> err "node %s: input %s not computed" nd.name n)
          nd.inputs
      in
      let out = eval_node nd ins in
      match nd.outputs with
      | [ o ] -> Hashtbl.replace env o out
      | _ -> err "node %s: multi-output nodes unsupported" nd.name)
    g.nodes;
  env

let run_outputs g inputs =
  let env = run g inputs in
  List.map (fun o -> (o, Hashtbl.find env o)) g.graph_outputs
