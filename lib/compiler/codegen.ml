module Graph = Cim_nnir.Graph
module Op = Cim_nnir.Op
module Shape = Cim_tensor.Shape
module Shape_infer = Cim_nnir.Shape_infer
module Flow = Cim_metaop.Flow
module Mode = Cim_arch.Mode

let generate _chip (g : Graph.t) (ops : Opinfo.t array) (places : Placement.seg_place list) =
  let shapes = Shape_infer.infer g in
  let bytes_of name = Shape.numel (Hashtbl.find shapes name) in
  (* last sub-operator uid of every CIM node *)
  let last_uid_of_node = Hashtbl.create 64 in
  Array.iter
    (fun (op : Opinfo.t) -> Hashtbl.replace last_uid_of_node op.Opinfo.node_id op.Opinfo.uid)
    ops;
  (* anchor every vector node at the max uid among its CIM ancestors *)
  let ancestors = Opinfo.node_cim_ancestors g in
  let anchor_of (nd : Graph.node) =
    let deps = Option.value (Hashtbl.find_opt ancestors nd.id) ~default:[] in
    List.fold_left
      (fun acc d ->
        match Hashtbl.find_opt last_uid_of_node d with
        | Some u -> max acc u
        | None -> acc)
      (-1) deps
  in
  let vector_nodes_at = Hashtbl.create 64 in
  List.iter
    (fun (nd : Graph.node) ->
      if not (Op.is_cim_supported nd.op) then begin
        let a = anchor_of nd in
        let existing = Option.value (Hashtbl.find_opt vector_nodes_at a) ~default:[] in
        Hashtbl.replace vector_nodes_at a (existing @ [ nd ])
      end)
    g.nodes;
  let vec_instr (nd : Graph.node) =
    Flow.Vector_op
      {
        label = nd.name;
        node_id = nd.id;
        inputs = nd.inputs;
        output = (match nd.outputs with [ o ] -> o | _ -> assert false);
      }
  in
  let preamble =
    List.map vec_instr (Option.value (Hashtbl.find_opt vector_nodes_at (-1)) ~default:[])
  in
  let arrays_or_buffer = function [] -> Flow.Buffer | cs -> Flow.Mem_arrays cs in
  let switch target arrays = if arrays = [] then [] else [ Flow.Switch { target; arrays } ] in
  let segment_instrs (sp : Placement.seg_place) =
    let body =
      List.concat_map
        (fun (opl : Placement.op_place) ->
          let info = ops.(opl.Placement.uid) in
          let slice = { Flow.lo = info.Opinfo.out_lo; hi = info.Opinfo.out_hi } in
          (* in-place arrays (§5.3) already hold the stationary data: the
             zero-byte write marks the relabel without streaming anything —
             the timing simulator charges nothing for it *)
          let fresh =
            if opl.Placement.in_place = [] then opl.Placement.compute
            else
              List.filter
                (fun c -> not (List.mem c opl.Placement.in_place))
                opl.Placement.compute
          in
          let write arrays bytes in_place =
            if arrays = [] then []
            else
              [ Flow.Write_weights
                  { label = info.Opinfo.label; node_id = info.Opinfo.node_id;
                    arrays; slice; bytes; in_place } ]
          in
          let write_list =
            write fresh
              (if fresh = [] then 0
               else
                 info.Opinfo.weight_bytes * List.length fresh
                 / List.length opl.Placement.compute)
              false
            @ write opl.Placement.in_place 0 true
          in
          let loads =
            let dst = arrays_or_buffer opl.Placement.mem_in in
            List.map
              (fun input ->
                Flow.Load
                  { tensor = input; src = Flow.Main_memory; dst; bytes = bytes_of input })
              info.Opinfo.inputs
          in
          let compute =
            Flow.Compute
              {
                label = info.Opinfo.label;
                node_id = info.Opinfo.node_id;
                arrays = opl.Placement.compute;
                mem_arrays = opl.Placement.mem_in @ opl.Placement.mem_out;
                inputs = info.Opinfo.inputs;
                output = info.Opinfo.output;
                slice;
                macs = info.Opinfo.macs;
                ai = info.Opinfo.ai;
              }
          in
          let store =
            Flow.Store
              {
                tensor = info.Opinfo.output;
                src = arrays_or_buffer opl.Placement.mem_out;
                dst = Flow.Main_memory;
                bytes = info.Opinfo.out_bytes;
              }
          in
          let vectors =
            List.map vec_instr
              (Option.value
                 (Hashtbl.find_opt vector_nodes_at opl.Placement.uid)
                 ~default:[])
          in
          write_list @ loads @ (compute :: store :: vectors))
        sp.Placement.ops
    in
    switch Mode.To_compute sp.Placement.to_compute
    @ switch Mode.To_memory sp.Placement.to_memory
    @ [ Flow.Parallel body ]
  in
  let final_stores =
    List.map
      (fun o ->
        Flow.Store
          { tensor = o; src = Flow.Buffer; dst = Flow.Main_memory; bytes = bytes_of o })
      g.graph_outputs
  in
  {
    Flow.source = g.graph_name;
    instrs = preamble @ List.concat_map segment_instrs places @ final_stores;
  }
