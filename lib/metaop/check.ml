type diagnostic = { instr : int; message : string }

let diagnostic_to_string d = Printf.sprintf "error at instr %d: %s" d.instr d.message
let is_valid ds = ds = []

let run chip ?faults (p : Flow.program) =
  let st = Rules.create chip ?faults () in
  let diags = ref [] in
  let idx = ref 0 in
  let fail fmt =
    Printf.ksprintf
      (fun message -> diags := { instr = !idx; message } :: !diags)
      fmt
  in
  (* [ctx] names the instruction for a diagnostic; it is a thunk, so a
     clean program never formats it *)
  let report ctx = function None -> () | Some v -> fail "%s: %s" (ctx ()) v in
  (* liveness: names the program defines somewhere must be defined before
     use; names it never defines are external inputs and always live *)
  let defined_somewhere = Hashtbl.create 64 in
  let rec collect = function
    | Flow.Compute { output; _ } | Flow.Vector_op { output; _ } ->
      Hashtbl.replace defined_somewhere output ()
    | Flow.Parallel is -> List.iter collect is
    | Flow.Switch _ | Flow.Write_weights _ | Flow.Load _ | Flow.Store _ -> ()
  in
  List.iter collect p.Flow.instrs;
  let available = Hashtbl.create 64 in
  let use ctx name =
    if Hashtbl.mem defined_somewhere name && not (Hashtbl.mem available name)
    then fail "%s: tensor %s consumed before it is produced" (ctx ()) name
  in
  let slice ctx (s : Flow.slice) =
    if s.lo < 0 || s.hi <= s.lo then
      fail "%s: malformed slice [%d,%d)" (ctx ()) s.lo s.hi
  in
  let bytes ctx b = if b < 0 then fail "%s: negative byte count" (ctx ()) in
  let move ctx tensor src dst b =
    use ctx tensor;
    bytes ctx b;
    let access ~overwrite = function
      | Flow.Mem_arrays cs ->
        List.iter (fun c -> report ctx (Rules.access st c ~overwrite)) cs
      | Flow.Main_memory | Flow.Buffer -> ()
    in
    access ~overwrite:false src;
    access ~overwrite:true dst
  in
  (* A parallel block is one segment, walked in its (topological) order.
     With no switch inside it, every array keeps one mode across the
     block, so the per-instruction mode rules make it compute xor memory
     there (Eq. 5). *)
  let rec walk ~in_block = function
    | Flow.Switch { target; arrays } ->
      if in_block then fail "switch inside a parallel block";
      List.iter (fun c -> report (fun () -> "switch") (Rules.switch st target c)) arrays
    | Flow.Write_weights { label; node_id; arrays; slice = s; bytes = b; _ } ->
      let ctx () = "write " ^ label in
      slice ctx s;
      bytes ctx b;
      List.iter (fun c -> report ctx (Rules.write st c ~node_id)) arrays
    | Flow.Load { tensor; src; dst; bytes = b } -> move (fun () -> "load " ^ tensor) tensor src dst b
    | Flow.Store { tensor; src; dst; bytes = b } -> move (fun () -> "store " ^ tensor) tensor src dst b
    | Flow.Compute
        { label; node_id; arrays; mem_arrays; inputs; output; slice = s; macs; ai } ->
      let ctx () = "compute " ^ label in
      slice ctx s;
      if macs < 0. || ai < 0. then fail "%s: negative macs/ai" (ctx ());
      List.iter (fun c -> report ctx (Rules.compute st c ~node_id)) arrays;
      List.iter (fun c -> report ctx (Rules.access st c ~overwrite:false)) mem_arrays;
      List.iter (use ctx) inputs;
      Hashtbl.replace available output ()
    | Flow.Vector_op { label; inputs; output; _ } ->
      List.iter (use (fun () -> "vector " ^ label)) inputs;
      Hashtbl.replace available output ()
    | Flow.Parallel is ->
      if in_block then fail "nested parallel block";
      List.iter (walk ~in_block:true) is
  in
  List.iter
    (fun i ->
      walk ~in_block:false i;
      incr idx)
    p.Flow.instrs;
  List.rev !diags
