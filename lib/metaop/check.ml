module Chip = Cim_arch.Chip
module Mode = Cim_arch.Mode
module Faultmap = Cim_arch.Faultmap

type severity = Error | Warning

type diagnostic = { severity : severity; instr : int; message : string }

let severity_to_string = function Error -> "error" | Warning -> "warning"

let diagnostic_to_string d =
  Printf.sprintf "%s at instr %d: %s" (severity_to_string d.severity) d.instr
    d.message

let errors ds = List.filter (fun d -> d.severity = Error) ds
let is_valid ds = errors ds = []

let coord_str (c : Chip.coord) = Printf.sprintf "(%d,%d)" c.Chip.x c.Chip.y

let run chip ?(initial_mode = Mode.Memory) ?faults (p : Flow.program) =
  let n = chip.Chip.n_arrays in
  let diags = ref [] in
  let idx = ref 0 in
  let add severity fmt =
    Printf.ksprintf
      (fun message -> diags := { severity; instr = !idx; message } :: !diags)
      fmt
  in
  (* per-array abstract state: current mode and resident weights (the
     node_id whose cells the array holds, if any) *)
  let mode =
    Array.init n (fun i ->
        match faults with
        | Some fm -> begin
          match Faultmap.fault_at fm i with
          | Some (Faultmap.Stuck_mode m) -> m
          | _ -> initial_mode
        end
        | None -> initial_mode)
  in
  let resident : int option array = Array.make n None in
  (* a coord is usable if it is on the grid and not dead; returns its
     index, or -1 off the grid. [ctx] names the instruction for a
     diagnostic; it is a thunk, so a clean program never formats it *)
  let check_array ctx c =
    match Chip.index_of_coord chip c with
    | exception Chip.Invalid_config _ ->
      add Error "%s: array %s outside the %s grid" (ctx ()) (coord_str c)
        chip.Chip.name;
      -1
    | i ->
      (match faults with
      | Some fm when Faultmap.is_dead fm i ->
        add Error "%s: dead array %s referenced" (ctx ()) (coord_str c)
      | _ -> ());
      i
  in
  let require m ctx cs =
    List.iter
      (fun c ->
        let i = check_array ctx c in
        if i >= 0 && mode.(i) <> m then
          add Error "%s: array %s is in %s mode, needs %s" (ctx ()) (coord_str c)
            (Mode.to_string mode.(i)) (Mode.to_string m))
      cs
  in
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
    then add Error "%s: tensor %s consumed before it is produced" (ctx ()) name
  in
  let rec walk = function
    | Flow.Switch { target; arrays } ->
      let tgt = Mode.apply target in
      List.iter
        (fun c ->
          let i = check_array (fun () -> "switch") c in
          if i >= 0 then begin
            let stuck =
              match faults with
              | Some fm -> begin
                match Faultmap.fault_at fm i with
                | Some (Faultmap.Stuck_mode m) ->
                  add Error "switch: array %s is stuck in %s mode" (coord_str c)
                    (Mode.to_string m);
                  true
                | _ -> false
              end
              | None -> false
            in
            if not stuck then begin
              if mode.(i) = tgt then
                add Warning "switch: array %s already in %s mode" (coord_str c)
                  (Mode.to_string tgt)
              else begin
                mode.(i) <- tgt;
                (* a compute array handed back to memory loses its weights *)
                if tgt = Mode.Memory then resident.(i) <- None
              end
            end
          end)
        arrays
    | Flow.Write_weights { label; node_id; arrays; _ } ->
      require Mode.Compute (fun () -> "write " ^ label) arrays;
      List.iter
        (fun c ->
          match Chip.index_of_coord chip c with
          | exception Chip.Invalid_config _ -> ()
          | i -> resident.(i) <- Some node_id)
        arrays
    | Flow.Load { tensor; src; dst; _ } ->
      let ctx () = "load " ^ tensor in
      use ctx tensor;
      let arrays_of = function
        | Flow.Mem_arrays cs -> cs
        | Flow.Main_memory | Flow.Buffer -> []
      in
      require Mode.Memory ctx (arrays_of src @ arrays_of dst);
      (* loading data into an array overwrites whatever weights it held *)
      List.iter
        (fun c ->
          match Chip.index_of_coord chip c with
          | exception Chip.Invalid_config _ -> ()
          | i -> resident.(i) <- None)
        (arrays_of dst)
    | Flow.Store { tensor; src; dst; _ } ->
      let ctx () = "store " ^ tensor in
      use ctx tensor;
      let arrays_of = function
        | Flow.Mem_arrays cs -> cs
        | Flow.Main_memory | Flow.Buffer -> []
      in
      require Mode.Memory ctx (arrays_of src @ arrays_of dst)
    | Flow.Compute { label; node_id; arrays; mem_arrays; inputs; output; _ } ->
      let ctx () = "compute " ^ label in
      require Mode.Compute ctx arrays;
      require Mode.Memory ctx mem_arrays;
      List.iter
        (fun c ->
          match Chip.index_of_coord chip c with
          | exception Chip.Invalid_config _ -> ()
          | i -> begin
            match resident.(i) with
            | Some id when id = node_id -> ()
            | Some id ->
              add Error "%s: array %s holds node %d's weights, needs node %d's"
                (ctx ()) (coord_str c) id node_id
            | None ->
              add Error "%s: array %s has no weights written" (ctx ()) (coord_str c)
          end)
        arrays;
      List.iter (use ctx) inputs;
      Hashtbl.replace available output ()
    | Flow.Vector_op { label; inputs; output; _ } ->
      List.iter (use (fun () -> "vector " ^ label)) inputs;
      Hashtbl.replace available output ()
    | Flow.Parallel is ->
      (* code generation orders the block topologically; walk it
         sequentially (Flow.validate separately enforces compute-xor-memory
         inside the block) *)
      List.iter walk is
  in
  List.iter
    (fun i ->
      walk i;
      incr idx)
    p.Flow.instrs;
  List.rev !diags
