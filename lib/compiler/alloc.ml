module Chip = Cim_arch.Chip
module Cost = Cim_arch.Cost
module Model = Cim_solver.Model

type options = {
  milp_max_nodes : int;
  refine : bool;
  force_all_compute : bool;
}

let default_options =
  { milp_max_nodes = 600; refine = true; force_all_compute = false }

let ceil_div = Cim_util.Bytesize.ceil_div

let op_latency chip (op : Opinfo.t) (a : Plan.op_alloc) =
  Cost.op_latency chip ~ops:op.Opinfo.macs ~ai:op.Opinfo.ai ~com:a.Plan.com
    ~mem:(Plan.mem_of a)

(* Upper bound on the throughput variable z = 1 / (segment latency):
   every operator is limited by the whole chip's compute rate and by the
   whole chip's memory rate. *)
let z_upper chip (ops : Opinfo.t array) ~lo ~hi =
  let n = chip.Chip.n_arrays in
  let best = ref infinity in
  for i = lo to hi do
    let op = ops.(i) in
    if op.Opinfo.macs > 0. then begin
      let c = Cost.compute_rate chip ~com:n /. op.Opinfo.macs in
      let m = Cost.memory_rate chip ~mem:n *. op.Opinfo.ai /. op.Opinfo.macs in
      best := Float.min !best (Float.min c m)
    end
  done;
  if !best = infinity then 1. else !best

(* Dependency pairs (producer, consumer) inside the segment, for Eq. 6. *)
let segment_deps (ops : Opinfo.t array) ~lo ~hi =
  let pairs = ref [] in
  for j = lo to hi do
    List.iter
      (fun d -> if d >= lo && d < j then pairs := (d, j) :: !pairs)
      ops.(j).Opinfo.deps
  done;
  List.rev !pairs

type vars = {
  v_com : (int, Model.var) Hashtbl.t;
  v_min : (int, Model.var) Hashtbl.t;
  v_mout : (int, Model.var) Hashtbl.t;
  v_reuse : (int * int, Model.var) Hashtbl.t;
}

(* Build the MILP (shared by the optimise and refine phases). Returns the
   model, its variables, and the throughput variable z. *)
let build ~options chip (ops : Opinfo.t array) ~lo ~hi ~z_ub =
  let n_cim = chip.Chip.n_arrays in
  let row_bytes = max 1 (chip.Chip.cols * chip.Chip.cell_bits / 8) in
  let array_bytes = Chip.array_mem_bytes chip in
  let m = Model.create ~name:(Printf.sprintf "segment_%d_%d" lo hi) () in
  let z = Model.add_var m ~lb:0. ~ub:z_ub "z" in
  let vars =
    { v_com = Hashtbl.create 16; v_min = Hashtbl.create 16;
      v_mout = Hashtbl.create 16; v_reuse = Hashtbl.create 16 }
  in
  for i = lo to hi do
    let op = ops.(i) in
    let com =
      Model.add_var m
        ~lb:(float_of_int op.Opinfo.min_compute_arrays)
        ~ub:(float_of_int n_cim) ~integer:true
        (Printf.sprintf "com_%d" i)
    in
    (* memory arrays are banks streaming this operator's traffic; more banks
       than one row of data each is useless, which bounds the search *)
    let mem_cap side_bytes =
      if options.force_all_compute then 0.
      else
        float_of_int
          (min n_cim (ceil_div (max 1 side_bytes) row_bytes))
    in
    let min_ =
      Model.add_var m ~lb:0.
        ~ub:(mem_cap (op.Opinfo.in_bytes + op.Opinfo.weight_bytes))
        ~integer:true
        (Printf.sprintf "min_%d" i)
    in
    let mout =
      Model.add_var m ~lb:0. ~ub:(mem_cap op.Opinfo.out_bytes) ~integer:true
        (Printf.sprintf "mout_%d" i)
    in
    Hashtbl.replace vars.v_com i com;
    Hashtbl.replace vars.v_min i min_;
    Hashtbl.replace vars.v_mout i mout;
    if op.Opinfo.macs > 0. then begin
      (* compute-rate side of Eq. 10 *)
      Model.add_ge m
        [ (chip.Chip.op_cim, com); (-.op.Opinfo.macs, z) ]
        0.;
      (* memory-rate side of Eq. 10: (Mem*D_cim + D_main) * AI >= OP * z *)
      let dterm = chip.Chip.d_cim *. op.Opinfo.ai in
      Model.add_ge m
        [ (dterm, min_); (dterm, mout); (-.op.Opinfo.macs, z) ]
        (-.(Chip.d_main chip *. op.Opinfo.ai))
    end
  done;
  (* Eq. 6: reuse of output buffers as the consumer's input buffers. *)
  let deps = segment_deps ops ~lo ~hi in
  List.iter
    (fun (i, j) ->
      let cap =
        ceil_div
          (max 1 (min ops.(i).Opinfo.out_bytes ops.(j).Opinfo.in_bytes))
          array_bytes
      in
      let r =
        Model.add_var m ~lb:0. ~ub:(float_of_int cap) ~integer:true
          (Printf.sprintf "reuse_%d_%d" i j)
      in
      Hashtbl.replace vars.v_reuse (i, j) r)
    deps;
  (* Eq. 6 strengthened to sums so the placement pass can realise the
     sharing physically: a producer's output buffers bound everything it
     shares out, a consumer's input buffers bound everything it takes in. *)
  let group select var_of =
    let tbl = Hashtbl.create 8 in
    Hashtbl.iter
      (fun key r ->
        let k = select key in
        Hashtbl.replace tbl k ((1., r) :: Option.value (Hashtbl.find_opt tbl k) ~default:[]))
      vars.v_reuse;
    Hashtbl.iter
      (fun k terms -> Model.add_le m ((-1., var_of k) :: terms) 0.)
      tbl
  in
  group fst (fun i -> Hashtbl.find vars.v_mout i);
  group snd (fun j -> Hashtbl.find vars.v_min j);
  (* Eq. 8: capacity. *)
  let capacity_terms =
    List.concat
      [
        List.concat_map
          (fun i ->
            [ (1., Hashtbl.find vars.v_com i); (1., Hashtbl.find vars.v_min i);
              (1., Hashtbl.find vars.v_mout i) ])
          (List.init (hi - lo + 1) (fun k -> lo + k));
        Hashtbl.fold (fun _ r acc -> (-1., r) :: acc) vars.v_reuse [];
      ]
  in
  Model.add_le m capacity_terms (float_of_int n_cim);
  (m, vars, z, capacity_terms)

let segment_problem ?(options = default_options) chip (ops : Opinfo.t array)
    ~lo ~hi =
  if lo < 0 || hi >= Array.length ops || lo > hi then
    invalid_arg "Alloc.segment_problem: bad uid range";
  let z_ub = z_upper chip ops ~lo ~hi in
  let m, _vars, z, _capacity_terms = build ~options chip ops ~lo ~hi ~z_ub in
  Model.maximize m [ (1., z) ];
  Model.to_problem m

let read_plan (ops : Opinfo.t array) chip m vars ~lo ~hi =
  let allocs =
    List.init (hi - lo + 1) (fun k ->
        let i = lo + k in
        {
          Plan.uid = i;
          com = Model.int_value m (Hashtbl.find vars.v_com i);
          mem_in = Model.int_value m (Hashtbl.find vars.v_min i);
          mem_out = Model.int_value m (Hashtbl.find vars.v_mout i);
        })
  in
  let reuse =
    Hashtbl.fold
      (fun (i, j) r acc ->
        let v = Model.int_value m r in
        if v > 0 then (i, j, v) :: acc else acc)
      vars.v_reuse []
    |> List.sort compare
  in
  let intra =
    List.fold_left
      (fun acc a ->
        Float.max acc (op_latency chip ops.(a.Plan.uid) a))
      0. allocs
  in
  { Plan.lo; hi; allocs; reuse; intra_cycles = intra }

type outcome =
  | Optimal of Plan.seg_plan
  | Incumbent of Plan.seg_plan
  | Truncated_no_incumbent
  | Infeasible

(* The degradation chain leans on the node-limited incumbent being a real
   solution: every integer variable integral (Model.int_value rounds within
   the solver's integrality tolerance) and the Eq. 5/8 bounds respected.
   Checked explicitly so a solver regression degrades instead of
   miscompiling. *)
let plan_feasible chip (ops : Opinfo.t array) (p : Plan.seg_plan) =
  List.for_all
    (fun (a : Plan.op_alloc) ->
      a.Plan.com >= ops.(a.Plan.uid).Opinfo.min_compute_arrays
      && a.Plan.mem_in >= 0 && a.Plan.mem_out >= 0)
    p.Plan.allocs
  && List.for_all (fun (_, _, r) -> r >= 0) p.Plan.reuse
  && Plan.arrays_used p <= chip.Chip.n_arrays

let solve_outcome ?(options = default_options) chip (ops : Opinfo.t array) ~lo ~hi =
  if lo < 0 || hi >= Array.length ops || lo > hi then
    invalid_arg "Alloc.solve: bad uid range";
  if Opinfo.total_min_arrays ops ~lo ~hi > chip.Chip.n_arrays then Infeasible
  else begin
    let z_ub = z_upper chip ops ~lo ~hi in
    let m, vars, z, _capacity_terms = build ~options chip ops ~lo ~hi ~z_ub in
    Model.maximize m [ (1., z) ];
    match Model.solve ~max_nodes:options.milp_max_nodes ~gap:5e-3 m with
    | Model.Infeasible | Model.Unbounded -> Infeasible
    | Model.Truncated None -> Truncated_no_incumbent
    | Model.Truncated (Some _) ->
      (* node-limited: the incumbent is usable only if it honours the
         feasibility contract; refinement would burn another truncated
         search for nothing, so skip it *)
      let plan = read_plan ops chip m vars ~lo ~hi in
      if plan_feasible chip ops plan then Incumbent plan
      else Truncated_no_incumbent
    | Model.Optimal _ ->
      let plan = read_plan ops chip m vars ~lo ~hi in
      let plan =
        if not options.refine then plan
        else begin
          (* lexicographic phase 2: fewest arrays at (almost) that latency *)
          let z_opt = Model.value m z in
          let m2, vars2, z2, cap2 = build ~options chip ops ~lo ~hi ~z_ub in
          Model.add_ge m2 [ (1., z2) ] (z_opt *. (1. -. 1e-9));
          let arrays_expr =
            List.filter (fun (c, _) -> c > 0.) cap2
          in
          Model.minimize m2 arrays_expr;
          match Model.solve ~max_nodes:options.milp_max_nodes ~gap:5e-3 m2 with
          | Model.Optimal _ ->
            let refined = read_plan ops chip m2 vars2 ~lo ~hi in
            (* guard against numeric slack: keep the refined plan only if it
               is genuinely no slower *)
            if refined.Plan.intra_cycles <= plan.Plan.intra_cycles *. (1. +. 1e-9)
            then refined
            else plan
          | Model.Infeasible | Model.Unbounded | Model.Truncated _ -> plan
        end
      in
      Optimal plan
  end

let solve ?options chip ops ~lo ~hi =
  match solve_outcome ?options chip ops ~lo ~hi with
  | Optimal p | Incumbent p -> Some p
  | Truncated_no_incumbent | Infeasible -> None
