(* Unit tests for the shared plan layer: allocation accounting, the
   consumer index, boundary data, and each component of the inter-segment
   cost model (Fig. 10 / Eqs. 1, 2, 4) on hand-crafted operator lists. *)

module Chip = Cim_arch.Chip
module Config = Cim_arch.Config
module Opinfo = Cim_compiler.Opinfo
module Plan = Cim_compiler.Plan

let chip = Config.dynaplasia

(* Hand-crafted operator table: a chain 0 -> 1 -> 2 with a side output. *)
let op ~uid ~deps ~out_bytes =
  {
    Opinfo.uid;
    node_id = uid;
    label = Printf.sprintf "op%d" uid;
    kind = Cim_models.Intensity.Static_weight;
    macs = 1000.;
    ai = 1.;
    in_bytes = 64;
    out_bytes;
    weight_bytes = 128;
    stationary_rows = 32;
    stationary_cols = 8;
    replicas = 1;
    min_compute_arrays = 1;
    out_lo = 0;
    out_hi = 8;
    inputs = [ "x" ];
    output = Printf.sprintf "t%d" uid;
    deps;
  }

let ops =
  [| op ~uid:0 ~deps:[] ~out_bytes:100;
     op ~uid:1 ~deps:[ 0 ] ~out_bytes:200;
     op ~uid:2 ~deps:[ 1 ] ~out_bytes:300 |]

let alloc ?(com = 1) ?(mem_in = 0) ?(mem_out = 0) uid =
  { Plan.uid; com; mem_in; mem_out }

let seg ?(reuse = []) ~lo ~hi allocs =
  { Plan.lo; hi; allocs; reuse; intra_cycles = 10. }

let test_alloc_accounting () =
  let a = alloc ~com:3 ~mem_in:2 ~mem_out:1 0 in
  Alcotest.(check int) "mem_of" 3 (Plan.mem_of a);
  let s =
    seg ~lo:0 ~hi:1
      ~reuse:[ (0, 1, 1) ]
      [ alloc ~com:3 ~mem_out:2 0; alloc ~com:2 ~mem_in:2 1 ]
  in
  Alcotest.(check int) "com_total" 5 (Plan.com_total s);
  Alcotest.(check int) "mem_total" 4 (Plan.mem_total s);
  Alcotest.(check int) "arrays_used subtracts reuse" 8 (Plan.arrays_used s);
  Alcotest.(check int) "max_com" 3 (Plan.max_com s)

let test_boundary_bytes () =
  let ctx = Plan.make_ctx ops in
  (* [0,0]: op0 is consumed by op1 (beyond) -> boundary *)
  Alcotest.(check int) "prefix boundary" 100 (Plan.boundary_bytes ctx ~lo:0 ~hi:0);
  (* [0,1]: op0 consumed within, op1 consumed beyond *)
  Alcotest.(check int) "middle boundary" 200 (Plan.boundary_bytes ctx ~lo:0 ~hi:1);
  (* [0,2]: op2 has no consumer -> graph output, still boundary *)
  Alcotest.(check int) "tail boundary" 300 (Plan.boundary_bytes ctx ~lo:0 ~hi:2)

(* Random operator tables built from runs of operators that hold one deps
   list: within a shared run every operator holds the same physical list,
   as [Opinfo.extract] gives a node's sub-operators; otherwise each holds
   its own equal copy. A run is (length, deps, shared). *)
let gen_runs =
  QCheck.Gen.(
    int_range 1 24 >>= fun n ->
    let rec runs start =
      if start >= n then return []
      else
        int_range 1 (n - start) >>= fun len ->
        list_size (int_bound 4) (int_bound (n - 1)) >>= fun deps ->
        bool >>= fun shared ->
        runs (start + len) >|= fun rest -> (len, deps, shared) :: rest
    in
    runs 0)

let ops_of_runs runs =
  let uid = ref 0 in
  List.concat_map
    (fun (len, deps, shared) ->
      List.init len (fun _ ->
          let deps = if shared then deps else List.map Fun.id deps in
          incr uid;
          op ~uid:(!uid - 1) ~deps ~out_bytes:(1 + (37 * !uid mod 101))))
    runs
  |> Array.of_list

let print_runs runs =
  String.concat "; "
    (List.map
       (fun (len, deps, shared) ->
         Printf.sprintf "%dx[%s]%s" len
           (String.concat "," (List.map string_of_int deps))
           (if shared then " shared" else ""))
       runs)

(* the definition, read straight off the operator table *)
let oracle_boundary_bytes (ops : Opinfo.t array) ~lo ~hi =
  let readers i =
    List.filter (fun (o : Opinfo.t) -> List.mem i o.Opinfo.deps)
      (Array.to_list ops)
  in
  let acc = ref 0 in
  for i = lo to hi do
    let rs = readers i in
    if rs = [] || List.exists (fun (o : Opinfo.t) -> o.Opinfo.uid > hi) rs
    then acc := !acc + ops.(i).Opinfo.out_bytes
  done;
  !acc

let prop_boundary_bytes_oracle =
  QCheck.Test.make ~name:"boundary bytes match the oracle on every window"
    ~count:300
    (QCheck.make ~print:print_runs gen_runs)
    (fun runs ->
      let ops = ops_of_runs runs in
      let ctx = Plan.make_ctx ops in
      let n = Array.length ops in
      let ok = ref true in
      for lo = 0 to n - 1 do
        for hi = lo to n - 1 do
          if Plan.boundary_bytes ctx ~lo ~hi <> oracle_boundary_bytes ops ~lo ~hi
          then ok := false
        done
      done;
      !ok)

let test_inter_cold_start () =
  let ctx = Plan.make_ctx ops in
  let cur = seg ~lo:0 ~hi:0 [ alloc ~com:4 0 ] in
  let ic = Plan.inter_segment_cost chip ctx ~prev:None ~cur in
  Alcotest.(check (float 0.)) "no cold write-back" 0. ic.Plan.writeback;
  (* 4 arrays switch memory->compute at 1 cycle each *)
  Alcotest.(check (float 0.)) "cold switch" 4. ic.Plan.switch;
  (* Eq. 2: max com * write_latency *)
  Alcotest.(check (float 0.)) "cold rewrite" (4. *. 16.) ic.Plan.rewrite

let test_inter_switch_estimate () =
  let ctx = Plan.make_ctx ops in
  let prev = seg ~lo:0 ~hi:0 [ alloc ~com:10 ~mem_out:5 0 ] in
  let cur = seg ~lo:1 ~hi:1 [ alloc ~com:12 ~mem_in:9 1 ] in
  let ic = Plan.inter_segment_cost chip ctx ~prev:(Some prev) ~cur in
  (* com grows by 2, mem grows by 4 -> 2 m->c and 4 c->m at 1 cycle each *)
  Alcotest.(check (float 0.)) "switch estimate" 6. ic.Plan.switch;
  Alcotest.(check (float 0.)) "rewrite of new segment" (12. *. 16.) ic.Plan.rewrite

let test_inter_writeback () =
  let ctx = Plan.make_ctx ops in
  let array_bytes = Chip.array_mem_bytes chip in
  ignore array_bytes;
  (* prev holds its 100-byte boundary output in one mem_out array; the next
     segment has no input buffers to absorb it -> write back 100 bytes *)
  let prev = seg ~lo:0 ~hi:0 [ alloc ~com:1 ~mem_out:1 0 ] in
  let cur = seg ~lo:1 ~hi:1 [ alloc ~com:1 1 ] in
  let ic = Plan.inter_segment_cost chip ctx ~prev:(Some prev) ~cur in
  Alcotest.(check (float 1e-9)) "write-back of held bytes"
    (100. /. chip.Chip.extern_bw) ic.Plan.writeback;
  (* with an absorbing input buffer on the next segment: free *)
  let cur2 = seg ~lo:1 ~hi:1 [ alloc ~com:1 ~mem_in:1 1 ] in
  let ic2 = Plan.inter_segment_cost chip ctx ~prev:(Some prev) ~cur:cur2 in
  Alcotest.(check (float 0.)) "absorbed in place" 0. ic2.Plan.writeback;
  (* data not held on chip (prev had no output buffers): nothing to flush *)
  let prev3 = seg ~lo:0 ~hi:0 [ alloc ~com:1 0 ] in
  let ic3 = Plan.inter_segment_cost chip ctx ~prev:(Some prev3) ~cur in
  Alcotest.(check (float 0.)) "nothing held" 0. ic3.Plan.writeback

let test_roll_up_additivity () =
  let segs =
    [ seg ~lo:0 ~hi:0 [ alloc ~com:2 0 ];
      seg ~lo:1 ~hi:1 [ alloc ~com:2 1 ];
      seg ~lo:2 ~hi:2 [ alloc ~com:2 2 ] ]
  in
  let s = Plan.roll_up ~compiler:"test" chip ops segs in
  Alcotest.(check (float 1e-9)) "intra sums" 30. s.Plan.intra;
  Alcotest.(check (float 1e-9)) "total is the component sum"
    (s.Plan.intra +. s.Plan.writeback +. s.Plan.switch +. s.Plan.rewrite)
    s.Plan.total_cycles;
  Alcotest.(check string) "compiler name" "test" s.Plan.compiler;
  Alcotest.(check int) "segments kept" 3 (List.length s.Plan.segments)

let test_pp_schedule () =
  let s = Plan.roll_up ~compiler:"x" chip ops [ seg ~lo:0 ~hi:2
    [ alloc 0; alloc 1; alloc 2 ] ] in
  let str = Format.asprintf "%a" Plan.pp_schedule s in
  Alcotest.(check bool) "renders" true (String.length str > 10)

let suite =
  ( "plan",
    [
      Alcotest.test_case "allocation accounting" `Quick test_alloc_accounting;
      Alcotest.test_case "boundary bytes" `Quick test_boundary_bytes;
      QCheck_alcotest.to_alcotest prop_boundary_bytes_oracle;
      Alcotest.test_case "inter-cost: cold start" `Quick test_inter_cold_start;
      Alcotest.test_case "inter-cost: switch estimate (Eq. 1)" `Quick test_inter_switch_estimate;
      Alcotest.test_case "inter-cost: write-back cases" `Quick test_inter_writeback;
      Alcotest.test_case "roll-up additivity" `Quick test_roll_up_additivity;
      Alcotest.test_case "schedule printing" `Quick test_pp_schedule;
    ] )
