module Chip = Cim_arch.Chip
module Cost = Cim_arch.Cost

type op_alloc = { uid : int; com : int; mem_in : int; mem_out : int }

let mem_of a = a.mem_in + a.mem_out

type seg_plan = {
  lo : int;
  hi : int;
  allocs : op_alloc list;
  reuse : (int * int * int) list;
  intra_cycles : float;
}

let shift ~lo p =
  let d = lo - p.lo in
  if d = 0 then p
  else
    { p with
      lo;
      hi = p.hi + d;
      allocs = List.map (fun a -> { a with uid = a.uid + d }) p.allocs;
      reuse = List.map (fun (i, j, r) -> (i + d, j + d, r)) p.reuse }

let com_total s = List.fold_left (fun acc a -> acc + a.com) 0 s.allocs
let mem_total s = List.fold_left (fun acc a -> acc + mem_of a) 0 s.allocs

let arrays_used s =
  let shared = List.fold_left (fun acc (_, _, r) -> acc + r) 0 s.reuse in
  com_total s + mem_total s - shared

let max_com s = List.fold_left (fun acc a -> max acc a.com) 0 s.allocs

type inter_cost = { writeback : float; switch : float; rewrite : float }

let inter_total c = c.writeback +. c.switch +. c.rewrite

type ctx = {
  ctx_ops : Opinfo.t array;
  last_consumer : int array; (* max uid consuming op i; -1 when none *)
}

(* [Opinfo.extract] gives a node's sub-operators one shared deps list, so a
   run of consecutive operators holding the same list (physically) is
   folded once, at its last uid: the run's latest consumer of each dep. *)
let make_ctx (ops : Opinfo.t array) =
  let n = Array.length ops in
  let last = Array.make n (-1) in
  for j = 0 to n - 1 do
    let deps = ops.(j).Opinfo.deps in
    if j = n - 1 || ops.(j + 1).Opinfo.deps != deps then
      List.iter (fun d -> if d >= 0 && d < n then last.(d) <- max last.(d) j)
        deps
  done;
  { ctx_ops = ops; last_consumer = last }

(* An operator's output is boundary data of segment [lo, hi] when some
   operator beyond hi consumes it, or when nothing consumes it at all (it
   feeds the graph output). *)
let boundary_bytes ctx ~lo ~hi =
  let acc = ref 0 in
  for i = lo to hi do
    let last = ctx.last_consumer.(i) in
    if last > hi || last = -1 then acc := !acc + ctx.ctx_ops.(i).Opinfo.out_bytes
  done;
  !acc

let inter_segment_cost chip ctx ~prev ~cur =
  let rewrite = Cost.weight_rewrite_latency chip ~max_com:(max_com cur) in
  match prev with
  | None ->
    (* cold start: program weights, switch every needed array out of the
       reset (memory) mode *)
    let switch = Cost.switch_latency chip ~m2c:(com_total cur) ~c2m:0 in
    { writeback = 0.; switch; rewrite }
  | Some p ->
    let com_p = com_total p and mem_p = mem_total p in
    let com_c = com_total cur and mem_c = mem_total cur in
    (* Mode-count estimate of Eq. 1: arrays that must newly become compute
       (resp. memory). The placement pass computes the exact overlap. *)
    let m2c = max 0 (com_c - com_p) in
    let c2m = max 0 (mem_c - mem_p) in
    let switch = Cost.switch_latency chip ~m2c ~c2m in
    (* Step 1 of Fig. 10: previous boundary data held in output buffers must
       be written back unless the next segment's input buffers take the
       arrays over in place. *)
    let array_bytes = Chip.array_mem_bytes chip in
    let boundary = boundary_bytes ctx ~lo:p.lo ~hi:p.hi in
    let mem_out_cap =
      List.fold_left (fun acc a -> acc + a.mem_out) 0 p.allocs * array_bytes
    in
    let held = min boundary mem_out_cap in
    let absorb =
      List.fold_left (fun acc a -> acc + a.mem_in) 0 cur.allocs * array_bytes
    in
    let wb_bytes = max 0 (held - absorb) in
    let writeback = Cost.writeback_latency chip ~bytes:wb_bytes in
    { writeback; switch; rewrite }

type schedule = {
  compiler : string;
  segments : seg_plan list;
  intra : float;
  writeback : float;
  switch : float;
  rewrite : float;
  total_cycles : float;
}

let roll_up ~compiler chip ops segments =
  let ctx = make_ctx ops in
  let intra = ref 0. and wb = ref 0. and sw = ref 0. and rw = ref 0. in
  let prev = ref None in
  List.iter
    (fun seg ->
      let ic = inter_segment_cost chip ctx ~prev:!prev ~cur:seg in
      intra := !intra +. seg.intra_cycles;
      wb := !wb +. ic.writeback;
      sw := !sw +. ic.switch;
      rw := !rw +. ic.rewrite;
      prev := Some seg)
    segments;
  {
    compiler;
    segments;
    intra = !intra;
    writeback = !wb;
    switch = !sw;
    rewrite = !rw;
    total_cycles = !intra +. !wb +. !sw +. !rw;
  }

let pp_schedule ppf s =
  Format.fprintf ppf
    "@[<v>%s: %d segments, %.0f cycles (intra %.0f, wb %.0f, switch %.0f, rewrite %.0f)@]"
    s.compiler (List.length s.segments) s.total_cycles s.intra s.writeback
    s.switch s.rewrite
