module Chip = Cim_arch.Chip
module Cost = Cim_arch.Cost
module Energy = Cim_arch.Energy
module Faultmap = Cim_arch.Faultmap
module Flow = Cim_metaop.Flow
module Rng = Cim_util.Rng
module Mode = Cim_arch.Mode
module Trace = Cim_obs.Trace
module Metrics = Cim_obs.Metrics

type breakdown = {
  compute : float;
  switch : float;
  rewrite : float;
  writeback : float;
  total : float;
}

type energy = {
  mac_uj : float;
  operand_uj : float;
  weight_uj : float;
  switch_uj : float;
  static_uj : float;
  total_uj : float;
}

type result = {
  cycles : breakdown;
  microseconds : float;
  segments : int;
  seg_cycles : breakdown list;
  switch_count : int * int;
  switch_retries : int;
  dma_bytes : int;
  switch_share : float;
  energy : energy;
  edp_uj_ms : float;
  profile : Energy.profile;
}

(* Dirty tensors living only in memory-mode arrays: name -> (arrays,
   bytes). Data *loaded* into memory arrays is a clean copy (main memory
   still has it), so displacing it is free; data *stored* into memory
   arrays exists nowhere else and must be flushed to main memory when a
   switch or a new resident reclaims those arrays. *)
type residency = {
  mutable staged : (string * (Flow.coord list * int)) list;
}

let coords_overlap a b = List.exists (fun c -> List.mem c b) a

let pj_to_uj x = x /. 1e6

let run chip ?faults ?rng ?(max_switch_retries = 3) (p : Flow.program) =
  let rng = match rng with Some r -> r | None -> Rng.create 0x5117c4 in
  let prof = Energy.for_chip chip in
  let compute = ref 0. and switch = ref 0. and rewrite = ref 0. in
  let writeback = ref 0. in
  (* dynamic energy per event class, in picojoules *)
  let mac_pj = ref 0. and operand_pj = ref 0. and weight_pj = ref 0. in
  let switch_pj = ref 0. in
  let m2c = ref 0 and c2m = ref 0 in
  let dma = ref 0 in
  let retries = ref 0 in
  let segments = ref 0 in
  let seg_cycles = ref [] in
  let res = { staged = [] } in
  (* each failed transient switch attempt burns one single-array switch's
     latency and energy before the retry; the draws are Machine.switch's own *)
  let charge_retries target arrays =
    match faults with
    | None -> ()
    | Some fm ->
      let attempts =
        List.fold_left
          (fun acc (c : Flow.coord) ->
            let i = Chip.grid_index chip c in
            if i < 0 then acc
            else
              let p = Faultmap.transient_prob fm i in
              acc + fst (Machine.retry_draws rng ~p ~max_retries:max_switch_retries))
          0 arrays
      in
      if attempts > 0 then begin
        retries := !retries + attempts;
        switch_pj := !switch_pj +. (prof.Energy.switch_pj *. float_of_int attempts);
        let per_attempt =
          match target with
          | Cim_arch.Mode.To_compute -> Cost.switch_latency chip ~m2c:1 ~c2m:0
          | Cim_arch.Mode.To_memory -> Cost.switch_latency chip ~m2c:0 ~c2m:1
        in
        switch := !switch +. (float_of_int attempts *. per_attempt)
      end
  in
  let flush_overlapping coords =
    (* displaced scratchpad contents go back to main memory *)
    let displaced, kept =
      List.partition (fun (_, (cs, _)) -> coords_overlap cs coords) res.staged
    in
    List.iter
      (fun (_, (_, bytes)) ->
        writeback := !writeback +. Cost.writeback_latency chip ~bytes)
      displaced;
    res.staged <- kept
  in
  (* the running component sums double as the simulator's cycle clock; each
     switched array gets its own trace track showing which mode it sat in
     between switches (arrays reset as plain memory, so Memory at cycle 0) *)
  let clock () = !compute +. !switch +. !rewrite +. !writeback in
  let residency : (int, Mode.t * float) Hashtbl.t = Hashtbl.create 32 in
  let emit_residency i mode ~since ~upto =
    if upto > since then begin
      let c = Chip.coord_of_index chip i in
      Trace.name_process ~pid:Trace.pid_simulator "timing simulator (cycles)";
      Trace.name_thread ~pid:Trace.pid_simulator ~tid:(i + 1)
        (Printf.sprintf "array (%d,%d)" c.Chip.x c.Chip.y);
      Trace.complete ~cat:"residency" ~pid:Trace.pid_simulator ~tid:(i + 1)
        ~ts:since ~dur:(upto -. since) (Mode.to_string mode)
    end
  in
  let trace_switch target arrays ~t_before =
    let t_after = clock () in
    List.iter
      (fun (c : Flow.coord) ->
        let i = Chip.grid_index chip c in
        if i >= 0 then begin
          let prev, since =
            Option.value (Hashtbl.find_opt residency i) ~default:(Mode.Memory, 0.)
          in
          emit_residency i prev ~since ~upto:t_before;
          Trace.complete ~cat:"switch" ~pid:Trace.pid_simulator ~tid:(i + 1)
            ~ts:t_before ~dur:(t_after -. t_before)
            (Printf.sprintf "switch %s" (Mode.transition_to_string target));
          Hashtbl.replace residency i (Mode.apply target, t_after)
        end)
      arrays
  in
  (* a data transfer's energy per byte at an on-chip end; main memory's end
     is the DRAM pins *)
  let on_chip_pj = function
    | Flow.Mem_arrays _ -> prof.Energy.cim_read_pj_per_byte
    | Flow.Buffer -> prof.Energy.buffer_pj_per_byte
    | Flow.Main_memory -> 0.
  in
  (* A weight write or a compute is charged to its component as it comes at
     top level. Inside a pipelined segment it extends its operator's chain
     instead: per-operator chains run concurrently, so the segment costs its
     slowest chain, and weight programming of distinct operators also
     proceeds in parallel, so Eq. 2's max applies. Chains are keyed by
     sub-operator label: sub-operators of one node run in parallel on
     disjoint arrays, so they are separate chains. *)
  let charge chain label ~rw ~cp =
    match chain with
    | None ->
      rewrite := !rewrite +. rw;
      compute := !compute +. cp
    | Some chain ->
      let r, c = Option.value (Hashtbl.find_opt chain label) ~default:(0., 0.) in
      Hashtbl.replace chain label (r +. rw, c +. cp)
  in
  let rec exec chain (i : Flow.instr) =
    match i with
    | Flow.Switch { target; arrays } ->
      let n = List.length arrays in
      switch_pj := !switch_pj +. (prof.Energy.switch_pj *. float_of_int n);
      flush_overlapping arrays;
      charge_retries target arrays;
      let t_before = clock () in
      (match target with
      | Mode.To_compute ->
        m2c := !m2c + n;
        switch := !switch +. Cost.switch_latency chip ~m2c:n ~c2m:0
      | Mode.To_memory ->
        c2m := !c2m + n;
        switch := !switch +. Cost.switch_latency chip ~m2c:0 ~c2m:n);
      if Trace.enabled () then trace_switch target arrays ~t_before
    | Flow.Load { bytes; dst; _ } ->
      (* data crosses the DRAM pins and lands in its destination *)
      dma := !dma + bytes;
      operand_pj :=
        !operand_pj
        +. ((prof.Energy.dram_pj_per_byte +. on_chip_pj dst) *. float_of_int bytes);
      (match dst with
      | Flow.Mem_arrays cs -> flush_overlapping cs
      | Flow.Main_memory | Flow.Buffer -> ())
    | Flow.Store { bytes; tensor; src; dst } ->
      dma := !dma + bytes;
      let dst_pj =
        match dst with
        | Flow.Main_memory -> prof.Energy.dram_pj_per_byte
        | Flow.Buffer | Flow.Mem_arrays _ -> on_chip_pj dst
      in
      operand_pj := !operand_pj +. ((on_chip_pj src +. dst_pj) *. float_of_int bytes);
      (match dst with
      | Flow.Mem_arrays cs ->
        flush_overlapping cs;
        res.staged <- (tensor, (cs, bytes)) :: res.staged
      | Flow.Main_memory | Flow.Buffer ->
        (* written back: the on-chip copy is clean now *)
        res.staged <- List.filter (fun (n, _) -> n <> tensor) res.staged)
    | Flow.Write_weights { label; arrays; bytes; in_place; _ } ->
      weight_pj :=
        !weight_pj +. (prof.Energy.weight_write_pj_per_byte *. float_of_int bytes);
      (* an in-place relabel (§5.3) streams nothing: free *)
      if not in_place then
        charge chain label ~cp:0.
          ~rw:(Cost.weight_rewrite_latency chip ~max_com:(List.length arrays))
    | Flow.Compute { label; macs; ai; arrays; mem_arrays; _ } ->
      mac_pj := !mac_pj +. (prof.Energy.mac_pj *. macs);
      (* the operator's streamed traffic (its AI denominator) moves through
         memory arrays when it has them, the buffer otherwise *)
      let traffic = if ai > 0. then macs /. ai else 0. in
      let per_byte =
        if mem_arrays <> [] then prof.Energy.cim_read_pj_per_byte
        else prof.Energy.buffer_pj_per_byte
      in
      operand_pj := !operand_pj +. (per_byte *. traffic);
      charge chain label ~rw:0.
        ~cp:
          (Cost.op_latency chip ~ops:macs ~ai ~com:(List.length arrays)
             ~mem:(List.length mem_arrays))
    | Flow.Vector_op _ -> ()
    (* a block nested in a block, which Check rejects, is not priced *)
    | Flow.Parallel _ when Option.is_some chain -> ()
    | Flow.Parallel body ->
      let n = !segments in
      incr segments;
      (* component snapshots bracket the segment so its measured cycle
         breakdown can be attributed back to the schedule's per-segment
         Eq. 10 prediction (see Drift) *)
      let c0 = !compute and s0 = !switch in
      let r0 = !rewrite and w0 = !writeback in
      let t0 = clock () in
      let chain : (string, float * float) Hashtbl.t = Hashtbl.create 8 in
      List.iter (exec (Some chain)) body;
      let seg_rw = Hashtbl.fold (fun _ (r, _) acc -> Float.max acc r) chain 0. in
      let seg_cp = Hashtbl.fold (fun _ (_, c) acc -> Float.max acc c) chain 0. in
      rewrite := !rewrite +. seg_rw;
      compute := !compute +. seg_cp;
      let seg_total =
        !compute -. c0 +. (!switch -. s0) +. (!rewrite -. r0)
        +. (!writeback -. w0)
      in
      seg_cycles :=
        { compute = !compute -. c0; switch = !switch -. s0;
          rewrite = !rewrite -. r0; writeback = !writeback -. w0;
          total = seg_total }
        :: !seg_cycles;
      if Trace.enabled () then begin
        (* one span per pipelined segment on the simulator's segment track *)
        Trace.name_thread ~pid:Trace.pid_simulator ~tid:0 "segments";
        Trace.complete ~cat:"segment" ~pid:Trace.pid_simulator ~tid:0 ~ts:t0
          ~dur:(clock () -. t0)
          (Printf.sprintf "segment %d" n)
      end
  in
  List.iter (exec None) p.Flow.instrs;
  if Trace.enabled () then
    Hashtbl.iter
      (fun i (mode, since) -> emit_residency i mode ~since ~upto:(clock ()))
      residency;
  let total = !compute +. !switch +. !rewrite +. !writeback in
  (* cycles-by-mode: compute cycles run in compute mode, everything else
     (switch, rewrite, writeback) is memory-system time *)
  Metrics.incr ~by:!compute (Metrics.counter "sim.cycles.compute");
  Metrics.incr ~by:!switch (Metrics.counter "sim.cycles.switch");
  Metrics.incr ~by:!rewrite (Metrics.counter "sim.cycles.rewrite");
  Metrics.incr ~by:!writeback (Metrics.counter "sim.cycles.writeback");
  Metrics.incr ~by:total (Metrics.counter "sim.cycles.total");
  Metrics.incr ~by:(float_of_int !m2c) (Metrics.counter "sim.switches.m2c");
  Metrics.incr ~by:(float_of_int !c2m) (Metrics.counter "sim.switches.c2m");
  Metrics.incr ~by:(float_of_int !retries) (Metrics.counter "sim.switch.retries");
  Metrics.incr ~by:(float_of_int !dma) (Metrics.counter "sim.dma.bytes");
  (* static energy is the chip's leakage over the priced cycles *)
  let seconds = total /. (chip.Chip.freq_mhz *. 1e6) in
  let static_uj = prof.Energy.static_mw *. seconds *. 1e3 in
  let mac_uj = pj_to_uj !mac_pj
  and operand_uj = pj_to_uj !operand_pj
  and weight_uj = pj_to_uj !weight_pj
  and switch_uj = pj_to_uj !switch_pj in
  let total_uj = mac_uj +. operand_uj +. weight_uj +. switch_uj +. static_uj in
  {
    cycles =
      { compute = !compute; switch = !switch; rewrite = !rewrite;
        writeback = !writeback; total };
    microseconds = Chip.cycles_to_us chip total;
    segments = !segments;
    seg_cycles = List.rev !seg_cycles;
    switch_count = (!m2c, !c2m);
    switch_retries = !retries;
    dma_bytes = !dma;
    switch_share = (if total > 0. then (!switch +. !writeback) /. total else 0.);
    energy = { mac_uj; operand_uj; weight_uj; switch_uj; static_uj; total_uj };
    edp_uj_ms = total_uj *. (seconds *. 1e3);
    profile = prof;
  }

let pp ppf r =
  Format.fprintf ppf
    "@[<v>timing: %.0f cycles (%.2f us), %d segments@,\
     compute %.0f | switch %.0f | rewrite %.0f | writeback %.0f@,\
     switches m->c %d, c->m %d (+%d retried); DMA %s; switch share %.1f%%@]"
    r.cycles.total r.microseconds r.segments r.cycles.compute r.cycles.switch
    r.cycles.rewrite r.cycles.writeback (fst r.switch_count)
    (snd r.switch_count) r.switch_retries
    (Cim_util.Bytesize.to_string r.dma_bytes)
    (100. *. r.switch_share)

let pp_energy ppf r =
  Format.fprintf ppf
    "@[<v>energy (%s): %.3f uJ total@,\
     mac %.3f | operands %.3f | weights %.3f | switch %.4f | static %.3f@,\
     EDP %.4f uJ*ms over %.0f cycles@]"
    r.profile.Energy.profile_name r.energy.total_uj r.energy.mac_uj
    r.energy.operand_uj r.energy.weight_uj r.energy.switch_uj
    r.energy.static_uj r.edp_uj_ms r.cycles.total
