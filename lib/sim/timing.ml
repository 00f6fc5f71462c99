module Chip = Cim_arch.Chip
module Cost = Cim_arch.Cost
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

type result = {
  cycles : breakdown;
  microseconds : float;
  segments : int;
  seg_cycles : breakdown list;
  switch_count : int * int;
  switch_retries : int;
  dma_bytes : int;
  switch_share : float;
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

let run chip ?faults ?rng ?(max_switch_retries = 3) (p : Flow.program) =
  let rng = match rng with Some r -> r | None -> Rng.create 0x5117c4 in
  let compute = ref 0. and switch = ref 0. and rewrite = ref 0. in
  let writeback = ref 0. in
  let m2c = ref 0 and c2m = ref 0 in
  let dma = ref 0 in
  let retries = ref 0 in
  let segments = ref 0 in
  let seg_cycles = ref [] in
  let res = { staged = [] } in
  (* each failed transient switch attempt burns one single-array switch
     latency before the retry; the draws are Machine.switch's own *)
  let charge_retries target arrays =
    match faults with
    | None -> ()
    | Some fm ->
      let attempts =
        List.fold_left
          (fun acc (c : Flow.coord) ->
            match Chip.index_of_coord chip c with
            | exception Chip.Invalid_config _ -> acc
            | i ->
              let p = Faultmap.transient_prob fm i in
              acc + fst (Machine.retry_draws rng ~p ~max_retries:max_switch_retries))
          0 arrays
      in
      if attempts > 0 then begin
        retries := !retries + attempts;
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
  let do_switch target arrays =
    flush_overlapping arrays;
    charge_retries target arrays;
    let t_before = clock () in
    let n = List.length arrays in
    (match target with
    | Mode.To_compute ->
      m2c := !m2c + n;
      switch := !switch +. Cost.switch_latency chip ~m2c:n ~c2m:0
    | Mode.To_memory ->
      c2m := !c2m + n;
      switch := !switch +. Cost.switch_latency chip ~m2c:0 ~c2m:n);
    if Trace.enabled () then begin
      let t_after = clock () in
      List.iter
        (fun (c : Flow.coord) ->
          match Chip.index_of_coord chip c with
          | exception Chip.Invalid_config _ -> ()
          | i ->
            let prev, since =
              Option.value (Hashtbl.find_opt residency i)
                ~default:(Mode.Memory, 0.)
            in
            emit_residency i prev ~since ~upto:t_before;
            Trace.complete ~cat:"switch" ~pid:Trace.pid_simulator ~tid:(i + 1)
              ~ts:t_before ~dur:(t_after -. t_before)
              (Printf.sprintf "switch %s" (Mode.transition_to_string target));
            Hashtbl.replace residency i (Mode.apply target, t_after))
        arrays
    end
  in
  let exec_top (i : Flow.instr) =
    match i with
    | Flow.Switch { target; arrays } -> do_switch target arrays
    | Flow.Load { bytes; dst; _ } ->
      dma := !dma + bytes;
      (match dst with
      | Flow.Mem_arrays cs -> flush_overlapping cs
      | Flow.Main_memory | Flow.Buffer -> ())
    | Flow.Store { bytes; tensor; dst; _ } ->
      dma := !dma + bytes;
      (match dst with
      | Flow.Mem_arrays cs ->
        flush_overlapping cs;
        res.staged <- (tensor, (cs, bytes)) :: res.staged
      | Flow.Main_memory | Flow.Buffer ->
        (* written back: the on-chip copy is clean now *)
        res.staged <- List.filter (fun (n, _) -> n <> tensor) res.staged)
    | Flow.Write_weights { arrays; in_place; _ } ->
      (* an in-place relabel (§5.3) streams nothing: free *)
      if not in_place then
        rewrite :=
          !rewrite +. Cost.weight_rewrite_latency chip ~max_com:(List.length arrays)
    | Flow.Compute { macs; ai; arrays; mem_arrays; _ } ->
      compute :=
        !compute
        +. Cost.op_latency chip ~ops:macs ~ai ~com:(List.length arrays)
             ~mem:(List.length mem_arrays)
    | Flow.Vector_op _ -> ()
    | Flow.Parallel body ->
      incr segments;
      (* component snapshots bracket the segment so its measured cycle
         breakdown can be attributed back to the schedule's per-segment
         Eq. 10 prediction (see Drift) *)
      let c0 = !compute and s0 = !switch in
      let r0 = !rewrite and w0 = !writeback in
      (* pipelined segment: per-operator chains run concurrently; the
         segment costs its slowest chain. Weight programming of distinct
         operators also proceeds in parallel, so Eq. 2's max applies. *)
      (* chains are keyed by sub-operator label: sub-operators of one node
         run in parallel on disjoint arrays, so they are separate chains *)
      let chain : (string, float * float) Hashtbl.t = Hashtbl.create 8 in
      let bump label ~rw ~cp =
        let r, c = Option.value (Hashtbl.find_opt chain label) ~default:(0., 0.) in
        Hashtbl.replace chain label (r +. rw, c +. cp)
      in
      List.iter
        (fun (instr : Flow.instr) ->
          match instr with
          | Flow.Write_weights { label; arrays; in_place; _ } ->
            if not in_place then
              bump label
                ~rw:(Cost.weight_rewrite_latency chip ~max_com:(List.length arrays))
                ~cp:0.
          | Flow.Compute { label; macs; ai; arrays; mem_arrays; _ } ->
            bump label ~rw:0.
              ~cp:
                (Cost.op_latency chip ~ops:macs ~ai ~com:(List.length arrays)
                   ~mem:(List.length mem_arrays))
          | Flow.Load { bytes; dst; _ } -> begin
            dma := !dma + bytes;
            match dst with
            | Flow.Mem_arrays cs -> flush_overlapping cs
            | Flow.Main_memory | Flow.Buffer -> ()
          end
          | Flow.Store { bytes; tensor; dst; _ } -> begin
            dma := !dma + bytes;
            match dst with
            | Flow.Main_memory | Flow.Buffer ->
              res.staged <- List.filter (fun (n, _) -> n <> tensor) res.staged
            | Flow.Mem_arrays cs ->
              flush_overlapping cs;
              res.staged <- (tensor, (cs, bytes)) :: res.staged
          end
          | Flow.Switch { target; arrays } -> do_switch target arrays
          | Flow.Vector_op _ | Flow.Parallel _ -> ())
        body;
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
        :: !seg_cycles
  in
  let exec_top (i : Flow.instr) =
    match i with
    | Flow.Parallel _ when Trace.enabled () ->
      (* one span per pipelined segment on the simulator's segment track *)
      let t0 = clock () in
      let n = !segments in
      exec_top i;
      Trace.name_thread ~pid:Trace.pid_simulator ~tid:0 "segments";
      Trace.complete ~cat:"segment" ~pid:Trace.pid_simulator ~tid:0 ~ts:t0
        ~dur:(clock () -. t0)
        (Printf.sprintf "segment %d" n)
    | i -> exec_top i
  in
  List.iter exec_top p.Flow.instrs;
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
