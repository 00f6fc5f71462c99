(** Timing simulator: cycle and energy accounting over a meta-operator flow
    using the DEHA cost model — the MNSIM/NeuroSim-derived simulator of
    §5.1, extended with the dual-mode switch (the [CM.switch] cost and the
    compute/memory-mode operation costs of §4.2). One walk over the program
    prices both: each instruction kind is handled in one place, at top
    level and inside a [parallel{}] block alike.

    Each [parallel{}] block is a pipelined network segment: its latency is
    the slowest operator chain (per-operator weight programming followed by
    Eq. 10 execution). Switches are charged per array. Loads and stores
    whose bytes already flow through an operator's arithmetic-intensity term
    are not double-charged; only boundary write-backs of *dirty*
    memory-array contents displaced by the next segment are. Since the
    generated flows store operator outputs back eagerly (their cost lives in
    the AI traffic term), the simulated total can undercut the compiler's
    schedule by at most its conservative Eq. 4 write-back estimate:
    [timing <= schedule <= timing + schedule.writeback].

    Energy is dynamic energy per event class plus static energy over the
    priced cycles, in microjoules; the energy-delay product follows.

    With tracing on, each switched array gets a mode-residency track on
    {!Cim_obs.Trace.pid_simulator} (cycle clock), and each segment a span
    on its track 0: the one trace of array modes. *)

type breakdown = {
  compute : float;    (** pipelined segment execution (Eq. 9/10) *)
  switch : float;     (** CM.switch cost (Eq. 1) *)
  rewrite : float;    (** weight (re)programming (Eq. 2) *)
  writeback : float;  (** displaced scratchpad data flushed to main memory *)
  total : float;
}

type energy = {
  mac_uj : float;        (** compute-array MAC energy *)
  operand_uj : float;    (** operand movement: scratchpad + buffer + DRAM *)
  weight_uj : float;     (** weight programming *)
  switch_uj : float;     (** CM.switch events *)
  static_uj : float;     (** leakage over the priced cycles *)
  total_uj : float;
}

type result = {
  cycles : breakdown;
  microseconds : float;
  segments : int;
  seg_cycles : breakdown list;
      (** measured breakdown of each pipelined segment, program order —
          the per-segment counterpart of the schedule's [intra_cycles]
          prediction (cost-model drift attribution feeds on the pair;
          see {!Drift}) *)
  switch_count : int * int;        (** realised (m->c, c->m) *)
  switch_retries : int;            (** failed transient switch attempts;
                                       each charged one single-array switch
                                       latency on top of the base cost *)
  dma_bytes : int;                 (** explicit load/store traffic *)
  switch_share : float;            (** (switch + writeback) / total — the
                                       §5.5 "dual-mode switch" overhead: the
                                       cost the switching mechanism itself
                                       adds (weight programming is paid by
                                       fixed-mode compilers too) *)
  energy : energy;
  edp_uj_ms : float;               (** energy-delay product: uJ x ms *)
  profile : Cim_arch.Energy.profile;  (** the per-event energies used *)
}

val run :
  Cim_arch.Chip.t -> ?faults:Cim_arch.Faultmap.t -> ?rng:Cim_util.Rng.t ->
  ?max_switch_retries:int -> Cim_metaop.Flow.program -> result
(** With [faults], every switch of a transiently failing array draws retry
    attempts from [rng] (default a fixed seed, matching
    {!Machine.create}) and charges each failed attempt one single-array
    switch, in cycles and in energy. Energy counts each [Compute]'s MACs
    and AI-implied operand traffic, loads and stores by their ends, weight
    writes by bytes and switches by array switch attempts, priced with the
    chip's {!Cim_arch.Energy.for_chip} profile; the static term uses the
    walk's own cycle total. A block nested in a block, which
    {!Cim_metaop.Check} rejects, is not priced. *)

val pp : Format.formatter -> result -> unit
(** The cycle breakdown, segments, switches and DMA traffic. *)

val pp_energy : Format.formatter -> result -> unit
(** The energy breakdown and the EDP. *)
