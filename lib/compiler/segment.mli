(** Dual-mode-aware network segmentation (§4.3.1, Eq. 3, Alg. 1): dynamic
    programming over segment boundaries, where each candidate segment's
    intra cost comes from the {!Alloc} MIP and the boundary cost from the
    three-part inter-segment model (Fig. 10).

    Every candidate window is solved twice: as the dual-mode MILP and as
    the same MILP with [force_all_compute] (CIM-MLC's allocation). The DP
    fold picks per window by the whole window cost — intra, Eq. 1 switch,
    Eq. 2 rewrite and write-back. A second DP track keeps the
    compute-only chain, and the main track adopts it at any boundary
    where it is cheaper, so the DP's objective never exceeds that of a
    compute-only compile. When [alloc.force_all_compute] is already set
    there is one mode and one track. *)

type options = {
  alloc : Alloc.options;
  max_segment_ops : int;
      (** window cap on segment length; the hard feasibility bound (Eq. 8 /
          Alg. 1 line 9) still applies on top *)
  jobs : int;
      (** concurrent MILP solvers per compile. [1] = serial on the
          calling domain; [n > 1] = one {!Cim_util.Pool} of [n] worker
          domains for the compile's batch of window solves. Defaults to
          {!Cim_util.Pool.default_jobs} (the [CMSWITCH_JOBS] environment
          override, else [Domain.recommended_domain_count ()]). The
          compilation result — plans, programs, stats, metrics — is
          identical for every job count; only wall-clock changes. A run on
          a pool worker gets an inline pool ({!Cim_util.Pool.create}), so
          it runs serial. *)
  cache : Cim_cache.Store.t option;
      (** persistent per-segment tier (["seg"] entries, see
          {!Ccache.seg_key}): window solutions keyed by (signature,
          effective chip, the mode's alloc options), shared across models
          and process restarts. Looked up once per compile, by the calling
          domain, at each (window, mode)'s first occurrence in the scan;
          the solved windows' entries are written by the calling domain
          as their results arrive. Entries failing revalidation against
          the live window degrade to a miss. A hit does not re-fire the
          original solve's [on_stage] events. [None] (the default)
          disables the tier. *)
}

val default_options : options
(** {!Alloc.default_options}, window 10,
    [jobs] = {!Cim_util.Pool.default_jobs}, no persistent cache — the
    source of [Cmswitch.Config.default]. *)

(** Counted once per (window, mode). Windows share a solve by the mode and
    the window signature, so identical windows (transformer blocks) cost
    one solve per mode — the block reuse of Fig. 18. *)
type stats = {
  mip_solves : int;        (** MIP invocations actually performed *)
  mip_cache_hits : int;
  candidates : int;        (** (i, j) windows examined *)
  pruned_infeasible : int; (** windows rejected by the Alg. 1 line 9 test *)
}

val run :
  ?options:options -> ?on_stage:(Degrade.event -> unit) -> Cim_arch.Chip.t ->
  Opinfo.t array -> Plan.seg_plan list * stats
(** Optimal segmentation of the whole operator list, in three steps. A
    serial scan walks every frontier's candidate windows and gives each
    distinct (mode, signature) one slot, looked up in the seg tier at its
    first occurrence. The misses are solved as one batch per compile. The
    DP then folds frontier by frontier over the slots. Per-window
    allocation goes through the {!Degrade.solve} chain in each mode, so a
    node-limited MIP degrades to its incumbent or the greedy allocator
    instead of dropping the window; [on_stage] observes every such
    fallback in scan order (a window sharing a solve, or read from the seg
    tier, does not re-fire it). With [jobs > 1] the batch runs on a domain
    pool; [on_stage] callbacks and trace spans are replayed by the calling
    domain in queue order as each result arrives, so outputs are
    byte-identical to a [jobs = 1] run, and a solve that raises leaves
    every earlier solve's events delivered. Raises [Invalid_argument] when
    [options.jobs < 1] or [options.max_segment_ops < 1], and [Failure]
    when some operator cannot be scheduled at all (does not fit the chip
    alone — cannot happen for operator lists produced by {!Opinfo.extract}
    against the same chip). *)
