(** Key derivation and payload (de)serialisation for the two compilation
    cache tiers (see docs/ARCHITECTURE.md §11).

    Keys are canonical strings — byte-identical across runs and processes —
    hashed by {!Cim_cache.Store} into entry addresses. Floats are rendered
    with [%h] (exact binary64 hex) so no precision is lost and no locale or
    shortest-round-trip printer can drift the key.

    Payloads travel as JSON ({!Cim_obs.Json}; no [Marshal], so a payload
    from another compiler version parses or fails cleanly, never
    segfaults). Deserialisation is defensive: any missing field, wrong
    type, or out-of-range index is an [Error], which callers turn into a
    cache miss. Segment plans are stored {e normalised} to [lo = 0] (so
    identical windows share an entry wherever they sit in the network) and
    without their [intra_cycles] — the loader recomputes the latency from
    the cost model, so a corrupted float cannot perturb the DP. *)

(** {2 Canonical key fragments} *)

val chip_canonical : Cim_arch.Chip.t -> string
(** Every solver-visible chip parameter, in fixed field order. *)

val faults_canonical : Cim_arch.Faultmap.t option -> string
(** The full fault assignment (coordinates, kinds, probabilities);
    ["faults:none"] when healthy. *)

val alloc_canonical : Alloc.options -> string
(** ["alloc.v2{...}"]: the MILP node budget, refinement and the
    compute-only restriction. *)

(** {2 Per-segment tier} *)

val seg_tier : string
(** Tier name ["seg"]. *)

val seg_key :
  chip:Cim_arch.Chip.t -> alloc:Alloc.options -> signature:string -> string
(** Key of one solved window: the structural window signature
    ({!Segment.run}'s memo key: per-op cost constants and intra-window
    dependency pattern) under the effective chip and allocation options that
    produced the solution. *)

val seg_payload_to_string : Plan.seg_plan option -> string
(** [None] records a genuinely infeasible window — caching infeasibility
    avoids re-proving it. The plan is stored re-anchored at [lo = 0]
    ({!Plan.shift}), so one entry serves the window wherever it recurs. *)

val seg_payload_of_string :
  chip:Cim_arch.Chip.t -> ops:Opinfo.t array -> lo:int -> hi:int -> string ->
  (Plan.seg_plan option, string) result
(** Decode and {e validate} a cached window solution against the live
    window [ops.(lo..hi)]: shape (one alloc per operator, uids in order),
    reuse triples in range and bounded by the allocs they connect, and
    {!Alloc.plan_feasible} on the re-anchored plan. The result is shifted
    to [lo..hi] with [intra_cycles] recomputed from the cost model.
    [Ok None] replays a cached infeasibility verdict. *)

val revalidate_plan :
  chip:Cim_arch.Chip.t -> ops:Opinfo.t array -> Plan.seg_plan ->
  (Plan.seg_plan, string) result
(** Validate a plan anchored at its own [lo..hi] against the live operator
    list and chip, recomputing [intra_cycles] from the cost model. Used by
    both tiers before a cached plan is trusted. *)

(** {2 Whole-program tier} *)

val prog_tier : string
(** Tier name ["prog"]. *)

val prog_key :
  ?shape:string -> graph_text:string -> chip:Cim_arch.Chip.t ->
  faults:Cim_arch.Faultmap.t option -> config:string -> passes:string ->
  unit -> string
(** Key of one whole compilation, under the epoch line ["prog.v2"]:
    canonical graph text ({!Cim_nnir.Text.to_string}), chip, fault map,
    the canonical unified-config serialisation
    ([Cmswitch.Config.canonical]), the active pass-list fingerprint
    ([Passes.fingerprint], a ["passes.v1[...]"] line — a reordered or
    customised pipeline can never replay a program cached under a
    different one), and an optional versioned shape fragment. When a
    bucket policy is active the caller passes [?shape] as a
    ["shape.v1(...)"] line keyed on the bucket ceiling (never the raw
    length), so every length inside a bucket derives the same key; without
    bucketing the fragment is the literal ["shape:none"]. The epoch moved
    from ["prog.v1"] when the payload's digest became
    {!Cim_metaop.Isa.digest}, so an older cache's prog entries miss and
    are never read. *)

val shape_fragment : Bucket.t -> ceil:int -> string
(** The [?shape] line of {!prog_key} for a program compiled at bucket
    ceiling [ceil] under policy [b]:
    ["shape.v1(<Bucket.canonical b>:ceil=<ceil>)"]. *)

val bucket_ceiling : string -> int option
(** The ceiling a prog key's {!shape_fragment} records. [None] for an
    unbucketed key (["shape:none"]), for a key that is not a [prog.v2]
    key (a [prog.v1] key of an older cache included), and for a
    malformed fragment. Never raises. *)

type prog_payload = {
  segments : Plan.seg_plan list;  (** the chosen segmentation, in order *)
  cmsi_md5 : string;              (** {!Cim_metaop.Isa.digest} of the emitted
                                      program — replay regenerates the program and
                                      must reproduce this digest exactly *)
  mip_solves : int;
  mip_cache_hits : int;
  candidates : int;
  pruned_infeasible : int;
  events : Degrade.event list;    (** degradation ladder events to replay *)
}

val prog_payload_to_string : prog_payload -> string

val prog_payload_of_string : string -> (prog_payload, string) result
(** Structural decode only. The caller must still re-derive placement and
    code generation from [segments] and re-validate with
    {!Cim_metaop.Check} before trusting the entry. *)
