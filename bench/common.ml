(* Shared machinery for the experiment harness: compiler invocation with
   caching, end-to-end generative-model cost, and table helpers. *)

module Chip = Cim_arch.Chip
module Config = Cim_arch.Config
module Workload = Cim_models.Workload
module Zoo = Cim_models.Zoo
module Cmswitch = Cim_compiler.Cmswitch
module Segment = Cim_compiler.Segment
module Alloc = Cim_compiler.Alloc
module Plan = Cim_compiler.Plan
module Baseline = Cim_baselines.Baseline
module Table = Cim_util.Table
module Stats = Cim_util.Stats
module Pool = Cim_util.Pool

type compiler = Cms | Base of Baseline.which

let compiler_name = function
  | Cms -> "CMSwitch"
  | Base w -> Baseline.name w

let all_compilers = [ Base Baseline.Occ; Base Baseline.Puma; Base Baseline.Cim_mlc; Cms ]

(* (chip name, compiler, model, workload) -> (total cycles, mem ratio).
   The cache keeps repeated sweep points cheap; access is mutex-guarded so
   {!par_map} sweeps may fill it from pool workers. *)
let cache : (string * string * string * string, float * float) Hashtbl.t =
  Hashtbl.create 128

let cache_mutex = Mutex.create ()

let model_cost ?(chip = Config.dynaplasia) compiler key (w : Workload.t) =
  let ck =
    (chip.Chip.name, compiler_name compiler, key, Workload.to_string w)
  in
  Mutex.lock cache_mutex;
  let cached = Hashtbl.find_opt cache ck in
  Mutex.unlock cache_mutex;
  match cached with
  | Some r -> r
  | None ->
    let e =
      match Zoo.find key with
      | Some e -> e
      | None -> failwith ("unknown model " ^ key)
    in
    let r =
      match compiler with
      | Cms ->
        let mc = Cmswitch.compile_model chip e w in
        (mc.Cmswitch.total_cycles, mc.Cmswitch.mem_ratio)
      | Base which -> (Baseline.compile_model which chip e w, 0.)
    in
    (* two workers racing on one point compute the same value; last write
       wins harmlessly *)
    Mutex.lock cache_mutex;
    Hashtbl.replace cache ck r;
    Mutex.unlock cache_mutex;
    r

(* Evaluate independent sweep points on a pool. Each point compiles
   serially inside its worker (a pool created on a worker runs inline), so
   the domain count stays bounded by the pool size. Point order in the
   result is preserved; with one recommended domain this is exactly
   List.map. *)
let par_map f xs =
  let jobs = Pool.default_jobs () in
  if jobs > 1 then
    Pool.with_pool ~name:"bench-sweep" ~jobs (fun p -> Pool.map_list p f xs)
  else List.map f xs

(* wall-clock one call: its result and the elapsed seconds *)
let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* min over [n] timed calls, bench/perf's estimator: the harness shares
   the machine with other tenants, and the minimum is the
   least-disturbed sample. Returns the last call's result. *)
let best n f =
  let t = ref infinity and r = ref None in
  for _ = 1 to n do
    let v, d = time f in
    r := Some v;
    if d < !t then t := d
  done;
  (Option.get !r, !t)

let cycles ?chip compiler key w =
  let c, _ = model_cost ?chip compiler key w in
  c

let mem_ratio ?chip key w =
  let _, r = model_cost ?chip Cms key w in
  r

(* End-to-end generative inference: one prefill pass over the prompt, then
   [out_len] decode steps with a growing KV cache. The per-token decode
   latency is sampled at three cache lengths and integrated with the
   trapezoid rule — decode cost is close to linear in kv length, and the
   paper's own block-reuse argument licenses the same shortcut. *)
let generative_cycles ?chip compiler key ~batch ~in_len ~out_len =
  let prefill = cycles ?chip compiler key (Workload.prefill ~batch in_len) in
  if out_len <= 0 then prefill
  else begin
    let sample kv = cycles ?chip compiler key (Workload.decode ~batch kv) in
    let k0 = in_len and k2 = in_len + out_len - 1 in
    let k1 = (k0 + k2) / 2 in
    let c0 = sample k0 and c1 = sample k1 and c2 = sample k2 in
    let n = float_of_int out_len in
    (* trapezoid over the two halves *)
    let decode_total = (((c0 +. c1) /. 2.) +. ((c1 +. c2) /. 2.)) *. (n /. 2.) in
    prefill +. decode_total
  end

(* Fig. 14-style end-to-end cost at the paper's "sequence length 64". *)
let e2e_cycles ?chip compiler key =
  match (Zoo.find key : Zoo.entry option) with
  | Some { family = Zoo.Cnn; _ } ->
    cycles ?chip compiler key (Workload.prefill ~batch:1 1)
  | Some { family = Zoo.Encoder_only; _ } ->
    cycles ?chip compiler key (Workload.prefill ~batch:1 64)
  | Some { family = Zoo.Decoder_only; _ } ->
    generative_cycles ?chip compiler key ~batch:1 ~in_len:64 ~out_len:64
  | None -> failwith ("unknown model " ^ key)

let fig14_models =
  [ "mobilenetv2"; "resnet18"; "vgg16"; "bert-large"; "llama2-7b"; "opt-13b" ]

let section title =
  Printf.printf "\n==== %s ====\n%!" title
