(* E13 — compilation cache: cold vs warm whole-program compile. A cold
   compile populates a content-addressed cache directory; a warm compile
   (fresh store handle on the same directory, as a new process would open)
   must hit the whole-program tier, replay a byte-identical program, and
   be substantially faster — the MILP window solves, which dominate cold
   compile time, are skipped entirely on replay. *)

open Common
module Store = Cim_cache.Store
module Ccache = Cim_compiler.Ccache
module Flow = Cim_metaop.Flow

let graph_of key =
  let e = Option.get (Zoo.find key) in
  match e.Zoo.family with
  | Zoo.Cnn -> e.Zoo.build (Workload.prefill ~batch:1 1)
  | Zoo.Encoder_only -> (Option.get e.Zoo.layer) (Workload.prefill ~batch:1 64)
  | Zoo.Decoder_only -> (Option.get e.Zoo.layer) (Workload.decode ~batch:1 64)

let run () =
  section "E13 | compilation cache: cold vs warm compile";
  let chip = Config.dynaplasia in
  let tbl =
    Table.create ~title:"whole-program cache replay (jobs=1)"
      [ ("model", Table.Left); ("cold (s)", Table.Right);
        ("warm (s)", Table.Right); ("speedup", Table.Right);
        ("prog hits", Table.Right); ("identical", Table.Left) ]
  in
  List.iter
    (fun key ->
      let g = graph_of key in
      let dir = Filename.temp_dir "cmswitch-bench-cache" "" in
      let compile store =
        let cfg = Cmswitch.Config.(default |> with_jobs 1 |> with_cache (Some store)) in
        let t0 = Unix.gettimeofday () in
        let r = Cmswitch.compile ~config:cfg chip g in
        (r, Unix.gettimeofday () -. t0)
      in
      let cold, t_cold = compile (Store.open_dir dir) in
      let warm_store = Store.open_dir dir in
      let warm, t_warm = compile warm_store in
      let hits = (Store.tier_counters warm_store Ccache.prog_tier).Store.hits in
      let identical =
        Flow.digest cold.Cmswitch.program = Flow.digest warm.Cmswitch.program
      in
      Table.add_row tbl
        [ key; Table.cell_f ~digits:3 t_cold; Table.cell_f ~digits:3 t_warm;
          Table.cell_speedup (t_cold /. Float.max 1e-6 t_warm);
          string_of_int hits; (if identical then "yes" else "NO") ];
      ignore (Store.clear warm_store))
    [ "bert-large"; "llama2-7b" ];
  Table.print tbl;
  print_endline
    "warm replay re-derives placement + codegen and re-validates the flow;\n\
     only the DP's MILP window solves are skipped - they dominate cold time"
