(* E18 — the MMIO command stream (CMSI, the flow's wire format): encode
   compiled meta-operator programs (command FIFO words + DMA descriptors)
   and measure the encoded stream. The round-trip column checks that
   decoding the bytes gives back the compiler's program; CI asserts it.
   The simulator's digest contract (the program decoded from its bytes
   runs to the same digest at jobs 1 and 4) is t_pipeline's machine
   differential. *)

open Common
module Isa = Cim_metaop.Isa

let run () =
  section "E18 | MMIO command-stream ISA: lowering";
  let chip = Config.dynaplasia in
  let tbl =
    Table.create ~title:"lowered command streams"
      [ ("model", Table.Left); ("scope", Table.Left);
        ("commands", Table.Right); ("words", Table.Right);
        ("bytes", Table.Right); ("bytes/cmd", Table.Right);
        ("round trip", Table.Left) ]
  in
  List.iter
    (fun (key, scope) ->
      let e = Option.get (Zoo.find key) in
      let g =
        match e.Zoo.family with
        | Zoo.Cnn -> e.Zoo.build (Workload.prefill ~batch:1 1)
        | _ -> (Option.get e.Zoo.layer) (Workload.prefill ~batch:1 64)
      in
      let r = Cmswitch.compile ~config:Cmswitch.Config.(default |> with_jobs 1) chip g in
      let p = r.Cmswitch.program in
      let bytes = Isa.encode p in
      Table.add_row tbl
        [ key; scope;
          string_of_int (Isa.cmd_count p);
          string_of_int (Isa.word_count p);
          string_of_int (String.length bytes);
          Table.cell_f ~digits:1
            (float_of_int (String.length bytes) /. float_of_int (Isa.cmd_count p));
          (if Isa.decode bytes = Ok p then "yes" else "NO") ])
    [ ("resnet18", "whole network"); ("bert-large", "one encoder block") ];
  Table.print tbl;
  print_endline "round trip = decoding the bytes gives back the compiler's program"
