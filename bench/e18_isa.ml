(* E18 — lowered MMIO command-stream backend: flatten compiled meta-operator
   programs onto the ISA (command FIFO words + DMA descriptors) and measure
   the encoded stream. The round-trip column checks that decoding the bytes
   gives back the image and that raising the flat stream back to a Flow
   program reproduces the compiler's bytes; CI asserts it. The machine
   simulator's digest contract (the stream decoded from its bytes runs to
   Functional.run's digest at jobs 1 and 4) is t_pipeline's machine
   differential. *)

open Common
module Flow = Cim_metaop.Flow
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
      let img = Isa.of_flow r.Cmswitch.program in
      let bytes = Isa.encode img in
      let trip =
        Isa.decode bytes = Ok img
        && Flow.to_string (Isa.to_flow img) = Flow.to_string r.Cmswitch.program
      in
      Table.add_row tbl
        [ key; scope;
          string_of_int (Isa.cmd_count img);
          string_of_int (Isa.word_count img);
          string_of_int (String.length bytes);
          Table.cell_f ~digits:1
            (float_of_int (String.length bytes) /. float_of_int (Isa.cmd_count img));
          (if trip then "yes" else "NO") ])
    [ ("resnet18", "whole network"); ("bert-large", "one encoder block") ];
  Table.print tbl;
  print_endline
    "round trip = decode(encode(img)) = img and raising the flat stream back\n\
     to a Flow program reproduces the compiler's bytes"
