module Flow = Cim_metaop.Flow
module Isa = Cim_metaop.Isa

let run chip ?faults ?rng ?max_switch_retries ?jobs ?backend g (img : Isa.image)
    ~inputs =
  (* the entry check: the stream must raise back to a flow the static
     validator accepts (balanced brackets, coords in range, no mode
     conflicts inside a block) before the sequencer starts *)
  let invalid m = raise (Functional.Error ("invalid command stream: " ^ m)) in
  (match Flow.validate chip (Isa.to_flow img) with
  | Ok () -> ()
  | Error m -> invalid m
  | exception Invalid_argument m -> invalid m);
  Functional.execute chip ?faults ?rng ?max_switch_retries ?jobs ?backend g img
    ~inputs
