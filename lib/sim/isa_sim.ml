module Check = Cim_metaop.Check
module Isa = Cim_metaop.Isa

let run chip ?faults ?rng ?max_switch_retries ?jobs ?backend g (img : Isa.image)
    ~inputs =
  (* the entry check: the stream must raise back to a flow (balanced
     brackets) that the static checker accepts before the sequencer
     starts *)
  let invalid m = raise (Functional.Error ("invalid command stream: " ^ m)) in
  (match Check.run chip ?faults (Isa.to_flow img) with
  | [] -> ()
  | d :: _ -> invalid (Check.diagnostic_to_string d)
  | exception Invalid_argument m -> invalid m);
  Functional.execute chip ?faults ?rng ?max_switch_retries ?jobs ?backend g img
    ~inputs
