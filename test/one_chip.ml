(* Fleet.run as plain FCFS with deadline admission: one chip, no fault
   schedule, a fixed plan, and the shed tier off. [slo] is the per-request
   deadline. The serving tests pin this view against analytic values. *)

module Fleet = Cim_sim.Fleet

let serve ?slo profile trace =
  Fleet.run
    ~config:
      { Fleet.default_config with
        Fleet.chips = 1; slo; shed_output = max_int; jobs = 1 }
    ~chip:Cim_arch.Config.dynaplasia
    (fun ~chip:_ ~faults:_ -> Some { Fleet.level = 0; profile })
    [] trace
