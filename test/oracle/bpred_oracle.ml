(* Misprediction rates priced the slow way, by the timing model: one
   detailed run or sampled projection per predictor configuration, on
   the base configuration with only the predictor swapped.  The
   functional predictor passes must reproduce these floats exactly. *)

module Config = Pc_uarch.Config
module Sim = Pc_uarch.Sim

let config bp = Config.with_bpred bp Config.base

let rates ~max_instrs configs program =
  Array.of_list
    (List.map
       (fun bp -> Sim.mispredict_rate (Sim.run ~max_instrs (config bp) program))
       configs)

let projected_rates configs plan =
  Array.of_list
    (List.map
       (fun bp ->
         let module Sample = Pc_sample.Sample in
         Sim.mispredict_rate
           (Sample.project_of_phases plan (Sample.replay_phases (config bp) plan)))
       configs)
