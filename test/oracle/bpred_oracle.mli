(** The timing model as the oracle for functional misprediction rates. *)

val config : Pc_branch.Predictor.config -> Pc_uarch.Config.t
(** [Config.with_bpred bp Config.base]. *)

val rates :
  max_instrs:int -> Pc_branch.Predictor.config list -> Pc_isa.Program.t -> float array
(** [Sim.mispredict_rate (Sim.run ~max_instrs (Config.with_bpred bp
    Config.base) program)] for each [bp], in order. *)

val projected_rates :
  Pc_branch.Predictor.config list -> Pc_sample.Sample.plan -> float array
(** [Sim.mispredict_rate (Sample.project_of_phases plan
    (Sample.replay_phases (Config.with_bpred bp Config.base) plan))] for
    each [bp], in order. *)
