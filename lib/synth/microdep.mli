(** Microarchitecture-{b dependent} baseline synthesizer.

    Earlier workload synthesis (Bell & John) modelled memory and branch
    behaviour by matching target metrics measured on one reference
    configuration — a cache miss rate and a branch misprediction rate —
    rather than inherent program properties.  The paper's motivation is
    that such clones "yield large errors when the cache and branch
    configurations are changed".  This module implements that baseline so
    the claim can be reproduced (the ablation experiment):

    - memory: a fraction of references equal to the target miss rate
      walks a region far larger than the reference L1 (missing always);
      the rest hit a fixed address — the miss rate matches the reference
      configuration by construction and is insensitive to cache changes;
    - branches: directions are pseudo-random with a bias chosen so the
      reference predictor mispredicts at the target rate — predictability
      does not track the original program on other predictors. *)

type targets = {
  l1d_miss_rate : float;  (** misses per D-cache access on the reference config *)
  mispredict_rate : float;  (** mispredictions per conditional branch *)
}

val measure_targets :
  ?max_instrs:int -> Pc_uarch.Config.t -> Pc_isa.Program.t -> targets
(** The original's L1 D-cache miss rate and misprediction rate on the
    reference configuration, exactly as a {!Pc_uarch.Sim.run} with the
    same [max_instrs] (default 10M) would report them.  Both depend only
    on retire order, so they come from one functional pass that feeds
    the loads and stores to the configuration's D-side hierarchy and the
    conditional branches to its predictor; no timing model runs. *)

val generate :
  ?seed:int ->
  ?target_dynamic:int ->
  profile:Pc_profile.Profile.t ->
  targets:targets ->
  unit ->
  Pc_isa.Program.t
(** Build the baseline clone: global instruction mix and dependency
    distances come from the (microarchitecture-independent) profile, but
    locality and branch behaviour are generated to match [targets]. *)
