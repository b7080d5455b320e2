(** Interval analysis: a closed-form analytical IPC estimate.

    The third estimator family next to detailed timing simulation and
    trace-based statistical simulation (Eyerman, Eeckhout, Karkhanis &
    Smith's interval model, from the same research lineage as the paper):
    execution is a base interval of steady-state dispatch punctuated by
    miss events, so

    {v cycles = N/D + mispredicts × (depth + resolution)
              + long-latency misses (beyond the MLP overlap) × latency v}

    where [D] is the effective dispatch rate (bounded by width and by the
    ILP the dependency-distance profile allows).

    Miss-event counts come from the counters of a run of the timing
    model: {!of_program} runs the full {!Pc_uarch.Sim.run} with the
    caller's configuration, so it costs as much as the detailed
    simulation it approximates; {!of_profile} takes them from the
    statistical simulator's synthetic trace.  Nothing in the library or
    the tools calls this module; the tests hold its estimates against
    detailed simulation. *)

type estimate = {
  ipc : float;
  base_cycles : float;  (** dispatch-limited cycles *)
  branch_cycles : float;  (** misprediction penalty cycles *)
  memory_cycles : float;  (** exposed long-latency miss cycles *)
}

val of_counters : Pc_uarch.Config.t -> Pc_uarch.Sim.result -> estimate
(** Apply the interval formula to the event counters of an existing
    run.  Only the counter fields of the result are read — never
    [cycles] — so a timing result can be cross-checked against the
    analytical model for free. *)

val of_program :
  ?max_instrs:int -> Pc_uarch.Config.t -> Pc_isa.Program.t -> estimate
(** Run the timing model ({!Pc_uarch.Sim.run} with [cfg], at most
    [max_instrs] instructions, default 2M) and apply the interval formula
    to the run's miss-event counters. *)

val of_profile :
  ?seed:int -> ?instrs:int -> Pc_uarch.Config.t -> Pc_profile.Profile.t -> estimate
(** Same formula, with the miss events counted on the synthetic trace the
    statistical simulator generates from the profile. *)
