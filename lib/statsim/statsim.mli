(** Statistical simulation: estimate performance directly from a profile,
    without synthesizing a program.

    This is the technique the paper builds on (Oskin, Eeckhout, Nussbaum —
    Section 2): a short synthetic {e trace} is generated from the
    statistical profile and run through a processor timing model.  The
    trace generator here walks the statistical flow graph exactly like
    the clone generator does, but emits abstract retired instructions
    instead of code; the paper's microarchitecture-independent memory
    and branch models supply addresses and branch outcomes, and each
    instruction steps the same {!Pc_uarch.Sim} scheduler used for real
    binaries ({!Pc_uarch.Sim.step}).

    The comparison with the synthetic clone is the interesting ablation:
    statistical simulation is cheaper (no code generation or functional
    execution) and typically as accurate for a fixed configuration, but
    the trace cannot be compiled, shipped, or run on real hardware — the
    dissemination property that motivates performance cloning. *)

val estimate :
  ?seed:int ->
  ?instrs:int ->
  Pc_uarch.Config.t ->
  Pc_profile.Profile.t ->
  Pc_uarch.Sim.result
(** [estimate cfg profile] synthesizes a trace of [instrs] (default
    100 000) instructions from the profile and schedules it on [cfg].
    Deterministic in [seed]. *)

val estimate_sampled :
  ?seed:int ->
  ?instrs:int ->
  plan:Pc_sample.Sample.plan ->
  Pc_uarch.Config.t ->
  Pc_profile.Profile.t ->
  Pc_uarch.Sim.result
(** Phase-aware statistical simulation: generate one short trace per
    representative in the sampling plan — seeded at the profile node that
    dominates the phase's measurement window, with the [instrs] budget
    (default 100 000) split across phases by cluster population — and
    recombine the per-phase results population-weighted via
    {!Pc_sample.Sample.recombine}, each phase's whole synthetic run its
    window (it has no warmup).  One RNG stream drives all phases, so
    the result is deterministic in [seed] (and independent of pool
    width).  The projected [instrs]/[cycles] speak for the plan's full
    run, like the detailed sampled projection. *)
