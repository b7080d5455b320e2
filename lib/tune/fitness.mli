(** Fitness: reduce a clone's measured behaviour to one scalar the
    tuner minimises (0 is perfect, smaller is better).

    Two modes close the generation loop two different ways:

    - {b Mimic} — a weighted worst case over the paper's Section-3.1
      characteristics as scored by {!Pc_trace.Fidelity}: the fitness is
      the largest weighted error across all characteristics, over the
      global report {e and} every phase row it carries, so a clone
      cannot buy a good score on one characteristic (or one phase) by
      giving up another.  This is MicroGrad's fitness shape: the
      measured characteristic error fed back to the generator.
    - {b Stress} — distance from a requested performance envelope
      instead of from an original: the clone is run through the
      detailed timing model ({!Pc_uarch.Sim.run} on the base
      configuration) for IPC and power ({!Pc_power.Power.total}), and
      through the one-pass stack-distance cache study
      ({!Pc_caches.Study.run_trace_onepass}) for MPKI at the study's
      reference configuration.  Fitness is the largest relative
      distance |measured - target| / target over the requested targets,
      so a stress clone converges toward the envelope on every axis at
      once. *)

type weights = (string * float) list
(** Per-characteristic weights, keyed by the names of
    {!Pc_trace.Fidelity.characteristic_fields}.  Characteristics absent
    from the list weigh 1.0. *)

val default_weights : weights
(** Every characteristic at weight 1.0 except the two coarse size
    ratios ([sfg_block_ratio], [avg_block_size_ratio]) at 0.5: they
    guard against degenerate clones but should not dominate the
    distribution distances the paper cares about. *)

type envelope = {
  e_ipc : float option;  (** target IPC on {!Pc_uarch.Config.base} *)
  e_mpki : float option;
      (** target misses per kilo-instruction at the cache study's
          256 B direct-mapped reference configuration *)
  e_power : float option;  (** target total power (W) on the base config *)
}
(** A stress-clone performance envelope; [None] axes are unconstrained.
    At least one axis must be set, and every set target must be positive
    and finite. *)

val envelope : ?ipc:float -> ?mpki:float -> ?power:float -> unit -> envelope
(** Smart constructor; raises [Invalid_argument] on an empty or
    non-positive envelope. *)

val envelope_of_string : string -> (envelope, string) result
(** Parse a CLI spec like ["ipc=1.2,mpki=25,power=30"]. *)

type mode = Mimic of weights | Stress of envelope

val mode_id : mode -> string
(** Stable digest of the mode (weights or envelope), part of every
    tune-store key. *)

type eval = {
  fitness : float;
  components : (string * float) list;
      (** named sub-scores behind the worst case: weighted
          characteristic errors in mimic mode ([phaseN/] prefixed for
          phase rows), measured values ([ipc], [mpki], [power]) in
          stress mode *)
}

val error_components :
  weights -> Pc_trace.Fidelity.characteristics -> (string * float) list
(** The weighted per-characteristic errors of one comparison: raw
    distances for the five error fields, [1 - agreement] for
    [stride_agreement], |ln ratio| for the two size ratios.  Non-finite
    errors (degenerate ratios) clamp to 1e9 so they always lose. *)

val of_report : ?weights:weights -> Pc_trace.Fidelity.report -> eval
(** Mimic fitness of a fidelity report: worst weighted error over the
    global characteristics and every phase row.  Phase rows whose
    clone slice was empty (all-NaN characteristics) are skipped — an
    empty phase is a length artefact, not a generator error. *)

val measure_stress :
  ?max_instrs:int -> envelope -> Pc_isa.Program.t -> eval
(** Run the clone and score it against the envelope ([max_instrs]
    bounds both the timing-model run and the cache-study trace;
    default 200_000).  The [components] carry the measured values. *)

val measure :
  ?max_instrs:int ->
  ?phases:int * Pc_isa.Program.t ->
  bench:string ->
  original:Pc_profile.Profile.t ->
  mode:mode ->
  Pc_isa.Program.t ->
  eval
(** One candidate evaluation: in mimic mode, re-profile the clone
    ({!Pc_trace.Fidelity.measure} with [max_instrs] as the budget,
    plus {!Pc_trace.Fidelity.measure_phases} when [phases = (interval,
    original_program)] is given) and score with {!of_report}; in
    stress mode, {!measure_stress}.  Pure given its arguments — the
    tune store memoises it on disk. *)
