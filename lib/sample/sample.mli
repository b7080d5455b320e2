(** Sampled simulation: SimPoint-style interval selection.

    Detailed timing simulation of every dynamic instruction is the cost
    that dominates [run_experiments all]; most of those instructions sit
    in program phases the model has already seen.  This module implements
    the classic remedy (Sherwood et al.'s SimPoint, from the same
    simulation-methodology lineage as the paper): slice the dynamic
    stream into fixed-size intervals, summarise each interval by a
    basic-block-style execution-frequency vector, cluster the vectors
    with seeded k-means (random restarts, BIC-style k selection), and
    simulate in detail only one representative interval per cluster —
    preceded by a warmup prefix so caches and the branch predictor are
    primed — recombining per-cluster results into whole-program
    estimates weighted by cluster population.

    Everything is deterministic for a fixed seed: the functional
    profiling passes are exact replays, clustering draws all randomness
    from one {!Pc_util.Rng} stream, and the replay traces are recorded
    bit-exactly.  Plans are therefore safe to memoize and to compute
    from any {!Pc_exec.Pool} worker (nothing here spawns nested pool
    batches).

    Metrics published via {!Pc_obs.Metrics}: [sample.plans],
    [sample.intervals], [sample.clusters], [sample.projections],
    [sample.replayed_instrs] counters and the [sample.coverage_bp]
    high-water gauge (replayed fraction of the dynamic stream, in
    basis points). *)

type rep = {
  cluster : int;  (** cluster index in [0, k) *)
  start : int;  (** dynamic index of the first window instruction *)
  window : int;  (** measurement-window length in instructions *)
  warmup : int;  (** replayed warmup instructions before [start] *)
  weight : int;  (** dynamic instructions attributed to the cluster *)
  trace : int array;  (** packed replay events, warmup then window *)
}

type plan = {
  interval : int;  (** interval size the plan was built with *)
  total_instrs : int;  (** dynamic instructions in the full run *)
  n_intervals : int;
  k : int;  (** clusters chosen by the BIC-style rule *)
  dims : int;  (** BBV projection dimensionality *)
  coverage : float;  (** replayed fraction of the stream, incl. warmup *)
  reps : rep array;  (** one representative per cluster *)
  statics : Pc_funcsim.Machine.statics;  (** per-pc tables for replay *)
}

val auto_interval : max_instrs:int -> int
(** Interval size for a simulation budget of [max_instrs] dynamic
    instructions when the caller does not pick one:
    [min 1_000_000 (max 10_000 (max_instrs / 32))] — about 32 intervals
    per run, floored at 10k instructions (below that the basic-block
    vectors are noise) and capped at 1M (above that a single interval
    swallows the whole run).  This is what bare [--sample] and
    [--per-phase] use.  Raises [Invalid_argument] when [max_instrs]
    is not positive. *)

val bbv_dims : int
(** Dimensions of the per-interval vectors (32). *)

val max_k : int
(** The largest cluster count tried (6). *)

val restarts : int
(** Random k-means restarts per cluster count (3).  {!Plan_cache.key}
    digests these three constants, so a cached plan is never served for
    other values. *)

val plan :
  seed:int ->
  interval:int ->
  max_instrs:int ->
  Pc_isa.Program.t ->
  plan
(** Build a sampling plan: one functional pass collects per-interval
    vectors ({!bbv_dims} dimensions), k-means over k = 1..{!max_k} with
    {!restarts} random restarts each picks the phase clustering, and a
    second functional pass, which stops where the last representative
    ends, records each representative's packed replay trace.  Each
    representative's warmup is one full [interval], clipped at the
    start of the stream (a shorter warmup leaves a cold-start bias that
    overestimates CPI).  Raises [Invalid_argument]
    for a non-positive [interval] or a program that retires no
    instructions. *)

val replayed_instrs : plan -> int
(** The summed trace lengths, warmups included: what one replay of the
    plan steps. *)

type window = {
  instrs : int;  (** instructions past the warmup *)
  cycles : int;  (** commit cycles they cost; 0 when [instrs] is 0 *)
}
(** The part of a phase's run a projection prices, timed off the
    model's commit clock ({!Pc_uarch.Sim.committed_cycle}). *)

val window : instrs:int -> boundary:int -> commit:int -> window
(** The window of [instrs] instructions stepped between two readings of
    the commit clock: [max (commit - boundary) 1] cycles, or 0 when
    [instrs] is 0.  Statistical simulation's whole-run windows take
    [~boundary:0 ~commit:r.cycles]. *)

(** The one code that times a sampled window: a cursor over a plan's
    representatives that steps a timing state warmup first, then
    window, reading the commit clock at each warmup boundary and window
    end.  {!replay_phases} walks each representative alone on a fresh
    state; the co-run arbiter in [Pc_scenario] walks a tenant's plan on
    its one state, a quantum at a time. *)
module Walk : sig
  type t

  val create : plan -> t

  val step : t -> Pc_uarch.Sim.state -> quota:int -> int
  (** Step at most [quota] instructions, stopping at the current
      representative's warmup boundary or trace end, and return how
      many: 0 only once {!finished} or for a 0 quota. *)

  val finished : t -> bool

  val windows : t -> window array
  (** One per representative, in plan order; empty until closed. *)
end

val replay_phases :
  Pc_uarch.Config.t -> plan -> (rep * window * Pc_uarch.Sim.result) array
(** Replay every representative through the detailed timing model, a
    {!Walk} over it alone on a fresh {!Pc_uarch.Sim.create} state, and
    return its window beside the whole-run result, in plan order.  With
    warmup 0 the window is the whole run.  The phase array is the shared
    input of every projection below. *)

val recombine :
  config_name:string ->
  total_instrs:int ->
  (int * window * Pc_uarch.Sim.result) array ->
  Pc_uarch.Sim.result
(** [recombine ~config_name ~total_instrs phases] folds per-phase
    [(weight, window, result)] triples into a whole-program estimate:
    cycles are the sum over phases of population × the window's CPI;
    event counters are scaled from each result pro rata (population
    over the result's [instrs]).  Phases whose window retired no
    instructions or cost no cycles are skipped with a warning and their
    population re-attributed to the survivors (division-by-zero guard);
    if every phase is empty the projection degrades to IPC 1.0 with
    zeroed counters.  With no skipped phase the result is bit-identical
    to the unguarded fold. *)

val project_of_phases :
  plan -> (rep * window * Pc_uarch.Sim.result) array -> Pc_uarch.Sim.result
(** {!recombine} over an already-replayed phase array (weights taken
    from the plan's representatives).  Over [replay_phases cfg plan]
    this is the sampled timing projection: whole-program cycles are the
    sum over clusters of population × the representative's window CPI.
    Event counters (cache misses, branches, class counts — the power
    model's inputs) are scaled from each representative pro rata; the
    [ipc]/[cycles]/[instrs] fields estimate the full run. *)

val weighted_cpi : config_name:string -> plan -> window array -> float
(** The population-weighted CPI of one window per representative, as a
    co-run timed them: [sum weight * cycles / instrs] over the windows
    {!recombine} would keep, over their summed weight (the others are
    skipped with a warning), or 1.0 when none is kept.  Unlike
    {!recombine} it neither rescales nor rounds.  Raises
    [Invalid_argument] unless there is one window per representative. *)

val project_power_of_phases :
  Pc_uarch.Config.t -> plan -> (rep * window * Pc_uarch.Sim.result) array -> float
(** Population-weighted power projection from replayed phases: each
    valid phase contributes its projected cycle share (population ×
    window CPI) at the {!Pc_power.Power.total} of its window — the
    window's instructions and cycles, with the whole-run event counters
    pro-rata restricted to it, never the raw full-run counters.  Phases
    with an empty window are skipped with a warning; if none are valid
    the recombined {!project_of_phases} result is priced instead. *)

val project_mpi : ?onepass:bool -> plan -> float array
(** Replay every representative's data references through the paper's
    28-configuration cache study and project whole-program misses per
    instruction for each configuration, population-weighted like
    {!project_of_phases}.  One walk of a fresh {!Pc_caches.Study.grid}
    over a representative's warmup, window and window again reads two
    bounds: the first window's misses (cold, primed by the warmup alone)
    and the second's (warm, primed by the window's own lines too).
    Their midpoint cancels the cold-start overestimate that large
    configurations otherwise suffer.  [onepass] (default [false]) walks
    the one-pass grid instead; the projection is byte-identical. *)

val project_bpred : Pc_branch.Predictor.config list -> plan -> float array
(** The misprediction rate of each predictor configuration, in list
    order, without the timing model: every representative's conditional
    branches are replayed once through fresh predictors (a predictor
    sees only the retired (pc, taken) stream), and each phase's lookups
    and mispredictions are recombined with {!recombine}'s own weighting
    — the empty-window skip, the renormalisation and the rounding of the
    scaled counters.  Each rate therefore equals
    [Sim.mispredict_rate (project_of_phases plan (replay_phases
    (Config.with_bpred bp base) plan))] bit for bit, and is 0.0 when no
    window measured anything. *)

val feed_trace :
  Pc_uarch.Sim.state ->
  Pc_funcsim.Machine.statics ->
  int array ->
  pos:int ->
  len:int ->
  unit
(** [feed_trace sim statics trace ~pos ~len] steps the timing model
    through [\[pos, pos+len)] of a packed trace, with class, reads and
    write from the per-pc static tables; a {!Walk} feeds every replay
    through it.  Raises [Invalid_argument] on an out-of-bounds range. *)

val packed_pc : int -> int
val packed_mem_addr : int -> int
val packed_taken : int -> bool
(** The fields of one packed trace entry: the static pc, the effective
    byte address ([-1] when the instruction accessed no memory) and the
    conditional-branch outcome ([false] for every other instruction). *)
