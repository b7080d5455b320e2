(** Drivers that regenerate every table and figure of the paper's
    evaluation (Section 5), plus the microarchitecture-dependent-baseline
    ablation.  Each driver returns plain data; [pp_*] printers render the
    same rows/series the paper reports. *)

type settings = {
  seed : int;
  profile_instrs : int;  (** profiling budget per benchmark *)
  sim_instrs : int;  (** timing/cache simulation budget per run *)
  clone_dynamic : int;  (** clone target dynamic length *)
  benchmarks : string list;  (** benchmark names; empty = all 23 *)
  sample : int option;
      (** [Some interval]: estimate timing, cache, power and
          statistical-simulation results by SimPoint-style sampled
          simulation ({!Pc_sample.Sample}) with the given interval size
          instead of simulating every dynamic instruction.  [None] (the
          default everywhere) leaves every figure byte-identical to
          unsampled operation. *)
  plan_cache : string option;
      (** [Some dir]: persist sampling plans on disk under [dir]
          ({!Pc_sample.Plan_cache}), so repeated sampled invocations skip
          plan construction.  Only consulted when [sample] is set. *)
  cache_onepass : bool;
      (** [true]: price every 28-configuration cache sweep with the
          one-pass stack-distance profiler
          ({!Pc_caches.Study.run_trace_onepass}) instead of 28 simulated
          caches — both the full-trace sweeps and the sampled
          {!Pc_sample.Sample.project_mpi} bounds.  Results are
          byte-identical to the simulated path (the test suite holds the
          two equal); only the cost changes.  Exposed as
          [--cache-onepass] on the CLI. *)
}

val default_settings : settings
(** seed 1, 1M profile instructions, 2M simulated instructions, 100k
    clone target, all benchmarks. *)

val quick_settings : settings
(** A fast configuration for tests and the quickstart example: 300k
    profile instructions, 500k simulated, and only five benchmarks. *)

val prepare : ?pool:Pc_exec.Pool.t -> settings -> Pipeline.t list
(** Run the cloning pipeline for the selected benchmarks, fanning the
    per-benchmark work out through [pool] (default: serial).  Results
    are in registry order and bit-identical at every pool width. *)

val sample_plan :
  settings -> interval:int -> Pc_isa.Program.t -> Pc_sample.Sample.plan
(** The sampling plan for a program under these settings, from
    {!Pc_sample.Plan_cache.plan} (memoized in process, and on disk when
    [settings.plan_cache] is set).  The CLI uses this to report
    per-program plan statistics without recomputing. *)

val sim_run :
  settings -> Pc_uarch.Config.t -> Pc_isa.Program.t -> Pc_uarch.Sim.result
(** The memoized base timing result for a program under these settings:
    a detailed {!Pc_uarch.Sim.run} when [settings.sample] is [None], the
    population-weighted projection over replayed representatives
    otherwise.  Shared by every figure that simulates the same
    (config, program) pair. *)

val prepare_sample : ?pool:Pc_exec.Pool.t -> settings -> Pipeline.t list -> unit
(** When [settings.sample] is set, build the sampling plan of every
    pipeline's original and clone program up front, fanning the
    (functional-profiling + clustering) work out through [pool].  A
    no-op with sampling off.  Drivers build missing plans lazily, so
    this is purely a parallelism optimisation — call it from the top
    level, never from inside a pool task. *)

val clear_caches : unit -> unit
(** Empty every memo this module reads — the cache-study MPI series,
    timing-model results, replayed sampling phases, clone-fidelity
    reports, the sampling-plan memo ({!Pc_sample.Plan_cache.clear_memo})
    and {!Pipeline.profile_store} — and reset their counters.  Tests
    use this to compare truly cold serial and parallel runs. *)

val power_total :
  settings -> Pc_uarch.Config.t -> Pc_isa.Program.t -> Pc_uarch.Sim.result -> float
(** Power of a simulated run under these settings.  Unsampled this is
    exactly {!Pc_power.Power.total} of the given result; with sampling
    on it is the population-weighted per-phase projection
    ({!Pc_sample.Sample.project_power_of_phases}) over the program's
    replayed representatives, ignoring the given (projected) result's
    whole-run counters. *)

val statsim_ipc : settings -> Pipeline.t -> float
(** Statistical-simulation IPC estimate for the pipeline's profile on
    the base configuration ([min 200_000 sim_instrs] synthetic
    instructions).  With sampling on, trace generation goes phase by
    phase ({!Pc_statsim.Statsim.estimate_sampled} over the original
    program's plan). *)

(** {1 Clone fidelity — pc-fidelity/1} *)

val fidelity_reports :
  ?pool:Pc_exec.Pool.t ->
  settings ->
  Pipeline.t list ->
  Pc_trace.Fidelity.report list
(** Re-profile every pipeline's clone ({!Pc_trace.Fidelity.measure} with
    [settings.profile_instrs] as the budget) and compare it with the
    original's profile.  Results are memoized per (clone program,
    original profile, budget) and deterministic at every pool width. *)

(** {1 Figure 3 — single-stride coverage} *)

val fig3 : Pipeline.t list -> (string * float) list
(** Per benchmark: fraction of dynamic memory references covered by the
    per-static-instruction single-stride approximation. *)

val pp_fig3 : Format.formatter -> (string * float) list -> unit

(** {1 Figures 4 and 5 — the 28-cache study} *)

type cache_study = {
  bench : string;
  correlation : float;
      (** Pearson's R between the clone's and the original's
          {!Pc_caches.Study.relative_mpi} series.  NaN when either
          program's reference configuration has no miss (a program
          with no data reference): its relative series is undefined,
          not flat.  Every cache-study R below (seeds, portable,
          ablation) follows the same rule, and a NaN R makes
          {!average_correlation} NaN. *)
  orig_mpi : float array;  (** 28 values, study-config order *)
  clone_mpi : float array;
}

val cache_studies :
  ?pool:Pc_exec.Pool.t -> settings -> Pipeline.t list -> cache_study list

val average_correlation : cache_study list -> float

val pp_fig4 : Format.formatter -> cache_study list -> unit

val rankings_scatter : cache_study list -> (float * float) array
(** Figure 5: for each of the 28 configurations, the average rank (1 =
    fewest misses per instruction) assigned by the real benchmarks and by
    the clones. *)

val pp_fig5 : Format.formatter -> (float * float) array -> unit

(** {1 Figures 6 and 7 — base-configuration IPC and power} *)

type base_run = {
  bench : string;
  ipc_orig : float;
  ipc_clone : float;
  power_orig : float;
  power_clone : float;
}

val base_runs : ?pool:Pc_exec.Pool.t -> settings -> Pipeline.t list -> base_run list

val avg_abs_error : ('a -> float * float) -> 'a list -> float
(** Average absolute relative error of a metric selector over the rows
    (selector returns (original, clone)): Figures 6 and 7 over base
    runs, Table 3 over each change's IPC and power ratios. *)

val ipc_of : base_run -> float * float
val power_of : base_run -> float * float
val pp_fig6 : Format.formatter -> base_run list -> unit
val pp_fig7 : Format.formatter -> base_run list -> unit

(** {1 Table 3 and Figures 8/9 — design-change tracking} *)

type design_change = {
  change : string;  (** the paper's description of the change *)
  config : Pc_uarch.Config.t;
}

val design_changes : unit -> design_change list
(** The paper's five changes, in Table-3 order: double ROB+LSQ, halve
    L1-D, double widths, not-taken predictor, in-order issue. *)

type change_result = {
  change_name : string;
  per_bench : (string * float * float * float * float) list;
      (** bench, orig base metric..: (ipc_orig_new/base ratio, clone ratio,
          power orig ratio, power clone ratio) *)
  avg_ipc_error : float;  (** the paper's RE_X averaged over benchmarks *)
  avg_power_error : float;
}

val run_design_changes :
  ?pool:Pc_exec.Pool.t -> settings -> Pipeline.t list -> change_result list

val pp_table3 : Format.formatter -> change_result list -> unit

val pp_fig8 : Format.formatter -> change_result -> unit
(** Per-benchmark IPC speedups (real vs clone) for one design change —
    the paper shows the width-doubling change. *)

val pp_fig9 : Format.formatter -> change_result -> unit
(** Per-benchmark power increase for the same change. *)

(** {1 Robustness — clone quality across generation seeds} *)

type seed_robustness = {
  sr_bench : string;
  sr_correlations : float array;  (** Figure-4 R for each seed *)
  sr_min : float;
  sr_max : float;
}

val seed_robustness :
  ?pool:Pc_exec.Pool.t ->
  settings ->
  Pipeline.t list ->
  seed_robustness list
(** Regenerate each clone under seeds 1 to 5
    and measure the spread of the cache-study correlation: the sampling
    in the generator must not make clone quality a lottery. *)

val pp_seed_robustness : Format.formatter -> seed_robustness list -> unit

(** {1 Ablation — statistical simulation vs synthetic clone} *)

type statsim_row = {
  ss_bench : string;
  ss_ipc_orig : float;
  ss_ipc_clone : float;  (** IPC of the synthetic clone on the base config *)
  ss_ipc_statsim : float;  (** IPC estimated by statistical simulation *)
}

val statsim_comparison :
  ?pool:Pc_exec.Pool.t -> settings -> Pipeline.t list -> statsim_row list
(** Base-configuration IPC: original vs clone vs the trace-based
    statistical-simulation estimate (see {!Pc_statsim.Statsim}). *)

val pp_statsim : Format.formatter -> statsim_row list -> unit

(** {1 Extension — branch-predictor study} *)

val bpred_configs : Pc_branch.Predictor.config list
(** Ten predictor configurations spanning static, bimodal (3 sizes),
    gshare, GAp, PAp and tournament designs. *)

type bpred_study = {
  bp_bench : string;
  bp_correlation : float;  (** Pearson's R between the original's and the
                               clone's misprediction rates across the
                               predictor configurations *)
  bp_orig_rates : float array;
  bp_clone_rates : float array;
}

val bpred_rates : settings -> Pc_isa.Program.t -> float array
(** The misprediction rate of every {!bpred_configs} entry, in order,
    for one program, from one functional pass that feeds all ten
    predictors in retire order (SimpleScalar's [sim-bpred] role); no
    timing model runs.  A predictor sees only the retired (pc, taken)
    stream of conditional branches, so each rate equals
    [Sim.mispredict_rate (sim_run settings (Config.with_bpred bp
    Config.base) program)] bit for bit.  Unsampled, the pass is one
    {!Pc_funcsim.Machine.run_batched} over [settings.sim_instrs]
    instructions; sampled, it is {!Pc_sample.Sample.project_bpred} over
    the program's plan.  Not memoized. *)

val bpred_studies :
  ?pool:Pc_exec.Pool.t -> settings -> Pipeline.t list -> bpred_study list
(** The analogue of the 28-cache study for branch predictors: price
    original and clone under every {!bpred_configs} entry
    ({!bpred_rates}) and correlate misprediction rates.  Supports the
    paper's claim that the clone tracks "a wide range of ... branch
    predictor configurations". *)

val pp_bpred : Format.formatter -> bpred_study list -> unit

(** {1 Extension — portable (virtual-ISA) clones} *)

type portable_row = {
  po_bench : string;
  po_asm_correlation : float;  (** cache-study R of the SRISC clone *)
  po_kc_correlation : float;  (** cache-study R of the Kc-source clone, compiled *)
}

val portable_comparison :
  ?pool:Pc_exec.Pool.t -> settings -> Pipeline.t list -> portable_row list
(** The paper's Section-6 portability extension: clones generated as Kc
    source ({!Pc_synth.Portable}) and compiled with the Kc back end,
    compared on the 28-cache study against the direct SRISC clones. *)

val pp_portable : Format.formatter -> portable_row list -> unit

(** {1 Ablation — microarchitecture-dependent baseline} *)

type ablation_row = {
  ab_bench : string;
  indep_correlation : float;  (** our clone's Figure-4 R *)
  dep_correlation : float;  (** the microarchitecture-dependent baseline's R *)
}

val ablation :
  ?pool:Pc_exec.Pool.t -> settings -> Pipeline.t list -> ablation_row list

val pp_ablation : Format.formatter -> ablation_row list -> unit
