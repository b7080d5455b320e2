module Machine = Pc_funcsim.Machine
module Study = Pc_caches.Study
module Stats = Pc_stats.Stats
module Config = Pc_uarch.Config
module Sim = Pc_uarch.Sim
module Predictor = Pc_branch.Predictor
module Power = Pc_power.Power
module Profile = Pc_profile.Profile
module Pool = Pc_exec.Pool
module Store = Pc_exec.Store
module Span = Pc_obs.Span

let log_src = Logs.Src.create "perfclone" ~doc:"Performance-cloning experiment progress"

module Log = (val Logs.src_log log_src : Logs.LOG)

type settings = {
  seed : int;
  profile_instrs : int;
  sim_instrs : int;
  clone_dynamic : int;
  benchmarks : string list;
  sample : int option;
  plan_cache : string option;
  cache_onepass : bool;
}

let default_settings =
  {
    seed = 1;
    profile_instrs = 1_000_000;
    sim_instrs = 2_000_000;
    clone_dynamic = 100_000;
    benchmarks = [];
    sample = None;
    plan_cache = None;
    cache_onepass = false;
  }

let quick_settings =
  {
    seed = 1;
    profile_instrs = 300_000;
    sim_instrs = 500_000;
    clone_dynamic = 50_000;
    benchmarks = [ "crc32"; "qsort"; "sha"; "fft"; "dijkstra" ];
    sample = None;
    plan_cache = None;
    cache_onepass = false;
  }

let prepare ?(pool = Pool.serial) settings =
  Span.with_ "prepare" @@ fun () ->
  let names =
    match settings.benchmarks with
    | [] -> Pc_workloads.Registry.names
    | names -> names
  in
  Log.info (fun m -> m "preparing %d benchmark pipelines" (List.length names));
  Pool.map pool
    (fun name ->
      let p =
        Pipeline.clone_benchmark ~seed:settings.seed
          ~profile_instrs:settings.profile_instrs
          ~target_dynamic:settings.clone_dynamic name
      in
      Log.info (fun m -> m "prepared %s" name);
      p)
    names

(* --- memoized simulation primitives ---

   Every driver below re-simulates the same programs: cache_studies,
   seed_robustness, portable_comparison and ablation all trace the
   original; base_runs, run_design_changes and statsim_comparison all
   run the base-configuration timing model.  Results are memoized under
   a structural digest of (program digest, budget[, config]), so one
   [run_experiments all] invocation computes each artefact once.  All
   simulations are deterministic, so racing pool workers store identical
   values. *)

let key program rest = Pc_sample.Plan_cache.(structural (program_digest program, rest))

let trace_store : (string, float array) Store.t = Store.create ~name:"trace" ()
let sim_store : (string, Sim.result) Store.t = Store.create ~name:"sim" ()

let phase_store :
    (string, (Pc_sample.Sample.rep * Pc_sample.Sample.window * Sim.result) array) Store.t =
  Store.create ~name:"sample.phases" ()

let fidelity_store : (string, Pc_trace.Fidelity.report) Store.t =
  Store.create ~name:"fidelity" ()

let clear_caches () =
  Store.clear trace_store;
  Store.clear sim_store;
  Pc_sample.Plan_cache.clear_memo ();
  Store.clear phase_store;
  Store.clear fidelity_store;
  Store.clear Pipeline.profile_store

(* Sampling plans are keyed per (program, budget, interval, seed) and
   shared by every estimator that simulates the same program: the timing
   model reuses the plan across all configurations (the BBV phases are
   microarchitecture-independent), and the cache study replays the same
   representative traces.  With [settings.plan_cache] set, plans also
   persist on disk across invocations: {!Pc_sample.Plan_cache.plan}'s
   in-process memo stays the first line, the disk cache backs it. *)
let sample_plan settings ~interval program =
  Pc_sample.Plan_cache.plan ?dir:settings.plan_cache ~seed:settings.seed ~interval
    ~max_instrs:settings.sim_instrs program

(* Replayed phase results are microarchitecture-dependent (one array per
   configuration) and feed both the timing and the power projections, so
   one replay pass per (config, program) serves every figure. *)
let sampled_phases settings ~interval config program =
  Store.find_or_compute phase_store
    (key program ("sampled-phases", config, settings.sim_instrs, interval, settings.seed))
    (fun () ->
      Pc_sample.Sample.replay_phases config (sample_plan settings ~interval program))

let prepare_sample ?(pool = Pool.serial) settings pipelines =
  match settings.sample with
  | None -> ()
  | Some interval ->
    Span.with_ "sample_plans" @@ fun () ->
    let programs =
      List.concat_map
        (fun (p : Pipeline.t) -> [ p.Pipeline.original; p.Pipeline.clone ])
        pipelines
    in
    Log.info (fun m ->
        m "building %d sampling plans (interval %d)" (List.length programs) interval);
    ignore
      (Pool.map pool
         (fun program -> ignore (sample_plan settings ~interval program))
         programs)

(* --- clone fidelity ---

   Re-profiles each clone with the same budget that profiled the
   original and compares the two profiles on the paper characteristics.
   Keyed by (clone program, original profile, budget): the comparison is
   a pure function of those, so a [run_experiments all] and a later
   [--fidelity-out] share the work. *)

let fidelity_reports ?(pool = Pool.serial) settings pipelines =
  Span.with_ "fidelity" @@ fun () ->
  Log.info (fun m -> m "measuring clone fidelity for %d benchmarks" (List.length pipelines));
  Pool.map pool
    (fun (p : Pipeline.t) ->
      Store.find_or_compute fidelity_store
        (key p.Pipeline.clone (p.Pipeline.profile, settings.profile_instrs))
        (fun () ->
          Pc_trace.Fidelity.measure ~max_instrs:settings.profile_instrs
            ~bench:p.Pipeline.name ~original:p.Pipeline.profile
            p.Pipeline.clone))
    pipelines

(* --- Figure 3 --- *)

let fig3 pipelines =
  List.map
    (fun (p : Pipeline.t) -> (p.Pipeline.name, p.Pipeline.profile.Profile.single_stride_fraction))
    pipelines

let pp_fig3 ppf rows =
  Format.fprintf ppf "Figure 3: dynamic references covered by a single stride@.";
  List.iter
    (fun (name, frac) -> Format.fprintf ppf "  %-14s %6.1f%%@." name (100.0 *. frac))
    rows;
  let avg = Stats.mean (Array.of_list (List.map snd rows)) in
  Format.fprintf ppf "  %-14s %6.1f%%@." "average" (100.0 *. avg)

(* --- Figures 4 and 5 --- *)

type cache_study = {
  bench : string;
  correlation : float;
  orig_mpi : float array;
  clone_mpi : float array;
}

(* The one-pass results are byte-identical to the simulated ones, but
   the memo keys are still tagged with the path so that a mixed-flag
   process (e.g. the onepass-equivalence tests) never serves one path's
   cached series as evidence the other path agrees. *)
let mpi_trace settings program =
  let max_instrs = settings.sim_instrs in
  let mpis =
    match settings.sample with
    | None ->
      Store.find_or_compute trace_store
        (key program (max_instrs, settings.cache_onepass))
        (fun () ->
          let feed = Machine.run_data_refs ~max_instrs (Machine.load program) in
          let results =
            if settings.cache_onepass then Study.run_trace_onepass feed
            else Study.run_trace feed
          in
          Array.map (fun (r : Study.result) -> r.Study.mpi) results)
    | Some interval ->
      Store.find_or_compute trace_store
        (key program
           ("sampled-mpi", max_instrs, interval, settings.seed, settings.cache_onepass))
        (fun () ->
          Pc_sample.Sample.project_mpi ~onepass:settings.cache_onepass
            (sample_plan settings ~interval program))
  in
  Array.copy mpis

let sim_run settings config program =
  let max_instrs = settings.sim_instrs in
  match settings.sample with
  | None ->
    Store.find_or_compute sim_store (key program (config, max_instrs)) (fun () ->
        Sim.run ~max_instrs config program)
  | Some interval ->
    Store.find_or_compute sim_store
      (key program ("sampled-sim", config, max_instrs, interval, settings.seed))
      (fun () ->
        Pc_sample.Sample.project_of_phases
          (sample_plan settings ~interval program)
          (sampled_phases settings ~interval config program))

(* Power under sampling reuses the replayed phases: population-weighted
   per-phase energy from each representative's measurement window, never
   the whole-run counters (which would price the warmup prefix too).
   Unsampled, this is exactly [Power.total]. *)
let power_total settings config program (r : Sim.result) =
  match settings.sample with
  | None -> Power.total config r
  | Some interval ->
    Pc_sample.Sample.project_power_of_phases config
      (sample_plan settings ~interval program)
      (sampled_phases settings ~interval config program)

let study_of_mpis bench orig_mpi clone_mpi =
  let correlation =
    Stats.pearson (Study.relative_mpi clone_mpi) (Study.relative_mpi orig_mpi)
  in
  { bench; correlation; orig_mpi; clone_mpi }

let cache_studies ?(pool = Pool.serial) settings pipelines =
  Span.with_ "cache_studies" @@ fun () ->
  Pool.map pool
    (fun (p : Pipeline.t) ->
      Span.with_ ("cache_study:" ^ p.Pipeline.name) @@ fun () ->
      let orig_mpi = mpi_trace settings p.Pipeline.original in
      let clone_mpi = mpi_trace settings p.Pipeline.clone in
      study_of_mpis p.Pipeline.name orig_mpi clone_mpi)
    pipelines

let average_correlation studies =
  Stats.mean (Array.of_list (List.map (fun s -> s.correlation) studies))

let pp_fig4 ppf studies =
  Format.fprintf ppf
    "Figure 4: Pearson correlation of relative misses/instruction across the 28 cache configurations@.";
  List.iter
    (fun s -> Format.fprintf ppf "  %-14s %6.3f@." s.bench s.correlation)
    studies;
  Format.fprintf ppf "  %-14s %6.3f@." "average" (average_correlation studies)

let rankings_scatter studies =
  let n_configs = Array.length Study.configs in
  let sum_orig = Array.make n_configs 0.0 in
  let sum_clone = Array.make n_configs 0.0 in
  List.iter
    (fun s ->
      let ro = Stats.rankings s.orig_mpi in
      let rc = Stats.rankings s.clone_mpi in
      Array.iteri (fun i r -> sum_orig.(i) <- sum_orig.(i) +. r) ro;
      Array.iteri (fun i r -> sum_clone.(i) <- sum_clone.(i) +. r) rc)
    studies;
  let n = float_of_int (max 1 (List.length studies)) in
  Array.init n_configs (fun i -> (sum_orig.(i) /. n, sum_clone.(i) /. n))

let pp_fig5 ppf scatter =
  Format.fprintf ppf
    "Figure 5: average cache-configuration rankings, real vs synthetic (1 = fewest misses)@.";
  Format.fprintf ppf "  %-22s %8s %9s@." "configuration" "real" "synthetic";
  Array.iteri
    (fun i (o, c) ->
      Format.fprintf ppf "  %-22s %8.2f %9.2f@."
        (Pc_caches.Cache.config_name Study.configs.(i))
        o c)
    scatter;
  let xs = Array.map fst scatter and ys = Array.map snd scatter in
  Format.fprintf ppf "  rank correlation (Spearman): %.3f@." (Stats.spearman xs ys)

(* --- Figures 6 and 7 --- *)

type base_run = {
  bench : string;
  ipc_orig : float;
  ipc_clone : float;
  power_orig : float;
  power_clone : float;
}

let base_runs ?(pool = Pool.serial) settings pipelines =
  Span.with_ "base_runs" @@ fun () ->
  let cfg = Config.base in
  Pool.map pool
    (fun (p : Pipeline.t) ->
      Span.with_ ("base_run:" ^ p.Pipeline.name) @@ fun () ->
      let ro = sim_run settings cfg p.Pipeline.original in
      let rc = sim_run settings cfg p.Pipeline.clone in
      {
        bench = p.Pipeline.name;
        ipc_orig = ro.Sim.ipc;
        ipc_clone = rc.Sim.ipc;
        power_orig = power_total settings cfg p.Pipeline.original ro;
        power_clone = power_total settings cfg p.Pipeline.clone rc;
      })
    pipelines

let ipc_of r = (r.ipc_orig, r.ipc_clone)
let power_of r = (r.power_orig, r.power_clone)

let avg_abs_error select runs =
  let errors =
    List.map
      (fun r ->
        let actual, predicted = select r in
        Stats.abs_rel_error ~actual ~predicted)
      runs
  in
  Stats.mean (Array.of_list errors)

let pp_metric_figure ~title ~label select ppf runs =
  Format.fprintf ppf "%s@." title;
  Format.fprintf ppf "  %-14s %10s %10s %8s@." "benchmark" "original" "clone" "error";
  List.iter
    (fun r ->
      let actual, predicted = select r in
      Format.fprintf ppf "  %-14s %10.3f %10.3f %7.1f%%@." r.bench actual predicted
        (100.0 *. Stats.abs_rel_error ~actual ~predicted))
    runs;
  Format.fprintf ppf "  average absolute %s error: %.2f%%@." label
    (100.0 *. avg_abs_error select runs)

let pp_fig6 ppf runs =
  pp_metric_figure ~title:"Figure 6: IPC on the base configuration" ~label:"IPC"
    ipc_of ppf runs

let pp_fig7 ppf runs =
  pp_metric_figure
    ~title:"Figure 7: power consumption on the base configuration (relative units)"
    ~label:"power" power_of ppf runs

(* --- Table 3 and Figures 8/9 --- *)

type design_change = { change : string; config : Config.t }

let design_changes () =
  [
    {
      change = "Double the number of entries in the reorder buffer and load store queue";
      config = Config.with_rob_lsq ~rob:32 ~lsq:16 Config.base;
    };
    {
      change = "Reduce the L1 cache size to half";
      config = Config.with_l1d_size 8192 Config.base;
    };
    {
      change = "Double the fetch, decode, and issue width";
      config = Config.with_widths 2 Config.base;
    };
    {
      change = "Change the predictor from a 2-level to a not-taken predictor";
      config = Config.with_bpred Predictor.Not_taken Config.base;
    };
    {
      change = "Change the instruction issue policy to in-order";
      config = Config.with_in_order true Config.base;
    };
  ]

type change_result = {
  change_name : string;
  per_bench : (string * float * float * float * float) list;
  avg_ipc_error : float;
  avg_power_error : float;
}

let run_design_changes ?(pool = Pool.serial) settings pipelines =
  Span.with_ "design_changes" @@ fun () ->
  let base_cfg = Config.base in
  (* Base-configuration runs, shared by every change. *)
  let base =
    Pool.map pool
      (fun (p : Pipeline.t) ->
        let ro = sim_run settings base_cfg p.Pipeline.original in
        let rc = sim_run settings base_cfg p.Pipeline.clone in
        (p, ro, rc))
      pipelines
  in
  List.map
    (fun { change; config } ->
      let rows =
        Pool.map pool
          (fun ((p : Pipeline.t), base_orig, base_clone) ->
            let new_orig = sim_run settings config p.Pipeline.original in
            let new_clone = sim_run settings config p.Pipeline.clone in
            let ipc_ratio_orig = new_orig.Sim.ipc /. base_orig.Sim.ipc in
            let ipc_ratio_clone = new_clone.Sim.ipc /. base_clone.Sim.ipc in
            let pw_ratio_orig =
              power_total settings config p.Pipeline.original new_orig
              /. power_total settings base_cfg p.Pipeline.original base_orig
            in
            let pw_ratio_clone =
              power_total settings config p.Pipeline.clone new_clone
              /. power_total settings base_cfg p.Pipeline.clone base_clone
            in
            ( p.Pipeline.name,
              ipc_ratio_orig,
              ipc_ratio_clone,
              pw_ratio_orig,
              pw_ratio_clone ))
          base
      in
      {
        change_name = change;
        per_bench = rows;
        avg_ipc_error = avg_abs_error (fun (_, io, ic, _, _) -> (io, ic)) rows;
        avg_power_error = avg_abs_error (fun (_, _, _, po, pc) -> (po, pc)) rows;
      })
    (design_changes ())

let pp_table3 ppf results =
  Format.fprintf ppf
    "Table 3: average relative error in IPC and power for the five design changes@.";
  Format.fprintf ppf "  %-72s %8s %8s@." "design change" "IPC" "power";
  List.iter
    (fun r ->
      Format.fprintf ppf "  %-72s %7.2f%% %7.2f%%@." r.change_name
        (100.0 *. r.avg_ipc_error)
        (100.0 *. r.avg_power_error))
    results

let pp_change_detail ~title select ppf r =
  Format.fprintf ppf "%s@." title;
  Format.fprintf ppf "  (design change: %s)@." r.change_name;
  Format.fprintf ppf "  %-14s %10s %10s@." "benchmark" "real" "synthetic";
  let reals = ref [] and synths = ref [] in
  List.iter
    (fun row ->
      let name, real, synth = select row in
      reals := real :: !reals;
      synths := synth :: !synths;
      Format.fprintf ppf "  %-14s %10.3f %10.3f@." name real synth)
    r.per_bench;
  Format.fprintf ppf "  %-14s %10.3f %10.3f@." "average"
    (Stats.mean (Array.of_list !reals))
    (Stats.mean (Array.of_list !synths))

let pp_fig8 ppf r =
  pp_change_detail ~title:"Figure 8: IPC speedup over the base configuration"
    (fun (name, io, ic, _, _) -> (name, io, ic))
    ppf r

let pp_fig9 ppf r =
  pp_change_detail
    ~title:"Figure 9: relative power increase over the base configuration"
    (fun (name, _, _, po, pc) -> (name, po, pc))
    ppf r

(* --- branch-predictor study --- *)

let bpred_configs =
  let open Predictor in
  [
    Taken;
    Not_taken;
    Bimodal 64;
    Bimodal 512;
    Bimodal 4096;
    Gshare { history_bits = 8; entries = 4096 };
    Gshare { history_bits = 12; entries = 16384 };
    base_gap;
    Pap { history_bits = 6; tables = 256 };
    Tournament
      { meta_entries = 1024; a = Bimodal 1024; b = Gshare { history_bits = 10; entries = 4096 } };
  ]

type bpred_study = {
  bp_bench : string;
  bp_correlation : float;
  bp_orig_rates : float array;
  bp_clone_rates : float array;
}

(* A predictor sees only the retired (pc, taken) stream of conditional
   branches, so one functional pass feeds all ten predictors in retire
   order (SimpleScalar's sim-bpred) and gives each exactly the rate a
   timing-model run under that predictor reports. *)
let bpred_rates settings program =
  match settings.sample with
  | Some interval ->
    Pc_sample.Sample.project_bpred bpred_configs
      (sample_plan settings ~interval program)
  | None ->
    let preds = Array.of_list (List.map Predictor.create bpred_configs) in
    let m = Machine.load program in
    let classes = (Machine.statics m).Machine.s_classes in
    ignore
      (Machine.run_batched ~max_instrs:settings.sim_instrs m (fun b ->
           for j = 0 to b.Machine.len - 1 do
             let pc = b.Machine.b_pc.(j) in
             if classes.(pc) = Pc_isa.Instr.C_branch then begin
               let taken = b.Machine.b_taken.(j) in
               Array.iter (fun p -> ignore (Predictor.observe p ~pc ~taken)) preds
             end
           done));
    Array.map Predictor.misprediction_rate preds

let bpred_studies ?(pool = Pool.serial) settings pipelines =
  Span.with_ "bpred" @@ fun () ->
  Pool.map pool
    (fun (p : Pipeline.t) ->
      let bp_orig_rates = bpred_rates settings p.Pipeline.original in
      let bp_clone_rates = bpred_rates settings p.Pipeline.clone in
      {
        bp_bench = p.Pipeline.name;
        bp_correlation = Stats.pearson bp_clone_rates bp_orig_rates;
        bp_orig_rates;
        bp_clone_rates;
      })
    pipelines

let pp_bpred ppf studies =
  Format.fprintf ppf
    "Branch-predictor study: misprediction-rate correlation across %d predictors@."
    (List.length bpred_configs);
  List.iter
    (fun s -> Format.fprintf ppf "  %-14s %6.3f@." s.bp_bench s.bp_correlation)
    studies;
  let avg =
    Stats.mean (Array.of_list (List.map (fun s -> s.bp_correlation) studies))
  in
  Format.fprintf ppf "  %-14s %6.3f@." "average" avg

(* --- seed robustness --- *)

type seed_robustness = {
  sr_bench : string;
  sr_correlations : float array;
  sr_min : float;
  sr_max : float;
}

let seed_robustness ?(pool = Pool.serial) settings pipelines =
  Span.with_ "seeds" @@ fun () ->
  Pool.map pool
    (fun (p : Pipeline.t) ->
      let orig_mpi = mpi_trace settings p.Pipeline.original in
      let correlations =
        Array.of_list
          (List.map
             (fun seed ->
               let options =
                 {
                   Pc_synth.Synth.default_options with
                   Pc_synth.Synth.seed;
                   target_dynamic = settings.clone_dynamic;
                 }
               in
               let clone = Pc_synth.Synth.generate ~options p.Pipeline.profile in
               let clone_mpi = mpi_trace settings clone in
               (study_of_mpis p.Pipeline.name orig_mpi clone_mpi).correlation)
             [ 1; 2; 3; 4; 5 ])
      in
      {
        sr_bench = p.Pipeline.name;
        sr_correlations = correlations;
        sr_min = Array.fold_left min infinity correlations;
        sr_max = Array.fold_left max neg_infinity correlations;
      })
    pipelines

let pp_seed_robustness ppf rows =
  Format.fprintf ppf "Seed robustness: cache-study correlation across generation seeds@.";
  Format.fprintf ppf "  %-14s %8s %8s %8s@." "benchmark" "min" "mean" "max";
  List.iter
    (fun r ->
      Format.fprintf ppf "  %-14s %8.3f %8.3f %8.3f@." r.sr_bench r.sr_min
        (Stats.mean r.sr_correlations) r.sr_max)
    rows

(* --- statistical-simulation comparison --- *)

type statsim_row = {
  ss_bench : string;
  ss_ipc_orig : float;
  ss_ipc_clone : float;
  ss_ipc_statsim : float;
}

(* Statistical-simulation IPC estimate for a pipeline's profile on the
   base configuration.  With sampling on, the synthetic-trace generation
   itself goes phase-by-phase ({!Pc_statsim.Statsim.estimate_sampled}
   over the original program's plan) instead of one stationary walk. *)
let statsim_ipc settings (p : Pipeline.t) =
  let cfg = Config.base in
  let instrs = min 200_000 settings.sim_instrs in
  let r =
    match settings.sample with
    | None ->
      Pc_statsim.Statsim.estimate ~seed:settings.seed ~instrs cfg
        p.Pipeline.profile
    | Some interval ->
      Pc_statsim.Statsim.estimate_sampled ~seed:settings.seed ~instrs
        ~plan:(sample_plan settings ~interval p.Pipeline.original)
        cfg p.Pipeline.profile
  in
  r.Sim.ipc

let statsim_comparison ?(pool = Pool.serial) settings pipelines =
  Span.with_ "statsim" @@ fun () ->
  let cfg = Config.base in
  Pool.map pool
    (fun (p : Pipeline.t) ->
      let ro = sim_run settings cfg p.Pipeline.original in
      let rc = sim_run settings cfg p.Pipeline.clone in
      {
        ss_bench = p.Pipeline.name;
        ss_ipc_orig = ro.Sim.ipc;
        ss_ipc_clone = rc.Sim.ipc;
        ss_ipc_statsim = statsim_ipc settings p;
      })
    pipelines

let pp_statsim ppf rows =
  Format.fprintf ppf
    "Statistical simulation vs synthetic clone (base-configuration IPC)@.";
  Format.fprintf ppf "  %-14s %9s %9s %9s %9s %9s@." "benchmark" "original" "clone"
    "statsim" "cl.err" "ss.err";
  let cl_errors = ref [] and ss_errors = ref [] in
  List.iter
    (fun r ->
      let cl = Stats.abs_rel_error ~actual:r.ss_ipc_orig ~predicted:r.ss_ipc_clone in
      let ss = Stats.abs_rel_error ~actual:r.ss_ipc_orig ~predicted:r.ss_ipc_statsim in
      cl_errors := cl :: !cl_errors;
      ss_errors := ss :: !ss_errors;
      Format.fprintf ppf "  %-14s %9.3f %9.3f %9.3f %8.1f%% %8.1f%%@." r.ss_bench
        r.ss_ipc_orig r.ss_ipc_clone r.ss_ipc_statsim (100.0 *. cl) (100.0 *. ss))
    rows;
  Format.fprintf ppf "  average absolute error: clone %.2f%%, statsim %.2f%%@."
    (100.0 *. Stats.mean (Array.of_list !cl_errors))
    (100.0 *. Stats.mean (Array.of_list !ss_errors))

(* --- portable-clone comparison --- *)

type portable_row = {
  po_bench : string;
  po_asm_correlation : float;
  po_kc_correlation : float;
}

let portable_comparison ?(pool = Pool.serial) settings pipelines =
  Span.with_ "portable" @@ fun () ->
  Pool.map pool
    (fun (p : Pipeline.t) ->
      let orig_mpi = mpi_trace settings p.Pipeline.original in
      let asm_mpi = mpi_trace settings p.Pipeline.clone in
      let kc_clone =
        Pc_synth.Portable.generate_compiled ~seed:settings.seed
          ~target_dynamic:settings.clone_dynamic p.Pipeline.profile
      in
      let kc_mpi = mpi_trace settings kc_clone in
      {
        po_bench = p.Pipeline.name;
        po_asm_correlation = (study_of_mpis p.Pipeline.name orig_mpi asm_mpi).correlation;
        po_kc_correlation = (study_of_mpis p.Pipeline.name orig_mpi kc_mpi).correlation;
      })
    pipelines

let pp_portable ppf rows =
  Format.fprintf ppf
    "Portability extension: cache-study correlation, SRISC clone vs compiled Kc-source clone@.";
  Format.fprintf ppf "  %-14s %10s %10s@." "benchmark" "SRISC" "Kc-source";
  List.iter
    (fun r ->
      Format.fprintf ppf "  %-14s %10.3f %10.3f@." r.po_bench r.po_asm_correlation
        r.po_kc_correlation)
    rows;
  let avg f = Stats.mean (Array.of_list (List.map f rows)) in
  Format.fprintf ppf "  %-14s %10.3f %10.3f@." "average"
    (avg (fun r -> r.po_asm_correlation))
    (avg (fun r -> r.po_kc_correlation))

(* --- ablation --- *)

type ablation_row = {
  ab_bench : string;
  indep_correlation : float;
  dep_correlation : float;
}

let ablation ?(pool = Pool.serial) settings pipelines =
  Span.with_ "ablation" @@ fun () ->
  Pool.map pool
    (fun (p : Pipeline.t) ->
      let orig_mpi = mpi_trace settings p.Pipeline.original in
      let clone_mpi = mpi_trace settings p.Pipeline.clone in
      let baseline =
        Pipeline.microdep_baseline ~seed:settings.seed ~reference:Config.base p
      in
      let dep_mpi = mpi_trace settings baseline in
      let indep = (study_of_mpis p.Pipeline.name orig_mpi clone_mpi).correlation in
      let dep = (study_of_mpis p.Pipeline.name orig_mpi dep_mpi).correlation in
      { ab_bench = p.Pipeline.name; indep_correlation = indep; dep_correlation = dep })
    pipelines

let pp_ablation ppf rows =
  Format.fprintf ppf
    "Ablation: cache-study correlation, microarchitecture-independent clone vs microarchitecture-dependent baseline@.";
  Format.fprintf ppf "  %-14s %12s %12s@." "benchmark" "independent" "dependent";
  List.iter
    (fun r ->
      Format.fprintf ppf "  %-14s %12.3f %12.3f@." r.ab_bench r.indep_correlation
        r.dep_correlation)
    rows;
  let avg f = Stats.mean (Array.of_list (List.map f rows)) in
  Format.fprintf ppf "  %-14s %12.3f %12.3f@." "average"
    (avg (fun r -> r.indep_correlation))
    (avg (fun r -> r.dep_correlation))
