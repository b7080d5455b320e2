(* run_experiments: regenerate every table and figure of the paper.

   Usage:
     run_experiments [EXPERIMENT]... [--quick] [--bench NAME]... [--seed N] [-j N]
                     [--sample N] [--sample-out FILE] [--sample-no-ref]
                     [--plan-cache [DIR]] [--cache-onepass] [--trace FILE]
                     [--trace-period-ms MS] [--metrics] [--metrics-out FILE]
                     [--ledger [DIR]] [-v] [--quiet]

   Experiments: table1 table2 fig3 fig4 fig5 fig6 fig7 table3 fig8 fig9
   ablation statsim portable bpred seeds all (default: all).

   Per-benchmark and per-configuration work fans out over -j worker
   domains; all randomness is seeded per pipeline, so the output is
   byte-identical at every -j.  --sample N switches the timing and
   cache estimators to SimPoint-style sampled simulation with
   N-instruction intervals; bare --sample derives the interval from the
   simulation budget.  Off by default, so without it every table is
   byte-identical to earlier releases.  Observability output (progress
   logs, the --metrics console report) goes to stderr, and --metrics-out
   / --sample-out write to files, so none of it can perturb the
   experiment tables on stdout. *)

module E = Perfclone.Experiments
module Pool = Pc_exec.Pool
module Json = Pc_util.Json

let pp = Format.std_formatter

let print_table1 () =
  Format.fprintf pp "Table 1: benchmark programs and application domains@.";
  List.iter
    (fun (domain, names) ->
      Format.fprintf pp "  %-12s %s@." domain (String.concat ", " names))
    Pc_workloads.Registry.domains

let print_table2 () =
  let c = Pc_uarch.Config.base in
  Format.fprintf pp "Table 2: base configuration@.";
  Format.fprintf pp "  functional units: %d int ALU, %d int mul/div, %d FP ALU, %d FP mul/div@."
    c.Pc_uarch.Config.int_alu_units c.Pc_uarch.Config.int_mul_units
    c.Pc_uarch.Config.fp_alu_units c.Pc_uarch.Config.fp_mul_units;
  Format.fprintf pp "  reorder buffer: %d entries; load/store queue: %d entries@."
    c.Pc_uarch.Config.rob_size c.Pc_uarch.Config.lsq_size;
  Format.fprintf pp "  fetch/decode/issue width: %d, %s@." c.Pc_uarch.Config.fetch_width
    (if c.Pc_uarch.Config.in_order then "in-order" else "out-of-order");
  Format.fprintf pp "  branch predictor: %s@."
    (Pc_branch.Predictor.config_name c.Pc_uarch.Config.bpred);
  let l1 h = Pc_caches.Cache.config_name h.Pc_caches.Hierarchy.l1 in
  Format.fprintf pp "  L1 I-cache: %s; L1 D-cache: %s@." (l1 c.Pc_uarch.Config.icache)
    (l1 c.Pc_uarch.Config.dcache);
  (match c.Pc_uarch.Config.dcache.Pc_caches.Hierarchy.l2 with
  | Some l2 -> Format.fprintf pp "  L2 cache: %s@." (Pc_caches.Cache.config_name l2)
  | None -> Format.fprintf pp "  no L2 cache@.");
  Format.fprintf pp "  memory latency: %d cycles@."
    c.Pc_uarch.Config.dcache.Pc_caches.Hierarchy.mem_latency

(* pc-sample/1 JSON summary (schema documented in EXPERIMENTS.md): per
   program the plan statistics plus projected-vs-detailed base-config
   IPC, so the sampling error is measurable without re-deriving it.
   The detailed runs are the expensive part; they fan out over [pool]
   and are memoized alongside the unsampled estimators. *)
let write_sample_summary ~pool ~interval ~no_ref settings pipelines path =
  let module Sample = Pc_sample.Sample in
  let module Sim = Pc_uarch.Sim in
  let cfg = Pc_uarch.Config.base in
  let err_gauge = Pc_obs.Metrics.gauge "sample.ipc_error_bp" in
  let power_err_gauge = Pc_obs.Metrics.gauge "sample.power_error_bp" in
  let statsim_err_gauge = Pc_obs.Metrics.gauge "sample.statsim_error_bp" in
  let rel_err ~detailed ~projected =
    if detailed = 0.0 then 0.0 else abs_float (projected -. detailed) /. detailed
  in
  let detailed_settings = { settings with E.sample = None } in
  let programs =
    List.concat_map
      (fun (p : Perfclone.Pipeline.t) ->
        [
          ( p.Perfclone.Pipeline.name, "original", p.Perfclone.Pipeline.original,
            Some p );
          (p.Perfclone.Pipeline.name, "clone", p.Perfclone.Pipeline.clone, None);
        ])
      pipelines
  in
  let rows =
    Pool.map pool
      (fun (bench, kind, program, pipeline) ->
        let plan = E.sample_plan settings ~interval program in
        let projected = E.sim_run settings cfg program in
        let projected_power = E.power_total settings cfg program projected in
        (* --sample-no-ref: plan statistics and projections only — the
           detailed reference simulations are the expensive part. *)
        let reference =
          if no_ref then None
          else begin
            let detailed = E.sim_run detailed_settings cfg program in
            let detailed_power =
              E.power_total detailed_settings cfg program detailed
            in
            Some
              ( detailed.Sim.ipc,
                rel_err ~detailed:detailed.Sim.ipc ~projected:projected.Sim.ipc,
                detailed_power,
                rel_err ~detailed:detailed_power ~projected:projected_power )
          end
        in
        (* Statistical simulation works from the original's profile, so
           it is reported once per benchmark, on the original's row. *)
        let statsim =
          match pipeline with
          | None -> None
          | Some p ->
            let ss = E.statsim_ipc settings p in
            let ss_ref =
              if no_ref then None
              else begin
                let det = E.statsim_ipc detailed_settings p in
                Some (det, rel_err ~detailed:det ~projected:ss)
              end
            in
            Some (ss, ss_ref)
        in
        (bench, kind, plan, projected.Sim.ipc, projected_power, reference, statsim))
      programs
  in
  let bp error = int_of_float (Float.round (error *. 10_000.)) in
  List.iter
    (fun (_, _, _, _, _, reference, statsim) ->
      (match reference with
      | None -> ()
      | Some (_, ipc_error, _, power_error) ->
        Pc_obs.Metrics.record_max err_gauge (bp ipc_error);
        Pc_obs.Metrics.record_max power_err_gauge (bp power_error));
      match statsim with
      | Some (_, Some (_, ss_error)) ->
        Pc_obs.Metrics.record_max statsim_err_gauge (bp ss_error)
      | Some (_, None) | None -> ())
    rows;
  let f6 = Json.fixed 6 in
  let program
      (bench, kind, (plan : Sample.plan), proj, proj_power, reference, statsim) =
    let reference =
      match reference with
      | Some (det, ipc_error, det_power, power_error) ->
        [
          ("detailed_ipc", f6 det);
          ("ipc_error", f6 ipc_error);
          ("detailed_power", f6 det_power);
          ("power_error", f6 power_error);
        ]
      | None -> []
    in
    let statsim =
      match statsim with
      | Some (ss, ss_ref) ->
        ("statsim_ipc", f6 ss)
        ::
        (match ss_ref with
        | Some (det, err) ->
          [ ("statsim_detailed_ipc", f6 det); ("statsim_ipc_error", f6 err) ]
        | None -> [])
      | None -> []
    in
    Json.Obj
      ([
         ("bench", Json.Str bench);
         ("kind", Json.Str kind);
         ("total_instrs", Json.int plan.Sample.total_instrs);
         ("intervals", Json.int plan.Sample.n_intervals);
         ("clusters", Json.int plan.Sample.k);
         ("replayed_instrs", Json.int (Sample.replayed_instrs plan));
         ("coverage", f6 plan.Sample.coverage);
         ("projected_ipc", f6 proj);
         ("projected_power", f6 proj_power);
       ]
      @ reference @ statsim)
  in
  Json.to_file path
    (Json.Obj
       [
         ("schema", Json.Str "pc-sample/1");
         ("interval", Json.int interval);
         ("seed", Json.int settings.E.seed);
         ("budget", Json.int settings.E.sim_instrs);
         ("programs", Json.List (List.map program rows));
       ])

let main experiments settings jobs sample sample_out sample_no_ref plan_cache
    cache_onepass obs =
  Pc_cli.Common.run ~tool:"run_experiments" ~seed:settings.E.seed ~jobs obs
  @@ fun () ->
  let pool = Pool.create ~num_domains:jobs in
  let sample = Pc_cli.Sampling.resolve ~budget:settings.E.sim_instrs sample in
  let plan_cache =
    match plan_cache with
    | None -> None
    | Some "" -> Some (Pc_sample.Plan_cache.default_dir ())
    | Some dir -> Some dir
  in
  if plan_cache <> None && sample = None then
    Format.eprintf "run_experiments: --plan-cache ignored without --sample@.";
  let settings =
    {
      settings with
      E.sample;
      plan_cache = (if sample = None then None else plan_cache);
      cache_onepass;
    }
  in
  let experiments = if experiments = [] then [ "all" ] else experiments in
  let wants name = List.mem name experiments || List.mem "all" experiments in
  if wants "table1" then print_table1 ();
  if wants "table2" then print_table2 ();
  let sample_summary = if sample = None then None else sample_out in
  if sample_out <> None && sample = None then
    Format.eprintf "run_experiments: --sample-out ignored without --sample@.";
  if sample_no_ref && sample_summary = None then
    Format.eprintf "run_experiments: --sample-no-ref ignored without --sample-out@.";
  let needs_pipelines =
    sample_summary <> None
    || List.exists wants
         [
           "fig3"; "fig4"; "fig5"; "fig6"; "fig7"; "table3"; "fig8"; "fig9";
           "ablation"; "statsim"; "portable"; "bpred"; "seeds";
         ]
  in
  if needs_pipelines then begin
    Format.fprintf pp "(preparing %s benchmark pipelines...)@."
      (match settings.E.benchmarks with [] -> "23" | l -> string_of_int (List.length l));
    let pipelines = E.prepare ~pool settings in
    E.prepare_sample ~pool settings pipelines;
    if wants "fig3" then E.pp_fig3 pp (E.fig3 pipelines);
    if wants "fig4" || wants "fig5" then begin
      let studies = E.cache_studies ~pool settings pipelines in
      if wants "fig4" then E.pp_fig4 pp studies;
      if wants "fig5" then E.pp_fig5 pp (E.rankings_scatter studies)
    end;
    if wants "fig6" || wants "fig7" then begin
      let runs = E.base_runs ~pool settings pipelines in
      if wants "fig6" then E.pp_fig6 pp runs;
      if wants "fig7" then E.pp_fig7 pp runs
    end;
    if wants "table3" || wants "fig8" || wants "fig9" then begin
      let results = E.run_design_changes ~pool settings pipelines in
      if wants "table3" then E.pp_table3 pp results;
      (* Figures 8/9 show the width-doubling change (index 2). *)
      let width_change = List.nth results 2 in
      if wants "fig8" then E.pp_fig8 pp width_change;
      if wants "fig9" then E.pp_fig9 pp width_change
    end;
    if wants "ablation" then E.pp_ablation pp (E.ablation ~pool settings pipelines);
    if wants "statsim" then E.pp_statsim pp (E.statsim_comparison ~pool settings pipelines);
    if wants "portable" then E.pp_portable pp (E.portable_comparison ~pool settings pipelines);
    if wants "bpred" then E.pp_bpred pp (E.bpred_studies ~pool settings pipelines);
    if wants "seeds" then E.pp_seed_robustness pp (E.seed_robustness ~pool settings pipelines);
    match (sample_summary, settings.E.sample) with
    | Some path, Some interval ->
      write_sample_summary ~pool ~interval ~no_ref:sample_no_ref settings
        pipelines path
    | _ -> ()
  end;
  [ ("pc-sample/1", sample_summary) ]

open Cmdliner

let sample_out_arg =
  let doc =
    "With $(b,--sample), also run the detailed (unsampled) base-config \
     simulations and write a JSON summary (schema $(b,pc-sample/1)) of \
     every plan's statistics and projected-vs-detailed IPC error to \
     $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "sample-out" ] ~docv:"FILE" ~doc)

let sample_no_ref_arg =
  let doc =
    "With $(b,--sample-out), skip the detailed (unsampled) reference \
     simulations: the summary reports plan statistics and projected IPC \
     only, omitting the $(b,detailed_ipc) and $(b,ipc_error) fields.  \
     Much cheaper when only the plan shape matters."
  in
  Arg.(value & flag & info [ "sample-no-ref" ] ~doc)

let plan_cache_arg =
  let doc =
    "With $(b,--sample), persist sampling plans on disk under $(docv) so \
     repeated invocations skip plan construction.  Without a value, \
     defaults to \\$XDG_CACHE_HOME/pc-sample (or ~/.cache/pc-sample).  \
     Entries are keyed by a content hash of the plan-format version, \
     profile digest, interval and clustering parameters, so stale or \
     cross-version plans are never reused; corrupt files are dropped and \
     recomputed.  Hits and misses are reported as the \
     $(b,plan_cache.*) metrics."
  in
  Arg.(
    value
    & opt ~vopt:(Some "") (some string) None
    & info [ "plan-cache" ] ~docv:"DIR" ~doc)

let cache_onepass_arg =
  let doc =
    "Price every 28-configuration cache sweep with the one-pass \
     stack-distance profiler instead of simulating all 28 caches — the \
     same results (byte-identical, the test suite holds the two equal) \
     at about the cost of a single pass over the trace.  Applies to \
     both full-trace sweeps and sampled projections."
  in
  Arg.(value & flag & info [ "cache-onepass" ] ~doc)

let cmd =
  let doc = "regenerate the Performance Cloning paper's tables and figures" in
  Cmd.v
    (Cmd.info "run_experiments" ~doc)
    Term.(
      const main $ Pc_cli.Experiments.experiments $ Pc_cli.Experiments.settings
      $ Pc_cli.Jobs.jobs $ Pc_cli.Sampling.sample $ sample_out_arg
      $ sample_no_ref_arg $ plan_cache_arg $ cache_onepass_arg
      $ Pc_cli.Common.obs ~log:true ~metrics:true ~ledger:true ())

let () = exit (Cmd.eval cmd)
