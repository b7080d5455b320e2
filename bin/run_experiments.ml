(* run_experiments: regenerate every table and figure of the paper.

   Usage:
     run_experiments [EXPERIMENT]... [--quick] [--bench NAME]... [--seed N] [-j N]
                     [--sample N] [--sample-out FILE] [--sample-no-ref]
                     [--plan-cache [DIR]] [--cache-onepass] [--trace FILE]
                     [--trace-period-ms MS] [--metrics] [--metrics-out FILE]
                     [-v] [--quiet]

   Experiments: table1 table2 fig3 fig4 fig5 fig6 fig7 table3 fig8 fig9
   ablation all (default: all).

   Per-benchmark and per-configuration work fans out over -j worker
   domains; all randomness is seeded per pipeline, so the output is
   byte-identical at every -j.  --sample N (or PC_SAMPLE=N) switches the
   timing and cache estimators to SimPoint-style sampled simulation with
   N-instruction intervals; bare --sample (or PC_SAMPLE=auto) picks the
   interval from the simulation budget via Sample.auto_interval.  Off by
   default, so without it every table is byte-identical to earlier
   releases.  Observability output (progress
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
    let replayed =
      Array.fold_left
        (fun acc (r : Sample.rep) -> acc + Array.length r.Sample.trace)
        0 plan.Sample.reps
    in
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
         ("replayed_instrs", Json.int replayed);
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

let main experiments quick benches seed jobs sample sample_out sample_no_ref
    plan_cache cache_onepass trace trace_period_ms metrics metrics_out ledger
    verbosity quiet =
  Pc_obs.Logging.setup ~quiet ~verbosity ();
  if metrics || metrics_out <> None || ledger <> None then
    Pc_obs.Metrics.set_enabled true;
  let written =
    Pc_trace.Chrome.with_trace
      ~period_s:(float_of_int trace_period_ms /. 1000.0)
      trace
    @@ fun () ->
  let pool = Pool.create ~num_domains:jobs in
  let base = if quick then E.quick_settings else E.default_settings in
  let sample =
    (* Bare [--sample] / [PC_SAMPLE=auto] derive the interval from the
       simulation budget the settings will actually run with. *)
    let resolve = function
      | `Fixed n -> Some n
      | `Auto ->
        Some (Pc_sample.Sample.auto_interval ~max_instrs:base.E.sim_instrs)
    in
    match sample with
    | Some s -> resolve s
    | None -> (
      match Sys.getenv_opt "PC_SAMPLE" with
      | Some "auto" -> resolve `Auto
      | Some s -> (
        match int_of_string_opt s with
        | Some n when n > 0 -> Some n
        | Some _ | None -> None)
      | None -> None)
  in
  let plan_cache =
    match plan_cache with
    | None -> None
    | Some "" -> Some (Pc_sample.Plan_cache.default_dir ())
    | Some dir -> Some dir
  in
  if plan_cache <> None && sample = None then
    Format.eprintf "run_experiments: --plan-cache ignored without --sample@.";
  let cache_onepass =
    cache_onepass
    ||
    match Sys.getenv_opt "PC_CACHE_ONEPASS" with
    | Some ("1" | "true" | "yes") -> true
    | Some _ | None -> false
  in
  let settings =
    {
      base with
      E.seed;
      benchmarks = (if benches = [] then base.E.benchmarks else benches);
      sample;
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
  let snap = Pc_obs.Metrics.snapshot () in
  let spans = Pc_obs.Span.roots () in
  if metrics || Pc_obs.Metrics.env_enabled then
    Pc_obs.Sink.pp_console Format.err_formatter snap spans;
  Option.iter (fun path -> Pc_obs.Sink.write_json path snap spans) metrics_out;
  (match metrics_out with Some p -> [ ("pc-obs/1", p) ] | None -> [])
  @
  match (sample_summary, settings.E.sample, needs_pipelines) with
  | Some p, Some _, true -> [ ("pc-sample/1", p) ]
  | _ -> []
  in
  (* Record last, once the trace file exists, so the record can digest
     every artefact the run emitted. *)
  match ledger with
  | None -> ()
  | Some dir ->
    let written =
      written
      @ match trace with Some p -> [ ("pc-trace/1", p) ] | None -> []
    in
    let file =
      Pc_report.Ledger.record (Pc_report.Ledger.create dir)
        ~tool:"run_experiments"
        ~argv:(Array.to_list Sys.argv)
        ~seed ~jobs
        ~artifacts:
          (List.map
             (fun (schema, path) -> { Pc_report.Ledger.schema; path })
             written)
    in
    Logs.info (fun m -> m "ledger: recorded %s" file)

open Cmdliner

let experiments_arg =
  let doc =
    "Experiments to run: table1, table2, fig3, fig4, fig5, fig6, fig7, table3, \
     fig8, fig9, ablation, statsim, portable, bpred, seeds, or all."
  in
  Arg.(value & pos_all string [] & info [] ~docv:"EXPERIMENT" ~doc)

let quick_arg =
  let doc = "Quick mode: fewer benchmarks and shorter simulations." in
  Arg.(value & flag & info [ "quick" ] ~doc)

let bench_arg =
  let doc = "Restrict to the named benchmark (repeatable)." in
  Arg.(value & opt_all string [] & info [ "bench"; "b" ] ~docv:"NAME" ~doc)

let seed_arg =
  let doc = "Random seed for clone generation." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc)

let jobs_arg =
  let doc =
    "Number of worker domains for per-benchmark and per-configuration \
     fan-out.  The output is byte-identical at every value.  Defaults to \
     $(b,PC_JOBS) when set, otherwise the number of cores."
  in
  let positive_int =
    let parse s =
      match int_of_string_opt s with
      | Some n when n >= 1 -> Ok n
      | Some _ | None -> Error (`Msg "must be a positive integer")
    in
    Arg.conv (parse, Format.pp_print_int)
  in
  Arg.(
    value
    & opt positive_int (Pool.default_jobs ())
    & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let sample_arg =
  let doc =
    "Estimate timing and cache results by SimPoint-style sampled \
     simulation with $(docv)-instruction intervals instead of simulating \
     every dynamic instruction.  $(docv) is a positive interval length, \
     or $(b,auto) to derive one from the simulation budget (about 32 \
     intervals per run, clamped to [10000, 1000000]); bare $(b,--sample) \
     means $(b,auto).  Defaults to $(b,PC_SAMPLE) when that is set to a \
     positive integer or $(b,auto); off otherwise.  With sampling off \
     the output is byte-identical to earlier releases."
  in
  let interval =
    let parse s =
      if s = "auto" then Ok `Auto
      else
        match int_of_string_opt s with
        | Some n when n >= 1 -> Ok (`Fixed n)
        | Some _ | None -> Error (`Msg "must be a positive integer or 'auto'")
    in
    let print ppf = function
      | `Auto -> Format.pp_print_string ppf "auto"
      | `Fixed n -> Format.pp_print_int ppf n
    in
    Arg.conv (parse, print)
  in
  Arg.(
    value
    & opt ~vopt:(Some `Auto) (some interval) None
    & info [ "sample" ] ~docv:"N" ~doc)

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
     both full-trace sweeps and sampled projections.  Also enabled by \
     setting $(b,PC_CACHE_ONEPASS) to 1, true or yes."
  in
  Arg.(value & flag & info [ "cache-onepass" ] ~doc)

let trace_arg =
  let doc =
    "Write a Chrome trace_event timeline (schema $(b,pc-trace/1), loads \
     in Perfetto / chrome://tracing) of the whole run to $(docv): one \
     lane per worker domain from the span tree, plus counter tracks \
     sampled from the metrics registry.  Implies metric and event \
     collection; never touches stdout."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let trace_period_ms_arg =
  let doc =
    "Counter-sampling period for $(b,--trace), in milliseconds.  0 \
     disables periodic sampling (counters are still sampled once at \
     exit)."
  in
  Arg.(value & opt int 50 & info [ "trace-period-ms" ] ~docv:"MS" ~doc)

let metrics_arg =
  let doc =
    "Print the observability report (metrics registry and per-stage span \
     tree) to stderr after the run.  Setting $(b,PC_OBS=1) in the \
     environment has the same effect."
  in
  Arg.(value & flag & info [ "metrics" ] ~doc)

let metrics_out_arg =
  let doc =
    "Write the observability report as JSON (schema $(b,pc-obs/1)) to \
     $(docv).  Implies metric and span collection, but not the stderr \
     report."
  in
  Arg.(value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE" ~doc)

let ledger_arg =
  let doc =
    "Append a $(b,pc-run/1) record of this invocation (tool, normalised \
     argument digest, seed, git describe, metric snapshot, and the \
     schemas/paths/digests of every artefact written) to the run ledger \
     under $(docv), for later drift diffing with $(b,pc_diff).  Without \
     a value, defaults to \\$XDG_CACHE_HOME/pc-ledger (or \
     ~/.cache/pc-ledger).  Implies metric collection; never touches \
     stdout."
  in
  Arg.(
    value & opt ~vopt:(Some "") (some string) None
    & info [ "ledger" ] ~docv:"DIR" ~doc)

let verbose_arg =
  let doc = "Increase log verbosity (per-benchmark progress is shown by default; $(b,-v) adds debug detail)." in
  Arg.(value & flag_all & info [ "v"; "verbose" ] ~doc)

let quiet_arg =
  let doc = "Log errors only." in
  Arg.(value & flag & info [ "quiet" ] ~doc)

let cmd =
  let doc = "regenerate the Performance Cloning paper's tables and figures" in
  Cmd.v
    (Cmd.info "run_experiments" ~doc)
    Term.(
      const main $ experiments_arg $ quick_arg $ bench_arg $ seed_arg $ jobs_arg
      $ sample_arg $ sample_out_arg $ sample_no_ref_arg $ plan_cache_arg
      $ cache_onepass_arg $ trace_arg
      $ trace_period_ms_arg $ metrics_arg $ metrics_out_arg $ ledger_arg
      $ (const List.length $ verbose_arg)
      $ quiet_arg)

let () = exit (Cmd.eval cmd)
