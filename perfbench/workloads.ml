(* The benchmark's four workloads.  Each one drives the library's public
   entry points the way a CLI invocation does, one cold pass at a time:
   every pass starts from empty memo stores (and, where the workload has
   one, an empty on-disk store), so it repeats the work a fresh
   invocation does.  A pass records what it printed, the time of every
   public call it made, the accuracy figures of its results and the work
   counts the benchmark knows about; its checks go to the run's tally. *)

module E = Perfclone.Experiments
module Pipeline = Perfclone.Pipeline
module Pool = Pc_exec.Pool
module Config = Pc_uarch.Config
module Sim = Pc_uarch.Sim
module Registry = Pc_workloads.Registry
module Fidelity = Pc_trace.Fidelity
module Search = Pc_tune.Search
module Fitness = Pc_tune.Fitness
module Runner = Pc_scenario.Runner
module Spec = Pc_scenario.Spec

type scale =
  | Full  (** the CLI defaults the benchmark measures *)
  | Tiny  (** a few thousand instructions per program, for the self-test *)

type pass = {
  output : string;  (** everything the pass printed *)
  calls : (string * float) list;
      (** seconds per public call name, in first-call order; repeated
          calls under one name add up *)
  accuracy : (string * float) list;  (** clone-vs-original figures *)
  work : (string * float) list;  (** work counts known to the benchmark *)
}

(* The programs and budgets the layer probes run on: the workload's own. *)
type probe_set = {
  originals : Pc_isa.Program.t list;
  clones : Pc_isa.Program.t list;
  profiles : Pc_profile.Profile.t list;
  budget : int;  (** instructions per probed program *)
  seed : int;
  clone_dynamic : int;
}

type t = {
  name : string;
  jobs : int;
  min_passes : int;
      (** passes a timed run makes however long they take: enough for a
          median of the passes after the first, except where one pass
          outlasts the run *)
  sources : string list;
      (** Kc sources a fresh invocation compiles through the registry *)
  run_pass : Tally.t -> Pool.t -> pass;
  finish : Tally.t -> Pool.t -> (string * float) list;
      (** untimed accuracy figures computed once, after the last pass *)
  probe_set : unit -> probe_set;
}

let names = [ "paper"; "clone"; "corun"; "sampled" ]

(* Probes never run a program for more than this many instructions, so
   the traced run of every workload stays well inside its time limit. *)
let probe_cap = 500_000

(* --- pass recording --- *)

type recorder = {
  tally : Tally.t;
  buf : Buffer.t;
  ppf : Format.formatter;
  mutable calls : (string * float) list;
  mutable accuracy : (string * float) list;
  mutable work : (string * float) list;
}

let recorder tally =
  let buf = Buffer.create 16384 in
  {
    tally;
    buf;
    ppf = Format.formatter_of_buffer buf;
    calls = [];
    accuracy = [];
    work = [];
  }

let add_to assoc key v =
  if List.mem_assoc key assoc then
    List.map (fun (k, x) -> if k = key then (k, x +. v) else (k, x)) assoc
  else (key, v) :: assoc

(* One public call: timed, counted, and spanned so the traced pass's
   timeline shows it (spans record only while pc_obs is on). *)
let call r name f =
  let t0 = Measure.now () in
  let v =
    Pc_obs.Span.with_ ("perfbench:" ^ name) (fun () -> Tally.call r.tally name f)
  in
  r.calls <- add_to r.calls name (Measure.now () -. t0);
  v

let check r name ok = Tally.check r.tally name ok
let accuracy r key v = r.accuracy <- (key, v) :: r.accuracy
let work r key v = r.work <- add_to r.work key v

let finish_pass r =
  Format.pp_print_flush r.ppf ();
  {
    output = Buffer.contents r.buf;
    calls = List.rev r.calls;
    accuracy = List.rev r.accuracy;
    work = List.rev r.work;
  }

let sum f xs = List.fold_left (fun acc x -> acc +. f x) 0.0 xs
let mean_of f xs = Measure.mean (List.map f xs)
let finite_pos x = Float.is_finite x && x > 0.0
let profiled (p : Pc_profile.Profile.t) = float_of_int p.Pc_profile.Profile.instr_count

(* Work of a prepare call: one profile and one clone per pipeline. *)
let prepared r (pipelines : Pipeline.t list) =
  work r "profile.instrs" (sum (fun (p : Pipeline.t) -> profiled p.Pipeline.profile) pipelines);
  work r "synth.clones" (float_of_int (List.length pipelines))

(* --- scratch directories (plan cache, tune store) --- *)

let scratch_root = "_perfbench"

let rec remove_tree path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let reset_dir dir =
  remove_tree dir;
  mkdir_p dir

(* --- paper and sampled: run_experiments all --quick -j 1 [--sample] --- *)

let tiny_experiments =
  {
    E.quick_settings with
    E.benchmarks = [ "crc32"; "qsort" ];
    profile_instrs = 20_000;
    sim_instrs = 40_000;
    clone_dynamic = 5_000;
  }

(* The most a configuration can retire per cycle. *)
let width (c : Config.t) =
  float_of_int
    (min
       (min c.Config.fetch_width c.Config.decode_width)
       (min c.Config.issue_width c.Config.commit_width))

let ipc_ok cfg ipc = finite_pos ipc && ipc <= width cfg

let check_mpis r (studies : E.cache_study list) =
  let series_ok a =
    Array.length a = Array.length Pc_caches.Study.configs
    && Array.for_all (fun v -> Float.is_finite v && v >= 0.0) a
  in
  List.iter
    (fun (s : E.cache_study) ->
      check r ("MPI series of " ^ s.E.bench)
        (series_ok s.E.orig_mpi && series_ok s.E.clone_mpi))
    studies;
  let c = E.average_correlation studies in
  check r "cache_corr in [-1, 1]" (c >= -1.0 && c <= 1.0)

let check_base r (runs : E.base_run list) =
  List.iter
    (fun (b : E.base_run) ->
      check r ("base IPC of " ^ b.E.bench)
        (ipc_ok Config.base b.E.ipc_orig && ipc_ok Config.base b.E.ipc_clone);
      check r ("base power of " ^ b.E.bench)
        (finite_pos b.E.power_orig && finite_pos b.E.power_clone))
    runs

(* Design-change rows carry ratios to the base run; rebuild the absolute
   IPC and power under each change and hold them to the same bounds. *)
let check_changes r (runs : E.base_run list) (changes : E.change_result list) =
  List.iter2
    (fun (d : E.design_change) (c : E.change_result) ->
      List.iter
        (fun (bench, io, ic, po, pc) ->
          let what = Printf.sprintf "%s under %S" bench d.E.change in
          match List.find_opt (fun (b : E.base_run) -> b.E.bench = bench) runs with
          | None -> check r ("base run of " ^ what) false
          | Some b ->
            check r ("IPC of " ^ what)
              (ipc_ok d.E.config (io *. b.E.ipc_orig)
              && ipc_ok d.E.config (ic *. b.E.ipc_clone));
            check r ("power of " ^ what)
              (finite_pos (po *. b.E.power_orig)
              && finite_pos (pc *. b.E.power_clone)))
        c.E.per_bench)
    (E.design_changes ()) changes

let check_coverage r settings ~interval (pipelines : Pipeline.t list) =
  let coverages =
    List.concat_map
      (fun (p : Pipeline.t) ->
        List.map
          (fun program ->
            let plan = E.sample_plan settings ~interval program in
            let c = plan.Pc_sample.Sample.coverage in
            check r
              ("plan coverage of " ^ program.Pc_isa.Program.name)
              (c > 0.0 && c <= 1.0);
            c)
          [ p.Pipeline.original; p.Pipeline.clone ])
      pipelines
  in
  work r "sample.coverage" (Measure.mean coverages)

let experiments_body r settings pool (pipelines : Pipeline.t list) =
  let ppf = r.ppf in
  prepared r pipelines;
  ignore (call r "prepare_sample" (fun () -> E.prepare_sample ~pool settings pipelines));
  Option.iter (E.pp_fig3 ppf) (call r "fig3" (fun () -> E.fig3 pipelines));
  let studies =
    call r "cache_studies" (fun () -> E.cache_studies ~pool settings pipelines)
  in
  Option.iter
    (fun s ->
      E.pp_fig4 ppf s;
      E.pp_fig5 ppf (E.rankings_scatter s))
    studies;
  let runs = call r "base_runs" (fun () -> E.base_runs ~pool settings pipelines) in
  Option.iter
    (fun rs ->
      E.pp_fig6 ppf rs;
      E.pp_fig7 ppf rs)
    runs;
  let changes =
    call r "design_changes" (fun () -> E.run_design_changes ~pool settings pipelines)
  in
  Option.iter
    (fun cs ->
      E.pp_table3 ppf cs;
      (* Figures 8/9 show the width-doubling change, as the CLI does. *)
      let width_change = List.nth cs 2 in
      E.pp_fig8 ppf width_change;
      E.pp_fig9 ppf width_change)
    changes;
  Option.iter (E.pp_ablation ppf)
    (call r "ablation" (fun () -> E.ablation ~pool settings pipelines));
  (match call r "statsim" (fun () -> E.statsim_comparison ~pool settings pipelines) with
  | None -> ()
  | Some rows ->
    E.pp_statsim ppf rows;
    work r "statsim.estimates" (float_of_int (List.length rows)));
  Option.iter (E.pp_portable ppf)
    (call r "portable" (fun () -> E.portable_comparison ~pool settings pipelines));
  Option.iter (E.pp_bpred ppf)
    (call r "bpred" (fun () -> E.bpred_studies ~pool settings pipelines));
  (match call r "seeds" (fun () -> E.seed_robustness ~pool settings pipelines) with
  | None -> ()
  | Some rows ->
    E.pp_seed_robustness ppf rows;
    work r "synth.clones"
      (sum (fun (s : E.seed_robustness) -> float_of_int (Array.length s.E.sr_correlations)) rows));
  Option.iter
    (fun s ->
      check_mpis r s;
      accuracy r "cache_corr" (E.average_correlation s))
    studies;
  Option.iter
    (fun rs ->
      check_base r rs;
      accuracy r "ipc_err_pct" (100.0 *. E.avg_abs_error E.ipc_of rs);
      accuracy r "power_err_pct" (100.0 *. E.avg_abs_error E.power_of rs))
    runs;
  Option.iter
    (fun cs ->
      Option.iter (fun rs -> check_changes r rs cs) runs;
      accuracy r "design_err_pct"
        (100.0 *. mean_of (fun (c : E.change_result) -> c.E.avg_ipc_error) cs))
    changes;
  match settings.E.sample with
  | Some interval -> check_coverage r settings ~interval pipelines
  | None -> ()

let mean_fitness reports =
  mean_of (fun rep -> (Fitness.of_report rep).Fitness.fitness) reports

let experiments ~name ~sampled ~scale ~seed ~jobs ~work_dir =
  let base = match scale with Full -> E.quick_settings | Tiny -> tiny_experiments in
  let interval = Pc_sample.Sample.auto_interval ~max_instrs:base.E.sim_instrs in
  let plan_dir = Filename.concat work_dir "plans" in
  let settings =
    {
      base with
      E.seed;
      sample = (if sampled then Some interval else None);
      plan_cache = (if sampled then Some plan_dir else None);
      cache_onepass = false;
    }
  in
  let last = ref [] in
  let run_pass tally pool =
    E.clear_caches ();
    if sampled then reset_dir plan_dir;
    let r = recorder tally in
    (match call r "prepare" (fun () -> E.prepare ~pool settings) with
    | None -> ()
    | Some pipelines ->
      last := pipelines;
      experiments_body r settings pool pipelines);
    finish_pass r
  in
  let finish tally pool =
    let pipelines = !last in
    let fitness =
      Tally.call tally "fidelity" (fun () ->
          mean_fitness (E.fidelity_reports ~pool settings pipelines))
    in
    (* Projected vs detailed base-configuration IPC of every program.
       The detailed reference runs are not part of the timed pass. *)
    let sample_err =
      if not sampled then None
      else
        Tally.call tally "detailed reference" (fun () ->
            let detailed = { settings with E.sample = None; plan_cache = None } in
            let err program =
              let proj = (E.sim_run settings Config.base program).Sim.ipc in
              let det = (E.sim_run detailed Config.base program).Sim.ipc in
              abs_float (proj -. det) /. det
            in
            100.0
            *. Measure.mean
                 (List.concat_map
                    (fun (p : Pipeline.t) ->
                      [ err p.Pipeline.original; err p.Pipeline.clone ])
                    pipelines))
    in
    List.filter_map
      (fun (k, v) -> Option.map (fun v -> (k, v)) v)
      [ ("clone_fitness", fitness); ("sample_err_pct", sample_err) ]
  in
  let probe_set () =
    let pipelines = !last in
    {
      originals = List.map (fun (p : Pipeline.t) -> p.Pipeline.original) pipelines;
      clones = List.map (fun (p : Pipeline.t) -> p.Pipeline.clone) pipelines;
      profiles = List.map (fun (p : Pipeline.t) -> p.Pipeline.profile) pipelines;
      budget = min probe_cap settings.E.sim_instrs;
      seed;
      clone_dynamic = settings.E.clone_dynamic;
    }
  in
  {
    name;
    jobs;
    min_passes = (if sampled then 3 else 1);
    sources = settings.E.benchmarks;
    run_pass;
    finish;
    probe_set;
  }

(* --- clone: the dissemination path --- *)

let clone ~scale ~seed ~jobs ~work_dir =
  let default, quick, budget =
    match scale with
    | Full -> ({ E.default_settings with E.seed }, { E.quick_settings with E.seed }, 32)
    | Tiny ->
      ( { tiny_experiments with E.seed; benchmarks = [ "crc32"; "qsort"; "sha" ] },
        { tiny_experiments with E.seed },
        4 )
  in
  let store_dir = Filename.concat work_dir "tune" in
  let mode = Fitness.Mimic Fitness.default_weights in
  let last_quick = ref [] in
  let run_pass tally pool =
    E.clear_caches ();
    reset_dir store_dir;
    let r = recorder tally in
    (* clone_gen/fidelity_report at their defaults: every registry
       workload profiled, cloned and its clone re-profiled. *)
    (match call r "prepare" (fun () -> E.prepare ~pool default) with
    | None -> ()
    | Some pipelines -> (
      prepared r pipelines;
      match call r "fidelity" (fun () -> E.fidelity_reports ~pool default pipelines) with
      | None -> ()
      | Some reports ->
        Fidelity.pp r.ppf reports;
        work r "profile.instrs"
          (sum (fun (f : Fidelity.report) -> float_of_int f.Fidelity.clone_instrs) reports);
        work r "trace.fidelity_count" (float_of_int (List.length reports));
        accuracy r "clone_fitness" (mean_fitness reports)));
    (* tune_report --quick against an empty store, then the same
       searches again, answered from the store. *)
    (match call r "prepare" (fun () -> E.prepare ~pool quick) with
    | None -> ()
    | Some pipelines ->
      last_quick := pipelines;
      prepared r pipelines;
      let store = Pc_tune.Tune_store.create store_dir in
      let search name (p : Pipeline.t) =
        call r name (fun () ->
            Search.run ~pool ~store ~budget ~bench:p.Pipeline.name ~seed
              ~profile_instrs:quick.E.profile_instrs
              ~target_dynamic:quick.E.clone_dynamic ~mode p.Pipeline.profile)
      in
      (* The searches' re-profiling is the functional work they do. *)
      let before = Pc_obs.Metrics.value (Pc_obs.Metrics.counter "funcsim.retired.total") in
      let cold = List.map (search "tune") pipelines in
      let warm = List.map (search "tune_warm") pipelines in
      let cold_ok = List.filter_map Fun.id cold in
      Pc_tune.Report.pp r.ppf cold_ok;
      List.iter2
        (fun c w ->
          match (c, w) with
          | Some (c : Search.result), Some (w : Search.result) ->
            let bench = c.Search.r_bench in
            check r ("tuned fitness <= default for " ^ bench)
              (c.Search.r_best.Fitness.fitness <= c.Search.r_default.Fitness.fitness);
            let strip (x : Search.result) =
              { x with Search.r_store_hits = 0; r_store_misses = 0 }
            in
            check r ("cold and warm tune results agree for " ^ bench)
              (compare (strip c) (strip w) = 0);
            check r ("warm store hits = cold misses for " ^ bench)
              (w.Search.r_store_hits = c.Search.r_store_misses)
          | _ -> ())
        cold warm;
      work r "profile.instrs"
        (float_of_int
           (Pc_obs.Metrics.value (Pc_obs.Metrics.counter "funcsim.retired.total") - before));
      work r "synth.clones"
        (sum (fun (c : Search.result) -> float_of_int c.Search.r_store_misses) cold_ok);
      if cold_ok <> [] then
        accuracy r "tune_fitness"
          (mean_of (fun (c : Search.result) -> c.Search.r_best.Fitness.fitness) cold_ok));
    finish_pass r
  in
  let probe_set () =
    let pipelines = !last_quick in
    {
      originals = List.map (fun (p : Pipeline.t) -> p.Pipeline.original) pipelines;
      clones = List.map (fun (p : Pipeline.t) -> p.Pipeline.clone) pipelines;
      profiles = List.map (fun (p : Pipeline.t) -> p.Pipeline.profile) pipelines;
      budget = min probe_cap quick.E.profile_instrs;
      seed;
      clone_dynamic = quick.E.clone_dynamic;
    }
  in
  {
    name = "clone";
    jobs;
    min_passes = 3;
    sources = Registry.names;
    run_pass;
    finish = (fun _ _ -> []);
    probe_set;
  }

(* --- corun: run_scenarios -j 1 over every preset --- *)

let corun ~scale ~seed ~jobs =
  let settings =
    match scale with
    | Full -> { Runner.default_settings with Runner.seed }
    | Tiny ->
      {
        Runner.quick_settings with
        Runner.seed;
        profile_instrs = 20_000;
        clone_dynamic = 5_000;
        budget = 20_000;
      }
  in
  let specs = Pc_scenario.Presets.all in
  let tenants kind =
    List.sort_uniq compare
      (List.concat_map
         (fun (s : Spec.t) ->
           List.filter_map
             (fun (t : Spec.tenant) -> if t.Spec.kind = kind then Some t.Spec.workload else None)
             s.Spec.tenants)
         specs)
  in
  let originals = tenants Spec.Original and cloned = tenants Spec.Clone in
  (* The runner clones a tenant through the pipeline with its own
     settings; asking again after a pass is answered from the profile
     store the pass filled. *)
  let pipeline w =
    Pipeline.clone_benchmark ~seed ~profile_instrs:settings.Runner.profile_instrs
      ~target_dynamic:settings.Runner.clone_dynamic w
  in
  let run_pass tally pool =
    Runner.clear_caches ();
    E.clear_caches ();
    let r = recorder tally in
    (* One runner call per preset: at -j 1 this is the CLI's single call
       over all presets, with per-preset times. *)
    let results =
      List.concat_map
        (fun (s : Spec.t) ->
          Option.value ~default:[]
            (call r ("scenario:" ^ s.Spec.name) (fun () -> Runner.run ~pool settings [ s ])))
        specs
    in
    Pc_scenario.Report.pp r.ppf results;
    List.iter
      (fun (res : Runner.result) ->
        List.iter
          (fun (row : Runner.tenant_row) ->
            check r
              (Printf.sprintf "slowdown of %s in %s" row.Runner.label res.Runner.spec.Spec.name)
              (finite_pos row.Runner.slowdown))
          res.Runner.tenants)
      results;
    let find name =
      List.find_opt (fun (res : Runner.result) -> res.Runner.spec.Spec.name = name) results
    in
    let gaps =
      List.concat_map
        (fun (res : Runner.result) ->
          match find (res.Runner.spec.Spec.name ^ "-clone") with
          | None -> []
          | Some twin ->
            List.map2
              (fun (a : Runner.tenant_row) (b : Runner.tenant_row) ->
                abs_float (a.Runner.slowdown -. b.Runner.slowdown))
              res.Runner.tenants twin.Runner.tenants)
        results
    in
    if gaps <> [] then accuracy r "corun_gap_pct" (100.0 *. Measure.mean gaps);
    let profiles =
      List.filter_map
        (fun w ->
          Pc_exec.Store.find_opt Pipeline.profile_store
            (w, settings.Runner.profile_instrs, seed))
        cloned
    in
    work r "profile.instrs" (sum profiled profiles);
    work r "synth.clones" (float_of_int (List.length profiles));
    finish_pass r
  in
  let finish tally _pool =
    let fitness =
      Tally.call tally "fidelity" (fun () ->
          mean_of
            (fun w ->
              let p = pipeline w in
              let report =
                Fidelity.measure ~max_instrs:settings.Runner.profile_instrs ~bench:w
                  ~original:p.Pipeline.profile p.Pipeline.clone
              in
              (Fitness.of_report report).Fitness.fitness)
            cloned)
    in
    match fitness with Some f -> [ ("clone_fitness", f) ] | None -> []
  in
  let probe_set () =
    let pipelines = List.map pipeline cloned in
    {
      originals = List.map (fun w -> Registry.compile (Registry.find w)) originals;
      clones = List.map (fun (p : Pipeline.t) -> p.Pipeline.clone) pipelines;
      profiles = List.map (fun (p : Pipeline.t) -> p.Pipeline.profile) pipelines;
      budget = min probe_cap settings.Runner.budget;
      seed;
      clone_dynamic = settings.Runner.clone_dynamic;
    }
  in
  {
    name = "corun";
    jobs;
    min_passes = 3;
    sources = List.sort_uniq compare (originals @ cloned);
    run_pass;
    finish;
    probe_set;
  }

let default_jobs = function "clone" -> 2 | _ -> 1

let make ?jobs ~scale ~seed ~work_dir name =
  let jobs = Option.value jobs ~default:(default_jobs name) in
  match name with
  | "paper" ->
    experiments ~name ~sampled:false ~scale ~seed ~jobs ~work_dir
  | "sampled" ->
    experiments ~name ~sampled:true ~scale ~seed ~jobs ~work_dir
  | "clone" -> clone ~scale ~seed ~jobs ~work_dir
  | "corun" -> corun ~scale ~seed ~jobs
  | other -> invalid_arg ("unknown workload " ^ other)
