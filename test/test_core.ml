(* End-to-end tests of the perfclone library: the pipeline and every
   experiment driver, run at reduced scale, checking the paper's
   qualitative claims (the "shape" of each result). *)

module Pipeline = Perfclone.Pipeline
module E = Perfclone.Experiments
module Stats = Pc_stats.Stats

(* Honours PC_JOBS (the CI parallel job exports PC_JOBS=4), so this
   whole suite doubles as an exercise of the pool's parallel path; by
   the determinism-under-parallelism invariant the assertions cannot
   depend on the width. *)
let pool = Pc_exec.Pool.create ~num_domains:(Pc_exec.Pool.default_jobs ())

let settings =
  {
    E.seed = 1;
    profile_instrs = 400_000;
    sim_instrs = 600_000;
    clone_dynamic = 60_000;
    benchmarks = [ "crc32"; "sha"; "dijkstra"; "qsort" ];
    sample = None;
    plan_cache = None;
    cache_onepass = false;
  }

(* Shared across tests (expensive to build). *)
let pipelines = lazy (E.prepare ~pool settings)

let test_prepare () =
  let ps = Lazy.force pipelines in
  Alcotest.(check int) "4 pipelines" 4 (List.length ps);
  List.iter
    (fun (p : Pipeline.t) ->
      Alcotest.(check bool) "profile nonempty" true
        (Array.length p.Pipeline.profile.Pc_profile.Profile.nodes > 0);
      Alcotest.(check bool) "clone nonempty" true
        (Pc_isa.Program.length p.Pipeline.clone > 10))
    ps

let test_profile_memoized () =
  (* Two drivers sharing prepare's settings must trigger exactly one
     profile collection per benchmark; the second pass is answered
     entirely from Pipeline.profile_store.  A profile budget unused by
     any other test keeps the counter deltas unambiguous. *)
  let s = { settings with E.profile_instrs = 123_456 } in
  let store = Pipeline.profile_store in
  let s0 = Pc_exec.Store.stats store in
  let first = E.prepare ~pool s in
  let s1 = Pc_exec.Store.stats store in
  Alcotest.(check int) "one collection per benchmark"
    (List.length first)
    (s1.Pc_exec.Store.miss_count - s0.Pc_exec.Store.miss_count);
  let second = E.prepare ~pool s in
  let s2 = Pc_exec.Store.stats store in
  Alcotest.(check int) "second driver hits the store"
    (List.length first)
    (s2.Pc_exec.Store.hit_count - s1.Pc_exec.Store.hit_count);
  Alcotest.(check int) "no extra collections" (List.length first)
    (s2.Pc_exec.Store.miss_count - s0.Pc_exec.Store.miss_count);
  List.iter2
    (fun (a : Pipeline.t) (b : Pipeline.t) ->
      Alcotest.(check bool) "memoized profile gives identical clone" true
        (a.Pipeline.clone.Pc_isa.Program.code = b.Pipeline.clone.Pc_isa.Program.code))
    first second

let test_pipeline_determinism () =
  let p1 = Pipeline.clone_benchmark ~seed:7 ~profile_instrs:100_000 "crc32" in
  let p2 = Pipeline.clone_benchmark ~seed:7 ~profile_instrs:100_000 "crc32" in
  Alcotest.(check bool) "same clone" true
    (p1.Pipeline.clone.Pc_isa.Program.code = p2.Pipeline.clone.Pc_isa.Program.code)

let test_fig3 () =
  let rows = E.fig3 (Lazy.force pipelines) in
  Alcotest.(check int) "one row per benchmark" 4 (List.length rows);
  List.iter
    (fun (name, frac) ->
      if frac < 0.0 || frac > 1.0 then Alcotest.failf "%s fraction out of range" name)
    rows;
  (* sha is an almost pure strided workload *)
  Alcotest.(check bool) "sha mostly single-stride" true (List.assoc "sha" rows > 0.9)

let test_fig4_correlations () =
  let studies = E.cache_studies ~pool settings (Lazy.force pipelines) in
  Alcotest.(check int) "one study per benchmark" 4 (List.length studies);
  List.iter
    (fun (s : E.cache_study) ->
      Alcotest.(check int) "28 MPI points" 28 (Array.length s.E.orig_mpi);
      if s.E.correlation < 0.3 then
        Alcotest.failf "%s: correlation %.3f too low" s.E.bench s.E.correlation)
    studies;
  (* the headline claim: high average correlation *)
  Alcotest.(check bool) "average correlation > 0.7" true
    (E.average_correlation studies > 0.7)

let test_fig4_onepass_identical () =
  (* --cache-onepass must not move a single bit of the cache study, and
     the sweep output must stay byte-identical across pool widths. *)
  let onepass_settings = { settings with E.cache_onepass = true } in
  let baseline = E.cache_studies ~pool settings (Lazy.force pipelines) in
  let studies pool = E.cache_studies ~pool onepass_settings (Lazy.force pipelines) in
  let j1 = studies (Pc_exec.Pool.create ~num_domains:1) in
  let j4 = studies (Pc_exec.Pool.create ~num_domains:4) in
  Alcotest.(check bool) "one-pass -j1 = -j4 (byte identity)" true (j1 = j4);
  List.iter2
    (fun (a : E.cache_study) (b : E.cache_study) ->
      Alcotest.(check string) "bench order" a.E.bench b.E.bench;
      Alcotest.(check bool) "orig MPI series identical" true
        (a.E.orig_mpi = b.E.orig_mpi);
      Alcotest.(check bool) "clone MPI series identical" true
        (a.E.clone_mpi = b.E.clone_mpi);
      Alcotest.(check bool) "correlation identical" true
        (a.E.correlation = b.E.correlation))
    baseline j1

(* A program with no data reference has a zero reference MPI, so its
   relative-MPI series is undefined ([Study.relative_mpi] gives NaN) and
   so is its Figure-4 correlation; it must not read as a perfect 0.0. *)
let test_fig4_no_data_refs () =
  let module I = Pc_isa.Instr in
  let module Asm = Pc_isa.Asm in
  let program =
    Asm.assemble ~name:"alu_only"
      [
        Asm.Ins (I.Li (20, 1000L));
        Asm.Label "top";
        Asm.Ins (I.Alu (I.Add, 1, 1, 2));
        Asm.Ins (I.Alui (I.Add, 20, 20, -1));
        Asm.Ins (I.Br (I.Gt_z, 20, I.Label "top"));
        Asm.Ins I.Halt;
      ]
  in
  let p =
    {
      Pipeline.name = "alu_only";
      original = program;
      profile = Pc_profile.Collector.profile program;
      clone = program;
    }
  in
  match E.cache_studies settings [ p ] with
  | [ s ] ->
    Alcotest.(check bool) "no misses" true (Array.for_all (( = ) 0.0) s.E.orig_mpi);
    Alcotest.(check bool) "correlation is NaN" true (Float.is_nan s.E.correlation)
  | _ -> Alcotest.fail "one study per pipeline"

let test_fig5_rankings () =
  let studies = E.cache_studies ~pool settings (Lazy.force pipelines) in
  let scatter = E.rankings_scatter studies in
  Alcotest.(check int) "28 points" 28 (Array.length scatter);
  (* points near the diagonal: strong rank correlation *)
  let xs = Array.map fst scatter and ys = Array.map snd scatter in
  Alcotest.(check bool) "rank correlation > 0.8" true (Stats.spearman xs ys > 0.8)

let test_fig6_fig7_errors () =
  let runs = E.base_runs ~pool settings (Lazy.force pipelines) in
  List.iter
    (fun (r : E.base_run) ->
      Alcotest.(check bool) "IPC positive" true (r.E.ipc_orig > 0.0 && r.E.ipc_clone > 0.0);
      Alcotest.(check bool) "power positive" true
        (r.E.power_orig > 0.0 && r.E.power_clone > 0.0))
    runs;
  Alcotest.(check bool) "avg IPC error below 25%" true
    (E.avg_abs_error E.ipc_of runs < 0.25);
  Alcotest.(check bool) "avg power error below 25%" true
    (E.avg_abs_error E.power_of runs < 0.25)

let test_design_changes_structure () =
  let changes = E.design_changes () in
  Alcotest.(check int) "five changes" 5 (List.length changes);
  (* distinct configurations *)
  let names = List.map (fun (c : E.design_change) -> c.E.config.Pc_uarch.Config.name) changes in
  Alcotest.(check int) "distinct configs" 5 (List.length (List.sort_uniq compare names))

let test_table3_relative_errors () =
  let results = E.run_design_changes ~pool settings (Lazy.force pipelines) in
  Alcotest.(check int) "five results" 5 (List.length results);
  List.iter
    (fun (r : E.change_result) ->
      Alcotest.(check int) "per-bench rows" 4 (List.length r.E.per_bench);
      (* the paper's key claim: relative errors are small *)
      if r.E.avg_ipc_error > 0.25 then
        Alcotest.failf "%s: relative IPC error %.1f%%" r.E.change_name
          (100.0 *. r.E.avg_ipc_error);
      if r.E.avg_power_error > 0.25 then
        Alcotest.failf "%s: relative power error %.1f%%" r.E.change_name
          (100.0 *. r.E.avg_power_error))
    results

let test_width_change_speedups_tracked () =
  let results = E.run_design_changes ~pool settings (Lazy.force pipelines) in
  let width = List.nth results 2 in
  (* doubling the width speeds up both real and clone *)
  List.iter
    (fun (name, io, ic, _, _) ->
      if io < 1.0 then Alcotest.failf "%s: real slowdown from width?" name;
      if ic < 1.0 then Alcotest.failf "%s: clone slowdown from width?" name;
      ())
    width.E.per_bench

let test_ablation_indep_beats_dep () =
  let rows = E.ablation ~pool settings (Lazy.force pipelines) in
  Alcotest.(check int) "4 rows" 4 (List.length rows);
  let avg f = Stats.mean (Array.of_list (List.map f rows)) in
  let indep = avg (fun r -> r.E.indep_correlation) in
  let dep = avg (fun r -> r.E.dep_correlation) in
  Alcotest.(check bool)
    "microarchitecture-independent clones track caches better" true (indep > dep)

(* The predictor study's functional pass against its oracle, the timing
   model: every rate of two originals and their clones must be the same
   float a full Sim run under that predictor reports. *)
let test_bpred_rates_match_timing_model () =
  let max_instrs = 100_000 in
  let s = { settings with E.sim_instrs = max_instrs } in
  List.iter
    (fun (p : Pipeline.t) ->
      List.iter
        (fun (kind, program) ->
          let expected = Bpred_oracle.rates ~max_instrs E.bpred_configs program in
          let got = E.bpred_rates s program in
          Array.iteri
            (fun i e ->
              if got.(i) <> e then
                Alcotest.failf "%s %s, %s: functional %.17g vs timing model %.17g"
                  p.Pipeline.name kind
                  (Pc_branch.Predictor.config_name (List.nth E.bpred_configs i))
                  got.(i) e)
            expected)
        [ ("original", p.Pipeline.original); ("clone", p.Pipeline.clone) ])
    (List.filteri (fun i _ -> i < 2) (Lazy.force pipelines))

let test_microdep_baseline_runs () =
  let p = List.hd (Lazy.force pipelines) in
  let baseline = Pipeline.microdep_baseline ~reference:Pc_uarch.Config.base p in
  let m = Pc_funcsim.Machine.load baseline in
  let _ = Pc_funcsim.Machine.run ~max_instrs:3_000_000 m (fun _ -> ()) in
  Alcotest.(check bool) "halts" true (Pc_funcsim.Machine.halted m)

let test_c_source () =
  let p = List.hd (Lazy.force pipelines) in
  let c = Pipeline.c_source p in
  Alcotest.(check bool) "non-trivial C artefact" true (String.length c > 1000)

let () =
  Alcotest.run "perfclone"
    [
      ( "pipeline",
        [
          Alcotest.test_case "prepare" `Slow test_prepare;
          Alcotest.test_case "profile memoization" `Slow test_profile_memoized;
          Alcotest.test_case "determinism" `Slow test_pipeline_determinism;
          Alcotest.test_case "C dissemination artefact" `Slow test_c_source;
          Alcotest.test_case "microdep baseline runs" `Slow test_microdep_baseline_runs;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "figure 3" `Slow test_fig3;
          Alcotest.test_case "figure 4 correlations" `Slow test_fig4_correlations;
          Alcotest.test_case "figure 4 one-pass byte identity" `Slow
            test_fig4_onepass_identical;
          Alcotest.test_case "figure 5 rankings" `Slow test_fig5_rankings;
          Alcotest.test_case "figures 6/7 errors" `Slow test_fig6_fig7_errors;
          Alcotest.test_case "design change list" `Quick test_design_changes_structure;
          Alcotest.test_case "table 3 relative errors" `Slow test_table3_relative_errors;
          Alcotest.test_case "figure 8 speedups" `Slow test_width_change_speedups_tracked;
          Alcotest.test_case "ablation" `Slow test_ablation_indep_beats_dep;
          Alcotest.test_case "predictor rates equal the timing model's" `Slow
            test_bpred_rates_match_timing_model;
          Alcotest.test_case "figure 4 without data references" `Quick
            test_fig4_no_data_refs;
        ] );
    ]
