(* pc_sample: plan invariants, replay fidelity, determinism under the
   pool, and projected-vs-detailed accuracy on real workloads. *)

module Sample = Pc_sample.Sample
module Plan_cache = Pc_sample.Plan_cache
module Machine = Pc_funcsim.Machine
module Config = Pc_uarch.Config
module Sim = Pc_uarch.Sim
module Power = Pc_power.Power
module Pool = Pc_exec.Pool
module M = Pc_obs.Metrics
module E = Perfclone.Experiments

let program name = Pc_workloads.Registry.(compile (find name))

(* The base configuration and the paper's five design changes. *)
let six_configs () =
  Config.base :: List.map (fun (d : E.design_change) -> d.E.config) (E.design_changes ())

(* A fresh, empty directory for a plan cache under test. *)
let fresh_cache_dir () =
  let path = Filename.temp_file "pc_plan_cache_test" "" in
  Sys.remove path;
  path

let counter_value name =
  match List.assoc_opt name (M.snapshot ()).M.counters with
  | Some v -> v
  | None -> 0

let test_auto_interval () =
  (* ~32 intervals per run... *)
  Alcotest.(check int) "2M budget" 62_500 (Sample.auto_interval ~max_instrs:2_000_000);
  Alcotest.(check int) "500k budget" 15_625 (Sample.auto_interval ~max_instrs:500_000);
  (* ...floored at 10k below a 320k budget... *)
  Alcotest.(check int) "floor" 10_000 (Sample.auto_interval ~max_instrs:100_000);
  Alcotest.(check int) "tiny budget still floored" 10_000
    (Sample.auto_interval ~max_instrs:1);
  (* ...and capped at 1M above a 32M budget. *)
  Alcotest.(check int) "cap" 1_000_000 (Sample.auto_interval ~max_instrs:64_000_000);
  Alcotest.check_raises "non-positive budget rejected"
    (Invalid_argument "Pc_sample.auto_interval: max_instrs must be positive")
    (fun () -> ignore (Sample.auto_interval ~max_instrs:0));
  (* The default experiment budgets land inside the clamps. *)
  let check_derived name (s : E.settings) =
    let i = Sample.auto_interval ~max_instrs:s.E.sim_instrs in
    Alcotest.(check bool) name true (i >= 10_000 && i <= 1_000_000)
  in
  check_derived "default settings" E.default_settings;
  check_derived "quick settings" E.quick_settings

let test_plan_invariants () =
  let interval = 20_000 and max_instrs = 150_000 in
  let p = program "crc32" in
  let plan = Sample.plan ~seed:1 ~interval ~max_instrs p in
  Alcotest.(check bool) "at least one interval" true (plan.Sample.n_intervals >= 1);
  Alcotest.(check int) "one rep per cluster" plan.Sample.k
    (Array.length plan.Sample.reps);
  Alcotest.(check bool) "k bounded by intervals" true
    (plan.Sample.k <= plan.Sample.n_intervals);
  let weight_sum =
    Array.fold_left (fun acc r -> acc + r.Sample.weight) 0 plan.Sample.reps
  in
  Alcotest.(check int) "cluster weights partition the stream"
    plan.Sample.total_instrs weight_sum;
  Array.iter
    (fun (r : Sample.rep) ->
      Alcotest.(check int) "trace covers warmup + window"
        (r.Sample.warmup + r.Sample.window)
        (Array.length r.Sample.trace);
      Alcotest.(check bool) "window within the stream" true
        (r.Sample.start >= 0
        && r.Sample.start + r.Sample.window <= plan.Sample.total_instrs);
      Alcotest.(check bool) "warmup fits before the window" true
        (r.Sample.warmup <= r.Sample.start))
    plan.Sample.reps;
  Alcotest.(check bool) "coverage in (0, 1.5]" true
    (plan.Sample.coverage > 0.0 && plan.Sample.coverage <= 1.5)

let test_replay_fidelity () =
  (* A plan whose single window spans the whole run must record the exact
     stream the functional simulator produced: each event's dynamic
     fields in the packed trace, its static ones in the per-pc tables. *)
  let max_instrs = 30_000 in
  let p = program "qsort" in
  let plan = Sample.plan ~seed:1 ~interval:max_instrs ~max_instrs p in
  Alcotest.(check int) "single interval" 1 plan.Sample.n_intervals;
  let trace = plan.Sample.reps.(0).Sample.trace in
  let statics = plan.Sample.statics in
  let i = ref 0 in
  let direct =
    Machine.run ~max_instrs (Machine.load p) (fun (ev : Machine.event) ->
        if !i >= Array.length trace then Alcotest.fail "trace shorter than the run";
        let packed = trace.(!i) and pc = ev.Machine.pc in
        if
          Sample.packed_pc packed <> pc
          || Sample.packed_mem_addr packed <> ev.Machine.mem_addr
          || Sample.packed_taken packed <> ev.Machine.taken
        then Alcotest.failf "event %d: dynamic fields differ from the trace" !i;
        if
          statics.Machine.s_classes.(pc) <> ev.Machine.iclass
          || statics.Machine.s_read_lists.(pc) <> ev.Machine.reads
          || statics.Machine.s_write_ids.(pc) <> ev.Machine.writes
        then Alcotest.failf "event %d: static fields differ from the tables" !i;
        incr i)
  in
  Alcotest.(check int) "same stream length" direct (Array.length trace)

let test_full_coverage_projection_matches_detailed () =
  (* With one cluster covering the entire run and no warmup, projection
     degenerates to detailed simulation: identical cycles and counters. *)
  let max_instrs = 30_000 in
  let p = program "sha" in
  let plan = Sample.plan ~seed:1 ~interval:max_instrs ~max_instrs p in
  let cfg = Config.base in
  let detailed = Sim.run ~max_instrs cfg p in
  let projected = Sample.project_of_phases plan (Sample.replay_phases cfg plan) in
  Alcotest.(check int) "cycles" detailed.Sim.cycles projected.Sim.cycles;
  Alcotest.(check int) "instrs" detailed.Sim.instrs projected.Sim.instrs;
  Alcotest.(check int) "l1d misses" detailed.Sim.l1d_misses projected.Sim.l1d_misses;
  Alcotest.(check int) "mispredictions" detailed.Sim.mispredictions
    projected.Sim.mispredictions

let test_projection_accuracy () =
  (* The acceptance bar: sampled CPI within 5% of detailed on bundled
     workloads at interval 100k on the default simulation budget. *)
  let max_instrs = 2_000_000 and interval = 100_000 in
  let cfg = Config.base in
  List.iter
    (fun name ->
      let p = program name in
      let detailed = Sim.run ~max_instrs cfg p in
      let plan = Sample.plan ~seed:1 ~interval ~max_instrs p in
      let projected = Sample.project_of_phases plan (Sample.replay_phases cfg plan) in
      let err =
        abs_float (projected.Sim.ipc -. detailed.Sim.ipc) /. detailed.Sim.ipc
      in
      if err > 0.05 then
        Alcotest.failf "%s: projected IPC %.4f vs detailed %.4f (%.1f%% error)"
          name projected.Sim.ipc detailed.Sim.ipc (100.0 *. err))
    [ "crc32"; "qsort"; "sha"; "fft"; "dijkstra" ]

let test_power_projection_accuracy () =
  (* The PR-5 acceptance bar: sampled average power within 5% of the
     detailed estimate at interval 100k on the default simulation
     budget.  The projection prices each phase's measurement window
     (its instructions and cycles with pro-rata counters), never the
     representative's whole-run counters. *)
  let max_instrs = 2_000_000 and interval = 100_000 in
  let cfg = Config.base in
  List.iter
    (fun name ->
      let p = program name in
      let detailed = Power.total cfg (Sim.run ~max_instrs cfg p) in
      let plan = Sample.plan ~seed:1 ~interval ~max_instrs p in
      let sampled =
        Sample.project_power_of_phases cfg plan (Sample.replay_phases cfg plan)
      in
      let err = abs_float (sampled -. detailed) /. detailed in
      if err > 0.05 then
        Alcotest.failf "%s: sampled power %.3f vs detailed %.3f (%.1f%% error)"
          name sampled detailed (100.0 *. err))
    [ "crc32"; "qsort"; "sha"; "fft"; "dijkstra" ]

let test_recombine_zero_cycle_guard () =
  (* Regression: a representative whose measurement window retired no
     work used to divide by zero and poison the whole projection with
     NaN.  Now the phase is skipped, its population re-attributed, and
     the all-dead case degrades to IPC 1.0. *)
  let max_instrs = 30_000 in
  let p = program "crc32" in
  let plan = Sample.plan ~seed:1 ~interval:max_instrs ~max_instrs p in
  let phases = Sample.replay_phases Config.base plan in
  let rep, live_window, live = phases.(0) in
  let dead = { live_window with Sample.cycles = 0 } in
  let total_instrs = plan.Sample.total_instrs in
  let recombine = Sample.recombine ~config_name:"base" ~total_instrs in
  (* Mixed: the dead phase's population hands over to the survivor, so
     the result equals the survivor carrying the whole population. *)
  let mixed = recombine [| (60, live_window, live); (40, dead, live) |] in
  let alone = recombine [| (100, live_window, live) |] in
  Alcotest.(check int) "re-attributed cycles" alone.Sim.cycles mixed.Sim.cycles;
  Alcotest.(check (float 1e-12)) "re-attributed ipc" alone.Sim.ipc mixed.Sim.ipc;
  Alcotest.(check int) "re-attributed l1d misses" alone.Sim.l1d_misses
    mixed.Sim.l1d_misses;
  Alcotest.(check bool) "mixed ipc finite" true (Float.is_finite mixed.Sim.ipc);
  (* All dead: IPC 1.0, zeroed counters, nothing non-finite. *)
  let degenerate = recombine [| (100, dead, live) |] in
  Alcotest.(check (float 1e-12)) "degenerate ipc" 1.0 degenerate.Sim.ipc;
  Alcotest.(check int) "degenerate cycles" total_instrs degenerate.Sim.cycles;
  Alcotest.(check int) "degenerate misses zeroed" 0 degenerate.Sim.l1d_misses;
  (* Zero measured instructions is the same class of failure. *)
  let empty = { live_window with Sample.instrs = 0 } in
  let mixed' = recombine [| (60, live_window, live); (40, empty, live) |] in
  Alcotest.(check int) "zero-instr window skipped" alone.Sim.cycles
    mixed'.Sim.cycles;
  (* The power projection survives dead phases too. *)
  let pw = Sample.project_power_of_phases Config.base plan [| (rep, dead, live) |] in
  Alcotest.(check bool) "all-dead power finite and positive" true
    (Float.is_finite pw && pw > 0.0);
  let pw' = Sample.project_power_of_phases Config.base plan phases in
  Alcotest.(check bool) "live power finite and positive" true
    (Float.is_finite pw' && pw' > 0.0)

(* The window's boundary rule against an independent reading.  The
   model is causal (an instruction's schedule depends only on earlier
   ones), so the commit cycle at the warmup boundary is the finishing
   cycle of a fresh state fed the warmup alone.  A window therefore
   costs [max (full - prefix) 1] cycles, where [full] and [prefix] are
   the [Sim.finish] cycles of the whole trace and of its warmup (0 when
   there is none), and it is empty, at 0 cycles, exactly when the trace
   is all warmup. *)
let test_window_boundary () =
  let finish_cycles cfg plan (rep : Sample.rep) len =
    if len = 0 then 0
    else begin
      let sim = Sim.create cfg in
      Sample.feed_trace sim plan.Sample.statics rep.Sample.trace ~pos:0 ~len;
      (Sim.finish sim).Sim.cycles
    end
  in
  List.iter
    (fun name ->
      let plan = Sample.plan ~seed:1 ~interval:50_000 ~max_instrs:500_000 (program name) in
      let all_warmup =
        Array.map
          (fun (r : Sample.rep) -> { r with Sample.warmup = Array.length r.Sample.trace })
          plan.Sample.reps
      in
      List.iter
        (fun (cfg : Config.t) ->
          Array.iter
            (fun ((rep : Sample.rep), (w : Sample.window), _) ->
              let what s =
                Printf.sprintf "%s rep %d under %s: %s" name rep.Sample.cluster
                  cfg.Config.name s
              in
              let len = Array.length rep.Sample.trace in
              let empty = len <= rep.Sample.warmup in
              Alcotest.(check bool) (what "empty exactly when all warmup") empty
                (w.Sample.instrs = 0);
              let want =
                if empty then 0
                else
                  max
                    (finish_cycles cfg plan rep len
                    - finish_cycles cfg plan rep rep.Sample.warmup)
                    1
              in
              Alcotest.(check int) (what "window cycles") want w.Sample.cycles)
            (Array.append
               (Sample.replay_phases cfg plan)
               (Sample.replay_phases cfg { plan with Sample.reps = all_warmup })))
        (six_configs ()))
    [ "crc32"; "qsort" ]

let test_mpi_projection_accuracy () =
  (* The cache study consumes the *series* of 28 MPIs (figures 4/5
     correlate relative series), so the bar is series fidelity: high
     correlation with the detailed study plus a bounded per-config
     drift.  Per-config sampling bias is real but roughly uniform
     across configurations, which the correlations are insensitive
     to. *)
  let max_instrs = 300_000 and interval = 50_000 in
  List.iter
    (fun name ->
      let p = program name in
      let detailed =
        Pc_caches.Study.run_trace (fun emit ->
            let m = Machine.load p in
            Machine.run ~max_instrs m (fun ev ->
                if ev.Machine.mem_addr >= 0 then emit ev.Machine.mem_addr))
      in
      let det = Array.map (fun (r : Pc_caches.Study.result) -> r.Pc_caches.Study.mpi) detailed in
      let plan = Sample.plan ~seed:1 ~interval ~max_instrs p in
      let projected = Sample.project_mpi plan in
      let r = Pc_stats.Stats.pearson projected det in
      if r < 0.95 then
        Alcotest.failf "%s: projected/detailed MPI correlation %.3f < 0.95" name r;
      Array.iteri
        (fun i d ->
          if abs_float (projected.(i) -. d) > (0.25 *. d) +. 0.003 then
            Alcotest.failf "%s config %d: projected MPI %.5f vs detailed %.5f"
              name i projected.(i) d)
        det)
    [ "crc32"; "qsort"; "sha"; "dijkstra" ]

let test_project_mpi_onepass_identical () =
  (* The one-pass stack-distance path must reproduce the simulated
     cold/warm-bound projection bit for bit: same plan, same floats. *)
  let p = program "crc32" in
  let plan = Sample.plan ~seed:1 ~interval:50_000 ~max_instrs:300_000 p in
  let simulated = Sample.project_mpi plan in
  let onepass = Sample.project_mpi ~onepass:true plan in
  Alcotest.(check int) "28 projections" 28 (Array.length onepass);
  Array.iteri
    (fun i s ->
      if s <> onepass.(i) then
        Alcotest.failf "config %d: simulated %.12f vs one-pass %.12f" i s
          onepass.(i))
    simulated

(* --- the cache projection against its two-grid oracle ---

   [project_mpi] prices both bounds of a representative from one walk
   of one grid; [Mpi_oracle] prices them from two fresh grids.  Equal
   floats, on both grids. *)

let check_mpi_oracle what plan =
  List.iter
    (fun onepass ->
      let got = Sample.project_mpi ~onepass plan in
      let want = Mpi_oracle.project_mpi ~onepass plan in
      if got <> want then
        Alcotest.failf "%s (%s grid): one walk and two grids disagree" what
          (if onepass then "one-pass" else "simulated"))
    [ false; true ]

let test_mpi_oracle_quick_plans () =
  let settings = E.quick_settings in
  let max_instrs = settings.E.sim_instrs in
  let interval = Sample.auto_interval ~max_instrs in
  List.iter
    (fun (p : Perfclone.Pipeline.t) ->
      List.iter
        (fun (what, prog) ->
          check_mpi_oracle
            (p.Perfclone.Pipeline.name ^ " " ^ what)
            (Sample.plan ~seed:settings.E.seed ~interval ~max_instrs prog))
        [ ("original", p.Perfclone.Pipeline.original); ("clone", p.Perfclone.Pipeline.clone) ])
    (E.prepare settings)

(* Random plans: a few representatives of random warmup, window and
   weight over packed data references within a 16KB span (every third
   entry touches no memory), so every grid size sees reuse. *)
let arb_plan =
  let open QCheck.Gen in
  let statics = Machine.statics (Machine.load (program "crc32")) in
  let entry =
    map
      (fun a -> if a mod 3 = 0 then 0 else (a + 1) lsl 23)
      (int_bound 0x3FFF)
  in
  let rep =
    pair (int_bound 300) (int_bound 400) >>= fun (warmup, window) ->
    map2
      (fun weight trace ->
        { Sample.cluster = 0; start = warmup; window; warmup; weight; trace })
      (int_bound 50_000)
      (array_size (return (warmup + window)) entry)
  in
  let plan =
    map2
      (fun reps total_instrs ->
        {
          Sample.interval = 1_000;
          total_instrs;
          n_intervals = Array.length reps;
          k = Array.length reps;
          dims = Sample.bbv_dims;
          coverage = 0.0;
          reps;
          statics;
        })
      (array_size (int_range 1 4) rep)
      (int_range 1 200_000)
  in
  QCheck.make
    ~print:(fun p ->
      String.concat "; "
        (Array.to_list
           (Array.map
              (fun (r : Sample.rep) ->
                Printf.sprintf "warmup %d window %d weight %d" r.Sample.warmup
                  r.Sample.window r.Sample.weight)
              p.Sample.reps)))
    plan

let qcheck_mpi_oracle_random_plans =
  QCheck.Test.make ~name:"random plans, both grids" ~count:40 arb_plan (fun plan ->
      check_mpi_oracle "random plan" plan;
      true)

(* The sampled predictor projection against its oracle, the timing
   model's projection under each predictor: equal floats, also when a
   representative's window is emptied (skip and renormalise) and when
   every window is (rate 0). *)
let test_project_bpred_matches_timing_model () =
  let configs = E.bpred_configs in
  let plan = Sample.plan ~seed:1 ~interval:10_000 ~max_instrs:300_000 (program "crc32") in
  Alcotest.(check bool) "several representatives" true (Array.length plan.Sample.reps >= 2);
  let empty (rep : Sample.rep) = { rep with Sample.warmup = Array.length rep.Sample.trace } in
  let check what plan =
    let expected = Bpred_oracle.projected_rates configs plan in
    let got = Sample.project_bpred configs plan in
    Array.iteri
      (fun i e ->
        if got.(i) <> e then
          Alcotest.failf "%s, %s: functional %.17g vs timing model %.17g" what
            (Pc_branch.Predictor.config_name (List.nth configs i))
            got.(i) e)
      expected;
    got
  in
  ignore (check "plan" plan);
  let one_empty =
    { plan with Sample.reps = Array.mapi (fun i r -> if i = 0 then empty r else r) plan.Sample.reps }
  in
  ignore (check "one window emptied" one_empty);
  let all_empty = { plan with Sample.reps = Array.map empty plan.Sample.reps } in
  Array.iter
    (fun rate -> Alcotest.(check (float 0.0)) "no window measured: rate 0" 0.0 rate)
    (check "every window emptied" all_empty)

(* The experiment driver's sampled path prices the same rates the
   sampled timing-model runs of [sim_run] report. *)
let test_sampled_bpred_rates_match_sim_run () =
  let settings =
    { E.quick_settings with E.sim_instrs = 300_000; sample = Some 10_000 }
  in
  let p = program "crc32" in
  let expected =
    Array.of_list
      (List.map
         (fun bp -> Sim.mispredict_rate (E.sim_run settings (Bpred_oracle.config bp) p))
         E.bpred_configs)
  in
  Alcotest.(check bool) "same rates" true (E.bpred_rates settings p = expected)

let test_plan_determinism () =
  let p = program "fft" in
  let mk () = Sample.plan ~seed:7 ~interval:25_000 ~max_instrs:120_000 p in
  let a = mk () and b = mk () in
  Alcotest.(check int) "same k" a.Sample.k b.Sample.k;
  Array.iteri
    (fun i (ra : Sample.rep) ->
      let rb = b.Sample.reps.(i) in
      Alcotest.(check int) "same start" ra.Sample.start rb.Sample.start;
      Alcotest.(check bool) "same trace" true (ra.Sample.trace = rb.Sample.trace))
    a.Sample.reps

let test_seed_changes_clustering_stream () =
  (* Different seeds may pick different restarts; the plan stays valid. *)
  let p = program "fft" in
  let a = Sample.plan ~seed:1 ~interval:25_000 ~max_instrs:120_000 p in
  let b = Sample.plan ~seed:2 ~interval:25_000 ~max_instrs:120_000 p in
  Alcotest.(check int) "same total" a.Sample.total_instrs b.Sample.total_instrs;
  Alcotest.(check int) "same intervals" a.Sample.n_intervals b.Sample.n_intervals

(* --- persistent plan cache --- *)

let qcheck_plan_cache_roundtrip =
  (* Store-then-find must return a structurally identical plan for any
     sampling parameters: the on-disk format round-trips packed traces,
     weights and floats exactly. *)
  let p = program "crc32" in
  QCheck.Test.make ~name:"plan cache round-trip" ~count:8
    QCheck.(pair (int_range 1 1_000_000) (int_range 10_000 40_000))
    (fun (seed, interval) ->
      let plan = Sample.plan ~seed ~interval ~max_instrs:60_000 p in
      let dir = fresh_cache_dir () in
      let cache = Plan_cache.create dir in
      let key =
        Plan_cache.key
          ~profile_id:(Printf.sprintf "roundtrip-%d-%d" seed interval)
          ~interval ~seed
      in
      Plan_cache.store cache key plan;
      match Plan_cache.find cache key with
      | Some cached -> cached = plan
      | None -> false)

let test_plan_cache_corruption_recovery () =
  (* One flipped payload bit must fail the entry's digest: a miss that
     removes the file, then a recompute that re-stores the plan. *)
  let p = program "sha" in
  let plan = Sample.plan ~seed:3 ~interval:20_000 ~max_instrs:60_000 p in
  let dir = fresh_cache_dir () in
  let cache = Plan_cache.create dir in
  let key = Plan_cache.key ~profile_id:"bit-flip" ~interval:20_000 ~seed:3 in
  Plan_cache.store cache key plan;
  let file = Filename.concat dir (key ^ ".plan") in
  Flip.float_bit file plan.Sample.coverage;
  Alcotest.(check bool) "flipped entry reads as a miss" true
    (Plan_cache.find cache key = None);
  Alcotest.(check bool) "flipped entry removed" false (Sys.file_exists file);
  let computed = ref false in
  let recovered =
    Plan_cache.find_or_compute cache key (fun () ->
        computed := true;
        plan)
  in
  Alcotest.(check bool) "recomputed" true (!computed && recovered = plan);
  Alcotest.(check bool) "re-stored" true (Plan_cache.find cache key = Some plan);
  (* A truncated file (bad magic) is the other corruption shape. *)
  Out_channel.with_open_bin file (fun oc -> output_string oc "pc-p");
  Alcotest.(check bool) "truncated entry reads as a miss" true (Plan_cache.find cache key = None);
  Alcotest.(check bool) "truncated entry removed" false (Sys.file_exists file)

let test_plan_cache_metrics () =
  let was_enabled = M.enabled () in
  M.set_enabled true;
  Fun.protect ~finally:(fun () -> M.set_enabled was_enabled) @@ fun () ->
  let p = program "crc32" in
  let plan = Sample.plan ~seed:5 ~interval:20_000 ~max_instrs:60_000 p in
  let cache = Plan_cache.create (fresh_cache_dir ()) in
  let key = Plan_cache.key ~profile_id:"metrics" ~interval:20_000 ~seed:5 in
  let hits0 = counter_value "plan_cache.hits"
  and misses0 = counter_value "plan_cache.misses" in
  Alcotest.(check bool) "cold lookup misses" true (Plan_cache.find cache key = None);
  Alcotest.(check int) "miss counted" (misses0 + 1)
    (counter_value "plan_cache.misses");
  Plan_cache.store cache key plan;
  Alcotest.(check bool) "warm lookup hits" true
    (Plan_cache.find cache key <> None);
  Alcotest.(check int) "hit counted" (hits0 + 1) (counter_value "plan_cache.hits");
  Alcotest.(check int) "hit is not a miss" (misses0 + 1)
    (counter_value "plan_cache.misses")

let test_plan_cache_eviction () =
  let plan = Sample.plan ~seed:1 ~interval:20_000 ~max_instrs:60_000 (program "crc32") in
  let dir = fresh_cache_dir () in
  let cache = Plan_cache.create ~max_entries:2 dir in
  let key i = Plan_cache.key ~profile_id:(string_of_int i) ~interval:20_000 ~seed:1 in
  List.iter (fun i -> Plan_cache.store cache (key i) plan) [ 0; 1; 2 ];
  let on_disk = List.filter (fun f -> Filename.check_suffix f ".plan") (Array.to_list (Sys.readdir dir)) in
  Alcotest.(check int) "eviction keeps max_entries plans" 2 (List.length on_disk)

(* --- memo keys ---

   A program is named in every in-process key by its digest, computed
   once per program value: structurally equal copies share it (and so
   every memo entry), different programs do not.  The on-disk key keeps
   digesting (program, budget) whole, so a plan cache built before the
   digest existed is still hit: crc32's entry below was written by that
   build. *)

let copy (p : Pc_isa.Program.t) =
  Pc_isa.Program.v ~name:p.Pc_isa.Program.name
    ~code:(Array.copy p.Pc_isa.Program.code) ~data:p.Pc_isa.Program.data
    ~data_bytes:p.Pc_isa.Program.data_bytes

let test_program_digest_keys () =
  let crc = program "crc32" in
  let twin = copy crc in
  Alcotest.(check bool) "a physically distinct copy" false (crc == twin);
  Alcotest.(check string) "equal programs share a digest"
    (Plan_cache.program_digest crc) (Plan_cache.program_digest twin);
  Alcotest.(check string) "the digest is the structural one"
    (Plan_cache.structural crc) (Plan_cache.program_digest twin);
  Alcotest.(check bool) "different programs differ" true
    (Plan_cache.program_digest crc <> Plan_cache.program_digest (program "qsort"));
  let renamed =
    Pc_isa.Program.v ~name:"crc32-renamed" ~code:crc.Pc_isa.Program.code
      ~data:crc.Pc_isa.Program.data ~data_bytes:crc.Pc_isa.Program.data_bytes
  in
  Alcotest.(check bool) "a renamed program differs" true
    (Plan_cache.program_digest crc <> Plan_cache.program_digest renamed);
  Plan_cache.clear_memo ();
  let hits () = counter_value "exec.store.sample.plan.hits" in
  let plan p = Plan_cache.plan ~seed:1 ~interval:20_000 ~max_instrs:60_000 p in
  let first = plan crc in
  let before = hits () in
  let second = plan twin in
  Alcotest.(check int) "the copy's plan is a memo hit" (before + 1) (hits ());
  Alcotest.(check bool) "the same plan" true (first == second);
  ignore (plan renamed);
  Alcotest.(check int) "the renamed program's is not" (before + 1) (hits ())

let pinned_disk_key = "6fdb449737497f113fd6a34dce4f8bf0"

let test_disk_key_pinned () =
  let crc = program "crc32" in
  let max_instrs = 60_000 and interval = 20_000 and seed = 1 in
  Alcotest.(check string) "key of (program, budget)" pinned_disk_key
    (Plan_cache.key ~profile_id:(Plan_cache.structural (crc, max_instrs)) ~interval ~seed);
  Plan_cache.clear_memo ();
  let dir = fresh_cache_dir () in
  ignore (Plan_cache.plan ~dir ~seed ~interval ~max_instrs crc);
  Alcotest.(check (list string)) "the entry plan writes"
    [ pinned_disk_key ^ ".plan" ]
    (Array.to_list (Sys.readdir dir))

let test_sampled_statsim_deterministic_across_pools () =
  (* Phase-wise synthetic-trace generation: pp_statsim output identical
     at -j1 and -j4, and across repeated same-seed runs. *)
  let settings =
    {
      E.seed = 1;
      profile_instrs = 100_000;
      sim_instrs = 120_000;
      clone_dynamic = 30_000;
      benchmarks = [ "crc32"; "sha" ];
      sample = Some 30_000;
      plan_cache = None;
      cache_onepass = false;
    }
  in
  let render pool =
    E.clear_caches ();
    let ps = E.prepare ~pool settings in
    Format.asprintf "%a" E.pp_statsim (E.statsim_comparison ~pool settings ps)
  in
  let serial = render Pool.serial in
  let serial' = render Pool.serial in
  let parallel = render (Pool.create ~num_domains:4) in
  Alcotest.(check string) "sampled statsim identical across runs" serial serial';
  Alcotest.(check string) "sampled statsim identical at -j1 and -j4" serial
    parallel

let test_sampled_experiments_deterministic_across_pools () =
  (* Sampling on: fig6/fig4 output identical at -j1 and -j4. *)
  let settings =
    {
      E.seed = 1;
      profile_instrs = 100_000;
      sim_instrs = 120_000;
      clone_dynamic = 30_000;
      benchmarks = [ "crc32"; "sha" ];
      sample = Some 30_000;
      plan_cache = None;
      cache_onepass = false;
    }
  in
  let render pool =
    E.clear_caches ();
    let ps = E.prepare ~pool settings in
    Format.asprintf "%a%a" E.pp_fig6
      (E.base_runs ~pool settings ps)
      E.pp_fig4
      (E.cache_studies ~pool settings ps)
  in
  let serial = render Pool.serial in
  let parallel = render (Pool.create ~num_domains:4) in
  Alcotest.(check string) "sampled figs identical at -j1 and -j4" serial parallel

let test_sampling_off_matches_seed_behaviour () =
  (* The default settings carry [sample = None]; a sampled and an
     unsampled run use different estimators, so their outputs differ —
     but the unsampled path must not depend on the sample field's mere
     presence.  (Byte-identity of the unsampled path against main is
     enforced by the existing fig tests, which all run with
     [sample = None].) *)
  Alcotest.(check bool) "default settings sample off" true
    (E.default_settings.E.sample = None);
  Alcotest.(check bool) "quick settings sample off" true
    (E.quick_settings.E.sample = None)

(* --- pinned md5s ---

   The MD5 of each plan's marshalled representatives (window, warmup,
   weight and packed trace), with the plan's shape, recorded before both
   functional passes of [Sample.plan] moved from per-event records to
   batched rows.  A plan that moves one packed instruction fails here;
   so would a parent-built plan cache that the new build misreads. *)

let pinned_plans =
  [
    ("crc32", "b686316a4b093d1fa86345607c4e20bf", 2, 10, 500_000);
    ("qsort", "b6b03c0d8aa659e3730497b799bb323c", 1, 10, 500_000);
  ]

let test_pinned_plans () =
  List.iter
    (fun (name, want_md5, want_k, want_intervals, want_total) ->
      let plan = Sample.plan ~seed:1 ~interval:50_000 ~max_instrs:500_000 (program name) in
      let what s = name ^ ": " ^ s in
      Alcotest.(check string) (what "reps")
        want_md5
        (Digest.to_hex (Digest.string (Marshal.to_string plan.Sample.reps [])));
      Alcotest.(check int) (what "k") want_k plan.Sample.k;
      Alcotest.(check int) (what "intervals") want_intervals plan.Sample.n_intervals;
      Alcotest.(check int) (what "instructions") want_total plan.Sample.total_instrs)
    pinned_plans

(* Every sampled projection of those plans, under the base config and
   the five design changes, recorded before the timing model stopped
   tracking the measurement window: the recombined timing result, the
   power projection, and the sampled statistical-simulation estimate
   from the program's 300k-instruction profile.  Floats print as [%h],
   so one moved bit fails. *)

let render (r : Sim.result) =
  Printf.sprintf "%s %d %d %h [%s] %d %d %d %d %d %d %d %d %d %d %d\n"
    r.Sim.config_name r.Sim.instrs r.Sim.cycles r.Sim.ipc
    (String.concat "," (Array.to_list (Array.map string_of_int r.Sim.class_counts)))
    r.Sim.branches r.Sim.mispredictions r.Sim.l1i_accesses r.Sim.l1i_misses
    r.Sim.l1d_accesses r.Sim.l1d_misses r.Sim.l2_accesses r.Sim.l2_misses
    r.Sim.mem_accesses r.Sim.fetch_stall_icache_cycles
    r.Sim.fetch_stall_mispredict_cycles

let pinned_projections =
  [
    ("crc32", "91473ede6552d63df9c4fedd413c2298");
    ("qsort", "a63e536886efe662edfa0f09bb00674c");
  ]

let test_pinned_projections () =
  let configs = six_configs () in
  List.iter
    (fun (name, want_md5) ->
      let p = program name in
      let plan = Sample.plan ~seed:1 ~interval:50_000 ~max_instrs:500_000 p in
      let profile = Pc_profile.Collector.profile ~max_instrs:300_000 p in
      let buf = Buffer.create 4096 in
      List.iter
        (fun cfg ->
          let phases = Sample.replay_phases cfg plan in
          Buffer.add_string buf (render (Sample.project_of_phases plan phases));
          Buffer.add_string buf
            (Printf.sprintf "%h\n" (Sample.project_power_of_phases cfg plan phases));
          Buffer.add_string buf
            (render
               (Pc_statsim.Statsim.estimate_sampled ~seed:1 ~instrs:20_000 ~plan cfg
                  profile)))
        configs;
      let got = Digest.to_hex (Digest.string (Buffer.contents buf)) in
      Alcotest.(check string) (name ^ ": projections") want_md5 got)
    pinned_projections

let () =
  Alcotest.run "pc_sample"
    [
      ( "plan",
        [
          Alcotest.test_case "auto interval" `Quick test_auto_interval;
          Alcotest.test_case "invariants" `Quick test_plan_invariants;
          Alcotest.test_case "determinism" `Quick test_plan_determinism;
          Alcotest.test_case "seed robustness" `Quick
            test_seed_changes_clustering_stream;
        ] );
      ( "replay",
        [
          Alcotest.test_case "fidelity" `Quick test_replay_fidelity;
          Alcotest.test_case "full-coverage projection is exact" `Quick
            test_full_coverage_projection_matches_detailed;
          Alcotest.test_case "zero-cycle phases skipped" `Quick
            test_recombine_zero_cycle_guard;
          Alcotest.test_case "predictor projection equals the timing model's" `Quick
            test_project_bpred_matches_timing_model;
          Alcotest.test_case "sampled predictor study equals sim_run" `Quick
            test_sampled_bpred_rates_match_sim_run;
          Alcotest.test_case "window boundary is causal" `Quick test_window_boundary;
        ] );
      ( "accuracy",
        [
          Alcotest.test_case "projected IPC within 5%" `Slow
            test_projection_accuracy;
          Alcotest.test_case "projected power within 5%" `Slow
            test_power_projection_accuracy;
          Alcotest.test_case "projected MPI tracks detailed" `Slow
            test_mpi_projection_accuracy;
          Alcotest.test_case "one-pass MPI projection byte-identical" `Slow
            test_project_mpi_onepass_identical;
        ] );
      ( "plan-cache",
        [
          QCheck_alcotest.to_alcotest qcheck_plan_cache_roundtrip;
          Alcotest.test_case "corruption recovery" `Quick
            test_plan_cache_corruption_recovery;
          Alcotest.test_case "hit/miss metrics" `Quick test_plan_cache_metrics;
          Alcotest.test_case "eviction bounds entries" `Quick test_plan_cache_eviction;
          Alcotest.test_case "equal programs share memo keys" `Quick
            test_program_digest_keys;
          Alcotest.test_case "disk key pinned" `Quick test_disk_key_pinned;
        ] );
      ( "mpi oracle",
        [
          Alcotest.test_case "quick plans, both grids" `Quick
            test_mpi_oracle_quick_plans;
          QCheck_alcotest.to_alcotest qcheck_mpi_oracle_random_plans;
        ] );
      ( "integration",
        [
          Alcotest.test_case "sampled figs deterministic across pools" `Slow
            test_sampled_experiments_deterministic_across_pools;
          Alcotest.test_case "sampled statsim deterministic across pools" `Slow
            test_sampled_statsim_deterministic_across_pools;
          Alcotest.test_case "sampling off by default" `Quick
            test_sampling_off_matches_seed_behaviour;
        ] );
      ( "pinned md5s",
        [
          Alcotest.test_case "plans" `Quick test_pinned_plans;
          Alcotest.test_case "projections" `Quick test_pinned_projections;
        ] );
    ]
