(* Layer probes, the per-layer metrics of a traced pass, and the
   attribution of a pass's wall time to layers.

   A probe times calls into one module's public functions from outside,
   on the workload's own programs and budgets, and divides by the work
   those calls did.  Most consumers run the functional simulator
   underneath (the timing model, the profiler, the sampler), so their
   unit costs are reported exclusive of it: the probe's time minus the
   functional simulator's time for the same instructions.  Attribution
   then multiplies each exclusive unit cost by the work the traced pass
   counted (pc_obs counters the library keeps, plus counts the
   benchmark knows from the results it got back) and divides by the
   untraced pass's wall time.  Whatever the probes do not explain is
   reported as the unattributed remainder. *)

module Machine = Pc_funcsim.Machine
module Study = Pc_caches.Study
module Sim = Pc_uarch.Sim
module Config = Pc_uarch.Config
module Sample = Pc_sample.Sample
module W = Workloads

type reading = { seconds : float; units : float; words : float }

let none = { seconds = 0.0; units = 0.0; words = 0.0 }

let ( ++ ) a b =
  { seconds = a.seconds +. b.seconds; units = a.units +. b.units; words = a.words +. b.words }

let measure f =
  let w0 = Measure.allocated_words () in
  let v, seconds = Measure.time f in
  (v, seconds, Measure.allocated_words () -. w0)

let counter name = Pc_obs.Metrics.value (Pc_obs.Metrics.counter name)

(* Counter delta of [name] across [f]. *)
let counting name f =
  let before = counter name in
  let v = f () in
  (v, float_of_int (counter name - before))

type probes = {
  event : reading;  (** Machine.run with a no-op consumer, per instruction *)
  batched : reading;  (** Machine.run_batched with a no-op consumer *)
  sim : reading;  (** Sim.run, functional simulator included *)
  cache_sim : reading;  (** Study.run_trace, per data reference *)
  cache_onepass : reading;  (** Study.run_trace_onepass on the same traces *)
  profile : reading;  (** Collector.profile, functional simulator included *)
  profile_event : reading;  (** the event-path reading of the same programs *)
  synth : reading;  (** Synth.generate, per clone *)
  statsim : reading;  (** Statsim.estimate, per estimate *)
  statsim_uarch : float;  (** timing-model instructions the estimates ran *)
  plan : reading;  (** Sample.plan, per planned instruction *)
  plan_funcsim : float;  (** functional instructions the plans executed *)
  replay : reading;  (** Sample.replay_phases, per replayed instruction *)
  interval : int;  (** the sampling interval the plans used *)
}

(* Cache probes replay at most this many data references per program:
   the 28-cache simulation costs microseconds per reference. *)
let ref_cap = 100_000

let capture_refs ~budget program =
  let refs = Array.make ref_cap 0 and n = ref 0 in
  let instrs =
    Machine.run ~max_instrs:budget (Machine.load program) (fun ev ->
        if ev.Machine.mem_addr >= 0 && !n < ref_cap then begin
          refs.(!n) <- ev.Machine.mem_addr;
          incr n
        end)
  in
  (Array.sub refs 0 !n, instrs)

let same_counts (a : Study.result array) (b : Study.result array) =
  Array.length a = Array.length b
  && Array.for_all2
       (fun (x : Study.result) (y : Study.result) ->
         x.Study.misses = y.Study.misses && x.Study.accesses = y.Study.accesses)
       a b

(* Run every probe over the workload's programs.  The two agreement
   checks are output checks: the one-pass cache sweep must price every
   probe trace exactly as the 28 simulated caches do, and the batched
   functional path must retire what the event path retires. *)
let run tally (set : W.probe_set) =
  let budget = set.W.budget in
  let programs = set.W.originals @ set.W.clones in
  let event_of = Hashtbl.create 16 in
  let per_program (event, batched, sim, csim, conepass) program =
    let name = program.Pc_isa.Program.name in
    let m = Machine.load program in
    let n, dt, words = measure (fun () -> Machine.run ~max_instrs:budget m ignore) in
    let e = { seconds = dt; units = float_of_int n; words } in
    Hashtbl.replace event_of name e;
    let mb = Machine.load program in
    let nb, dtb, wb = measure (fun () -> Machine.run_batched ~max_instrs:budget mb ignore) in
    Tally.check tally
      ("event and batched paths retire the same stream of " ^ name)
      (n = nb && Machine.retired_by_class m = Machine.retired_by_class mb);
    let r, dts, ws = measure (fun () -> Sim.run ~max_instrs:budget Config.base program) in
    let refs, instrs = capture_refs ~budget program in
    let feed emit =
      Array.iter emit refs;
      instrs
    in
    let a, dtc, wc = measure (fun () -> Study.run_trace feed) in
    let b, dto, wo = measure (fun () -> Study.run_trace_onepass feed) in
    Tally.check tally
      ("simulated and one-pass cache sweeps agree on " ^ name)
      (same_counts a b);
    let nrefs = float_of_int (Array.length refs) in
    ( event ++ e,
      batched ++ { seconds = dtb; units = float_of_int nb; words = wb },
      sim ++ { seconds = dts; units = float_of_int r.Sim.instrs; words = ws },
      csim ++ { seconds = dtc; units = nrefs; words = wc },
      conepass ++ { seconds = dto; units = nrefs; words = wo } )
  in
  let event, batched, sim, cache_sim, cache_onepass =
    List.fold_left per_program (none, none, none, none, none) programs
  in
  let profile, profile_event =
    List.fold_left
      (fun (acc, ev) program ->
        let p, dt, words =
          measure (fun () -> Pc_profile.Collector.profile ~max_instrs:budget program)
        in
        ( acc ++ { seconds = dt; units = float_of_int p.Pc_profile.Profile.instr_count; words },
          ev ++ Hashtbl.find event_of program.Pc_isa.Program.name ))
      (none, none) set.W.originals
  in
  let options =
    {
      Pc_synth.Synth.default_options with
      Pc_synth.Synth.seed = set.W.seed;
      target_dynamic = set.W.clone_dynamic;
    }
  in
  let synth =
    List.fold_left
      (fun acc profile ->
        let _, dt, words = measure (fun () -> Pc_synth.Synth.generate ~options profile) in
        acc ++ { seconds = dt; units = 1.0; words })
      none set.W.profiles
  in
  let statsim, statsim_uarch =
    List.fold_left
      (fun (acc, instrs) profile ->
        let r, dt, words =
          measure (fun () ->
              Pc_statsim.Statsim.estimate ~seed:set.W.seed ~instrs:(min 200_000 budget)
                Config.base profile)
        in
        (acc ++ { seconds = dt; units = 1.0; words }, instrs +. float_of_int r.Sim.instrs))
      (none, 0.0) set.W.profiles
  in
  let interval = Sample.auto_interval ~max_instrs:budget in
  let plan, plan_funcsim, replay =
    List.fold_left
      (fun (pacc, pf, racc) program ->
        let (plan, dt, words), funcsim =
          counting "funcsim.retired.total" (fun () ->
              measure (fun () ->
                  Sample.plan ~seed:set.W.seed ~interval ~max_instrs:budget program))
        in
        let (_, dtr, wr), replayed =
          counting "uarch.instrs" (fun () ->
              measure (fun () -> Sample.replay_phases Config.base plan))
        in
        let planned = float_of_int (plan.Sample.n_intervals * interval) in
        ( pacc ++ { seconds = dt; units = planned; words },
          pf +. funcsim,
          racc ++ { seconds = dtr; units = replayed; words = wr } ))
      (none, 0.0, none) programs
  in
  {
    event;
    batched;
    sim;
    cache_sim;
    cache_onepass;
    profile;
    profile_event;
    synth;
    statsim;
    statsim_uarch;
    plan;
    plan_funcsim;
    replay;
    interval;
  }

let per_unit r = Measure.ratio r.seconds r.units
let words_per_unit r = Measure.ratio r.words r.units

(* Exclusive unit costs, in seconds per unit. *)
let event_s p = per_unit p.event
let uarch_s p = Measure.ratio (p.sim.seconds -. p.event.seconds) p.sim.units

let profile_s p =
  Measure.ratio (p.profile.seconds -. p.profile_event.seconds) p.profile.units

let statsim_s p =
  Measure.ratio (p.statsim.seconds -. (p.statsim_uarch *. uarch_s p)) p.statsim.units

let plan_s p =
  Measure.ratio (p.plan.seconds -. (p.plan_funcsim *. event_s p)) p.plan.units

(* --- the traced pass --- *)

type traced = {
  wall : float;  (** wall seconds of the second untraced pass *)
  traced_wall : float;
  counters : (string * int) list;  (** counter deltas over the traced pass *)
  busy_s : float;  (** pool task seconds over the traced pass *)
  domains : int;
  pass : W.pass;  (** the traced pass *)
  gc : (string * float) list;  (** Gc.quick_stat deltas of an untraced pass *)
  setup : (string * float) list;  (** kc.compile_ms, exec.pool.create_ms *)
}

let count t name = float_of_int (Option.value ~default:0 (List.assoc_opt name t.counters))
let work t key = Option.value ~default:0.0 (List.assoc_opt key t.pass.W.work)
let call_s t key = Option.value ~default:0.0 (List.assoc_opt key t.pass.W.calls)

let gc_stat f =
  let before = Gc.quick_stat () in
  let v = f () in
  let after = Gc.quick_stat () in
  let words_gb w = w *. float_of_int (Sys.word_size / 8) /. 1e9 in
  ( v,
    [
      ("gc.minor_gb", words_gb (after.Gc.minor_words -. before.Gc.minor_words));
      ( "gc.minor_collections",
        float_of_int (after.Gc.minor_collections - before.Gc.minor_collections) );
      ( "gc.major_collections",
        float_of_int (after.Gc.major_collections - before.Gc.major_collections) );
      ( "gc.top_heap_mb",
        float_of_int (after.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0 );
    ] )

let core_drivers =
  [
    "prepare"; "prepare_sample"; "fig3"; "cache_studies"; "base_runs";
    "design_changes"; "ablation"; "statsim"; "portable"; "bpred"; "seeds";
    "fidelity";
  ]

let stores =
  [
    "profile"; "trace"; "sim"; "sample.plan"; "sample.phases"; "fidelity";
    "scenario-program"; "scenario-baseline";
  ]

let presets = Pc_scenario.Presets.names

type attribution_row = {
  layer : string;
  units : float;
  unit_name : string;
  unit_s : float;  (** exclusive probe cost per unit *)
  seconds : float;
}

(* Work counted in the traced pass times exclusive unit cost. *)
let attribution t p =
  let batched = count t "scenario.corun.instrs" in
  List.map
    (fun (layer, units, unit_name, unit_s) ->
      { layer; units; unit_name; unit_s; seconds = units *. unit_s })
    [
      ("funcsim", count t "funcsim.retired.total" -. batched, "instr", event_s p);
      ("funcsim (batched)", batched, "instr", per_unit p.batched);
      ("uarch", count t "uarch.instrs", "instr", uarch_s p);
      ("caches (simulated)", count t "study.trace_refs", "ref", per_unit p.cache_sim);
      ("caches (one-pass)", count t "study.onepass.trace_refs", "ref", per_unit p.cache_onepass);
      ("profile", work t "profile.instrs", "instr", profile_s p);
      ("synth", work t "synth.clones", "clone", per_unit p.synth);
      ("statsim", work t "statsim.estimates", "estimate", statsim_s p);
      ( "sample (plan)",
        count t "sample.intervals" *. float_of_int p.interval,
        "instr",
        plan_s p );
    ]

let metrics t p =
  let ns s = 1e9 *. s and ms s = 1e3 *. s in
  let capacity = t.traced_wall *. float_of_int t.domains in
  let hit_ratio name =
    let hits = count t (Printf.sprintf "exec.store.%s.hits" name) in
    let misses = count t (Printf.sprintf "exec.store.%s.misses" name) in
    (Printf.sprintf "exec.store.%s.hit_ratio" name, Measure.ratio hits (hits +. misses))
  in
  let scenario_s =
    List.map (fun preset -> ("scenario.run_s." ^ preset, call_s t ("scenario:" ^ preset))) presets
  in
  let fidelity_count = work t "trace.fidelity_count" in
  [
    ("uarch.ns_per_instr", ns (uarch_s p));
    ("uarch.words_per_instr", Measure.ratio (p.sim.words -. p.event.words) p.sim.units);
    ("uarch.instrs", count t "uarch.instrs");
    ("uarch.cycles", count t "uarch.cycles");
    ("branch.lookups", count t "uarch.bpred.lookups");
    ("branch.mispredicts", count t "uarch.bpred.mispredicts");
    ("caches.sim_ns_per_ref", ns (per_unit p.cache_sim));
    ("caches.onepass_ns_per_ref", ns (per_unit p.cache_onepass));
    ("caches.words_per_ref", words_per_unit p.cache_sim);
    ("caches.refs", count t "study.trace_refs" +. count t "study.onepass.trace_refs");
    ("funcsim.event_ns_per_instr", ns (event_s p));
    ("funcsim.batched_ns_per_instr", ns (per_unit p.batched));
    ("funcsim.words_per_instr", words_per_unit p.event);
    ("funcsim.instrs", count t "funcsim.retired.total");
    ("profile.ns_per_instr", ns (profile_s p));
    ( "profile.words_per_instr",
      Measure.ratio (p.profile.words -. p.profile_event.words) p.profile.units );
    ("synth.ms_per_clone", ms (per_unit p.synth));
    ("trace.fidelity_ms", ms (Measure.ratio (call_s t "fidelity") fidelity_count));
    ("trace.fidelity_count", fidelity_count);
    ("tune.evals", count t "tune.evals");
    ("tune.memo_hits", count t "tune.memo_hits");
    ("tune.store_hits", count t "tune.store.hits");
    ("tune.store_misses", count t "tune.store.misses");
    ("tune.search_s", call_s t "tune");
    ("tune.warm_s", call_s t "tune_warm");
    ("exec.pool.tasks", count t "exec.pool.tasks");
    ("exec.pool.batches", count t "exec.pool.batches");
    ("exec.pool.busy_s", t.busy_s);
    ("exec.pool.idle_s", capacity -. t.busy_s);
    ("exec.pool.efficiency", Measure.ratio t.busy_s capacity);
  ]
  @ List.map hit_ratio stores
  @ [
      ("sample.plan_s", call_s t "prepare_sample");
      ("sample.plan_ns_per_instr", ns (per_unit p.plan));
      ("sample.replay_ns_per_instr", ns (per_unit p.replay));
      ("sample.plans", count t "sample.plans");
      ("sample.intervals", count t "sample.intervals");
      ("sample.clusters", count t "sample.clusters");
      ("sample.replayed_instrs", count t "sample.replayed_instrs");
      ("sample.coverage", work t "sample.coverage");
      ("sample.plan_cache.misses", count t "plan_cache.misses");
      ("statsim.ms_per_estimate", ms (per_unit p.statsim));
    ]
  @ scenario_s
  @ [
      ( "scenario.ns_per_instr",
        ns (Measure.ratio (List.fold_left (fun a (_, s) -> a +. s) 0.0 scenario_s)
              (count t "scenario.corun.instrs")) );
      ("scenario.instrs", count t "scenario.corun.instrs");
    ]
  @ List.map (fun d -> (Printf.sprintf "core.%s_s" d, call_s t d)) core_drivers
  @ t.setup @ t.gc
  @ [ ("obs.trace_overhead", (t.traced_wall /. t.wall) -. 1.0) ]
