(* The metric catalogue and the result line.  BENCHMARK.json at the root
   of the repository lists the same names and units; the benchmark's
   tests hold the two equal. *)

type metric = { name : string; unit : string }

let m name unit = { name; unit }

(* Untraced runs (--trace 0). *)
let end_to_end =
  [ m "wall_s" "s"; m "setup_s" "s"; m "peak_rss_mb" "MB"; m "clone_fitness" "score" ]

(* Traced runs (--trace 1). *)
let per_layer =
  List.map (fun (n, u) -> m n u)
    ([
       ("uarch.ns_per_instr", "ns");
       ("uarch.words_per_instr", "words");
       ("uarch.instrs", "count");
       ("uarch.cycles", "count");
       ("branch.lookups", "count");
       ("branch.mispredicts", "count");
       ("caches.sim_ns_per_ref", "ns");
       ("caches.onepass_ns_per_ref", "ns");
       ("caches.words_per_ref", "words");
       ("caches.refs", "count");
       ("funcsim.event_ns_per_instr", "ns");
       ("funcsim.batched_ns_per_instr", "ns");
       ("funcsim.words_per_instr", "words");
       ("funcsim.instrs", "count");
       ("profile.ns_per_instr", "ns");
       ("profile.words_per_instr", "words");
       ("synth.ms_per_clone", "ms");
       ("trace.fidelity_ms", "ms");
       ("trace.fidelity_count", "count");
       ("tune.evals", "count");
       ("tune.memo_hits", "count");
       ("tune.store_hits", "count");
       ("tune.store_misses", "count");
       ("tune.search_s", "s");
       ("tune.warm_s", "s");
       ("exec.pool.tasks", "count");
       ("exec.pool.batches", "count");
       ("exec.pool.busy_s", "s");
       ("exec.pool.idle_s", "s");
       ("exec.pool.efficiency", "ratio");
     ]
    @ List.map
        (fun s -> (Printf.sprintf "exec.store.%s.hit_ratio" s, "ratio"))
        Layers.stores
    @ [
        ("sample.plan_s", "s");
        ("sample.plan_ns_per_instr", "ns");
        ("sample.replay_ns_per_instr", "ns");
        ("sample.plans", "count");
        ("sample.intervals", "count");
        ("sample.clusters", "count");
        ("sample.replayed_instrs", "count");
        ("sample.coverage", "ratio");
        ("sample.plan_cache.misses", "count");
        ("statsim.ms_per_estimate", "ms");
      ]
    @ List.map (fun p -> ("scenario.run_s." ^ p, "s")) Layers.presets
    @ [ ("scenario.ns_per_instr", "ns"); ("scenario.instrs", "count") ]
    @ List.map (fun d -> (Printf.sprintf "core.%s_s" d, "s")) Layers.core_drivers
    @ [
        ("kc.compile_ms", "ms");
        ("exec.pool.create_ms", "ms");
        ("gc.minor_gb", "GB");
        ("gc.minor_collections", "count");
        ("gc.major_collections", "count");
        ("gc.top_heap_mb", "MB");
        ("obs.trace_overhead", "ratio");
      ])

(* Figures a pass reports beside the catalogue, with their units. *)
let accuracy_units =
  [
    ("ipc_err_pct", "%");
    ("power_err_pct", "%");
    ("cache_corr", "R");
    ("design_err_pct", "%");
    ("sample_err_pct", "%");
    ("clone_fitness", "score");
    ("tune_fitness", "score");
    ("corun_gap_pct", "%");
  ]

let number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

(* The last line of a run: exactly the catalogue's metrics, in order. *)
let result_line ~correct ~attempted ~failed catalogue values =
  let metric { name; unit } =
    let v = Option.value ~default:nan (List.assoc_opt name values) in
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (number v) unit
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " (List.map metric catalogue))

let pp_metric ppf (name, unit, v) = Format.fprintf ppf "  %-34s %14.6g %s@." name v unit
