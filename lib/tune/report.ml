module Json = Pc_util.Json

let knobs_json (k : Search.knobs) =
  Json.Obj
    [
      ("block_scale", Json.fixed 6 k.Search.k_block_scale);
      ("max_streams", Json.int k.Search.k_max_streams);
      ("dep_jitter", Json.fixed 6 k.Search.k_dep_jitter);
      ("stride_bias", Json.fixed 6 k.Search.k_stride_bias);
      ("period_min", Json.int k.Search.k_period_min);
      ("period_max", Json.int k.Search.k_period_max);
    ]

let mode_fields (mode : Fitness.mode) =
  match mode with
  | Fitness.Mimic weights ->
    [
      ("mode", Json.Str "mimic");
      ( "weights",
        Json.Obj (List.map (fun (name, w) -> (name, Json.fixed 6 w)) weights) );
    ]
  | Fitness.Stress env ->
    let target (name, v) = Option.map (fun t -> (name, Json.fixed 6 t)) v in
    [
      ("mode", Json.Str "stress");
      ( "envelope",
        Json.Obj
          (List.filter_map target
             [
               ("ipc", env.Fitness.e_ipc);
               ("mpki", env.Fitness.e_mpki);
               ("power", env.Fitness.e_power);
             ]) );
    ]

let row (r : Search.result) =
  let generation (g : Search.generation) =
    Json.Obj
      [
        ("gen", Json.int g.Search.g_index);
        ("evals", Json.int g.Search.g_evals);
        ("best", Json.fixed 6 g.Search.g_best);
      ]
  in
  Json.Obj
    [
      ("bench", Json.Str r.Search.r_bench);
      ("budget", Json.int r.Search.r_budget);
      ("evals", Json.int r.Search.r_evals);
      ("memo_hits", Json.int r.Search.r_memo_hits);
      ("default_fitness", Json.fixed 6 r.Search.r_default.Fitness.fitness);
      ("best_fitness", Json.fixed 6 r.Search.r_best.Fitness.fitness);
      ("knobs", knobs_json r.Search.r_best_knobs);
      ("generations", Json.List (List.map generation r.Search.r_generations));
      (* store hits/misses legitimately differ between a cold and a warm
         run — CI compares the console table, not this document *)
      ( "store",
        Json.Obj
          [
            ("hits", Json.int r.Search.r_store_hits);
            ("misses", Json.int r.Search.r_store_misses);
          ] );
    ]

let doc ~seed ~profile_instrs ~clone_dynamic ~mode results =
  Json.Obj
    ([
       ("schema", Json.Str "pc-tune/1");
       ("seed", Json.int seed);
       ("profile_instrs", Json.int profile_instrs);
       ("clone_dynamic", Json.int clone_dynamic);
     ]
    @ mode_fields mode
    @ [ ("benchmarks", Json.List (List.map row results)) ])

let json ~seed ~profile_instrs ~clone_dynamic ~mode results =
  Json.encode (doc ~seed ~profile_instrs ~clone_dynamic ~mode results)

let write_json path ~seed ~profile_instrs ~clone_dynamic ~mode results =
  Json.to_file path (doc ~seed ~profile_instrs ~clone_dynamic ~mode results)

(* --- console table ---

   Deliberately free of store hit/miss counts: this table is the
   cold-vs-warm identity artefact CI diffs, and only the store's
   hit/miss split (never a winner or a score) may differ between a cold
   and a warm run. *)

let pp ppf results =
  Format.fprintf ppf "%-12s %9s %9s %7s %6s %5s  %s@." "bench" "default"
    "tuned" "gain%" "evals" "gens" "knobs";
  List.iter
    (fun (r : Search.result) ->
      let d = r.Search.r_default.Fitness.fitness in
      let best = r.Search.r_best.Fitness.fitness in
      let gain = if d > 0.0 then 100.0 *. (d -. best) /. d else 0.0 in
      let k = r.Search.r_best_knobs in
      Format.fprintf ppf
        "%-12s %9.4f %9.4f %6.1f%% %6d %5d  bs=%.2f ms=%d jit=%.2f sb=%+.2f per=[%d,%d]@."
        r.Search.r_bench d best gain r.Search.r_evals
        (List.length r.Search.r_generations)
        k.Search.k_block_scale k.Search.k_max_streams k.Search.k_dep_jitter
        k.Search.k_stride_bias k.Search.k_period_min k.Search.k_period_max)
    results
