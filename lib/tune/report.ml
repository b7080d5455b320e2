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

(* --- threshold gate (check_baselines tune) --- *)

let check ~thresholds ~report =
  let issues = ref [] in
  let issue fmt = Printf.ksprintf (fun s -> issues := s :: !issues) fmt in
  (match Json.schema thresholds with
  | Some "pc-tune-thresholds/1" -> ()
  | s ->
    issue "thresholds: expected schema pc-tune-thresholds/1, got %s"
      (Option.value ~default:"<none>" s));
  (match Json.schema report with
  | Some "pc-tune/1" -> ()
  | s ->
    issue "report: expected schema pc-tune/1, got %s"
      (Option.value ~default:"<none>" s));
  let bound key =
    match Json.member key thresholds with
    | None -> None
    | Some v -> (
      match Json.to_float v with
      | Some f when Float.is_finite f -> Some f
      | _ ->
        issue "thresholds: %s is not a finite number" key;
        None)
  in
  let max_best = bound "max_best_fitness" in
  let min_gain = bound "min_gain" in
  let min_improved =
    match Json.member "min_improved" thresholds with
    | None -> None
    | Some v -> (
      match Json.to_int v with
      | Some n when n >= 0 -> Some n
      | _ ->
        issue "thresholds: min_improved is not a non-negative integer";
        None)
  in
  let rows =
    match Option.bind (Json.member "benchmarks" report) Json.to_list with
    | Some rows -> rows
    | None -> []
  in
  if rows = [] then issue "report: no benchmarks";
  let improved = ref 0 in
  List.iter
    (fun row ->
      let bench =
        Option.value ~default:"?"
          (Option.bind (Json.member "bench" row) Json.to_string)
      in
      let value_of name =
        match Option.bind (Json.member name row) Json.to_float with
        | Some f when Float.is_finite f -> Some f
        | _ ->
          issue "%s: missing or non-finite %s" bench name;
          None
      in
      match (value_of "default_fitness", value_of "best_fitness") with
      | Some d, Some best ->
        if best < d then incr improved;
        (match max_best with
        | Some b when best > b ->
          issue "%s: best_fitness = %.6f exceeds max %.6f" bench best b
        | _ -> ());
        (match min_gain with
        | Some g when d -. best < g ->
          issue "%s: gain %.6f below min_gain %.6f" bench (d -. best) g
        | _ -> ())
      | _ -> ())
    rows;
  (match min_improved with
  | Some n when !improved < n ->
    issue "only %d/%d benchmarks improved over default knobs (need %d)"
      !improved (List.length rows) n
  | _ -> ());
  List.rev !issues

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
