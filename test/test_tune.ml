(* Tests for pc_tune: the closed-loop knob search.

   The load-bearing properties: the tuned result can never be worse
   than the default knobs (the default is always candidate 0);
   per-generation best fitness is monotone; winners are byte-identical
   at every pool width; the on-disk store replays a search without
   changing its outcome; knob sampling is modulo-bias free; and stress
   mode converges onto a reachable envelope. *)

module Synth = Pc_synth.Synth
module Profile = Pc_profile.Profile
module Collector = Pc_profile.Collector
module Fidelity = Pc_trace.Fidelity
module Fitness = Pc_tune.Fitness
module Search = Pc_tune.Search
module Tune_store = Pc_tune.Tune_store
module Report = Pc_tune.Report
module Bounds = Pc_report.Bounds
module Pool = Pc_exec.Pool
module Rng = Pc_util.Rng
module Json = Pc_util.Json

let profile_store : (string, Profile.t) Pc_exec.Store.t = Pc_exec.Store.create ()

let profile name =
  Pc_exec.Store.find_or_compute profile_store name (fun () ->
      Collector.profile ~max_instrs:60_000
        (Pc_workloads.Registry.compile (Pc_workloads.Registry.find name)))

let mimic = Fitness.Mimic Fitness.default_weights

let run_search ?pool ?store ?(budget = 10) ?(seed = 1) ?(mode = mimic) name =
  Search.run ?pool ?store ~budget ~bench:name ~seed ~profile_instrs:60_000
    ~target_dynamic:20_000 ~mode (profile name)

let tmpdir prefix =
  let f = Filename.temp_file prefix "" in
  Sys.remove f;
  Unix.mkdir f 0o700;
  f

(* --- knob sampling: validity and modulo-bias freedom --- *)

let check_valid_knobs (k : Search.knobs) =
  let is_pow2 n = n > 0 && n land (n - 1) = 0 in
  k.Search.k_max_streams >= 1
  && k.Search.k_max_streams <= 12
  && k.Search.k_block_scale > 0.0
  && k.Search.k_dep_jitter >= 0.0
  && k.Search.k_dep_jitter <= 1.0
  && Float.is_finite k.Search.k_stride_bias
  && is_pow2 k.Search.k_period_min
  && is_pow2 k.Search.k_period_max
  && k.Search.k_period_min >= 2
  && k.Search.k_period_min <= k.Search.k_period_max
  && k.Search.k_period_max <= 256

let test_random_knobs_distribution () =
  (* 12 stream counts is not a power of two: a [bits mod 12] draw would
     visibly over-sample the low counts (bias ~ 2^-31 is fine, 1/12 of
     the range is not).  12k rejection-sampled draws keep every count
     within a generous band around the expected 1000. *)
  let rng = Rng.create 42 in
  let counts = Array.make 13 0 in
  for _ = 1 to 12_000 do
    let k = Search.random_knobs rng in
    if not (check_valid_knobs k) then Alcotest.fail "invalid random knobs";
    counts.(k.Search.k_max_streams) <- counts.(k.Search.k_max_streams) + 1
  done;
  for s = 1 to 12 do
    if counts.(s) < 800 || counts.(s) > 1200 then
      Alcotest.failf "max_streams=%d drawn %d times (expected ~1000)" s
        counts.(s)
  done

let qcheck_mutate_preserves_validity =
  QCheck.Test.make ~name:"mutation stays on the knob grids" ~count:200
    QCheck.(int_range 1 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let k = ref (Search.random_knobs rng) in
      for _ = 1 to 20 do
        k := Search.mutate rng !k;
        if not (check_valid_knobs !k) then
          QCheck.Test.fail_reportf "invalid mutated knobs (seed %d)" seed
      done;
      true)

let test_default_knobs_neutral () =
  let o = Search.options_of_knobs ~seed:7 ~target_dynamic:123 Search.default_knobs in
  Alcotest.(check bool) "default knobs denote default options" true
    (o = { Synth.default_options with Synth.seed = 7; target_dynamic = 123 })

(* --- fitness --- *)

let perfect =
  {
    Fidelity.instr_mix_l1 = 0.0;
    dep_dist_l1 = 0.0;
    stride_agreement = 1.0;
    single_stride_err = 0.0;
    taken_rate_err = 0.0;
    transition_rate_err = 0.0;
    sfg_block_ratio = 1.0;
    avg_block_size_ratio = 1.0;
  }

let report ?(phases = []) c =
  { Fidelity.bench = "x"; orig_instrs = 1; clone_instrs = 1; c; phases }

let phase_row idx c =
  {
    Fidelity.p_index = idx;
    p_orig_start = 0;
    p_orig_instrs = 1;
    p_clone_start = 0;
    p_clone_instrs = 1;
    p_c = c;
  }

let test_fitness_of_report () =
  let e = Fitness.of_report (report perfect) in
  Alcotest.(check (float 1e-9)) "perfect clone scores 0" 0.0 e.Fitness.fitness;
  let e =
    Fitness.of_report (report { perfect with Fidelity.instr_mix_l1 = 0.3 })
  in
  Alcotest.(check (float 1e-9)) "worst weighted error wins" 0.3
    e.Fitness.fitness;
  (* the 0.5-weighted size ratio loses against an equal raw error *)
  let e =
    Fitness.of_report
      (report
         {
           perfect with
           Fidelity.instr_mix_l1 = 0.3;
           sfg_block_ratio = Float.exp 0.4;
         })
  in
  Alcotest.(check (float 1e-9)) "ratio errors are |ln r| * 0.5" 0.3
    e.Fitness.fitness;
  (* a bad phase dominates a good global row *)
  let bad_phase = { perfect with Fidelity.dep_dist_l1 = 0.9 } in
  let e =
    Fitness.of_report (report ~phases:[ phase_row 0 bad_phase ] perfect)
  in
  Alcotest.(check (float 1e-9)) "phase rows participate" 0.9 e.Fitness.fitness;
  (* null (empty-slice) phase rows are skipped, not scored as 1e9 *)
  let null =
    {
      Fidelity.instr_mix_l1 = Float.nan;
      dep_dist_l1 = Float.nan;
      stride_agreement = Float.nan;
      single_stride_err = Float.nan;
      taken_rate_err = Float.nan;
      transition_rate_err = Float.nan;
      sfg_block_ratio = Float.nan;
      avg_block_size_ratio = Float.nan;
    }
  in
  let e = Fitness.of_report (report ~phases:[ phase_row 0 null ] perfect) in
  Alcotest.(check (float 1e-9)) "null phase rows skipped" 0.0
    e.Fitness.fitness;
  (* degenerate values clamp to a large finite loss, never NaN *)
  let e =
    Fitness.of_report (report { perfect with Fidelity.sfg_block_ratio = 0.0 })
  in
  Alcotest.(check bool) "degenerate ratio clamps finite" true
    (Float.is_finite e.Fitness.fitness && e.Fitness.fitness >= 1e8)

let test_envelope_parsing () =
  (match Fitness.envelope_of_string "ipc=1.2,mpki=25" with
  | Ok env ->
    Alcotest.(check (option (float 1e-9))) "ipc" (Some 1.2) env.Fitness.e_ipc;
    Alcotest.(check (option (float 1e-9))) "mpki" (Some 25.0)
      env.Fitness.e_mpki;
    Alcotest.(check (option (float 1e-9))) "power unset" None
      env.Fitness.e_power
  | Error msg -> Alcotest.failf "spec rejected: %s" msg);
  List.iter
    (fun spec ->
      match Fitness.envelope_of_string spec with
      | Ok _ -> Alcotest.failf "bad spec %S accepted" spec
      | Error _ -> ())
    [ ""; "ipc"; "ipc=-1"; "ipc=nan"; "watts=3"; "ipc=0" ]

(* --- the search loop --- *)

let test_search_never_worse_than_default () =
  let r = run_search "crc32" in
  Alcotest.(check bool) "best <= default" true
    (r.Search.r_best.Fitness.fitness <= r.Search.r_default.Fitness.fitness);
  Alcotest.(check bool) "budget respected" true
    (r.Search.r_evals <= r.Search.r_budget);
  Alcotest.(check bool) "generations recorded" true
    (List.length r.Search.r_generations >= 1)

let qcheck_best_fitness_monotone =
  QCheck.Test.make ~name:"successive halving is fitness-monotone" ~count:6
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let r = run_search ~seed "qsort" in
      let rec monotone = function
        | a :: (b :: _ as tl) ->
          if b.Search.g_best > a.Search.g_best +. 1e-12 then
            QCheck.Test.fail_reportf
              "best fitness rose between generations (seed %d)" seed
          else monotone tl
        | _ -> true
      in
      ignore (monotone r.Search.r_generations);
      (match List.rev r.Search.r_generations with
      | last :: _ ->
        if
          Float.abs (last.Search.g_best -. r.Search.r_best.Fitness.fitness)
          > 1e-12
        then
          QCheck.Test.fail_reportf "final generation best <> overall best"
      | [] -> ());
      r.Search.r_best.Fitness.fitness <= r.Search.r_default.Fitness.fitness)

let strip_results (r : Search.result) =
  (* everything except the store hit/miss split, which legitimately
     differs between cold and warm runs *)
  ( r.Search.r_bench,
    r.Search.r_evals,
    r.Search.r_memo_hits,
    r.Search.r_generations,
    r.Search.r_default,
    r.Search.r_best,
    r.Search.r_best_knobs )

let test_search_pool_width_identity () =
  let serial = run_search ~pool:Pool.serial "crc32" in
  let parallel = run_search ~pool:(Pool.create ~num_domains:4) "crc32" in
  Alcotest.(check bool) "identical winners at -j1 and -j4" true
    (serial = parallel)

let test_search_store_cold_warm () =
  let dir = tmpdir "pc-tune-test" in
  let store = Tune_store.create dir in
  let bare = run_search "sha" in
  let cold = run_search ~store "sha" in
  let warm = run_search ~store "sha" in
  Alcotest.(check bool) "store never changes the outcome" true
    (strip_results bare = strip_results cold
    && strip_results cold = strip_results warm);
  Alcotest.(check int) "cold run misses every unique eval"
    cold.Search.r_evals cold.Search.r_store_misses;
  Alcotest.(check int) "warm run hits every unique eval" warm.Search.r_evals
    warm.Search.r_store_hits;
  Alcotest.(check int) "warm run computes nothing" 0
    warm.Search.r_store_misses

let test_store_corruption_recovery () =
  (* One flipped payload bit must fail the entry's digest: a miss that
     removes the file, then a recompute that re-stores the evaluation. *)
  let dir = tmpdir "pc-tune-bit-flip" in
  let store = Tune_store.create dir in
  let key =
    Tune_store.key ~profile_id:"p" ~knobs_id:"k" ~mode_id:"m" ~seed:1
      ~profile_instrs:1 ~target_dynamic:1 ()
  in
  let eval = { Fitness.fitness = 0.25; components = [ ("x", 0.25) ] } in
  Tune_store.store store key eval;
  let file = Filename.concat dir (key ^ ".eval") in
  Flip.float_bit file eval.Fitness.fitness;
  Alcotest.(check bool) "flipped entry reads as a miss" true
    (Tune_store.find store key = None);
  Alcotest.(check bool) "flipped entry removed" false (Sys.file_exists file);
  let computed = ref false in
  let recomputed =
    Tune_store.find_or_compute store key (fun () ->
        computed := true;
        eval)
  in
  Alcotest.(check bool) "recomputed" true (!computed && recomputed = eval);
  Alcotest.(check bool) "re-stored" true (Tune_store.find store key = Some eval);
  (* Garbage after the magic line is the other corruption shape. *)
  Out_channel.with_open_bin file (fun oc -> output_string oc "pc-tune-eval/2\ngarbage");
  Alcotest.(check bool) "garbled entry reads as a miss" true (Tune_store.find store key = None);
  Alcotest.(check bool) "garbled entry removed" false (Sys.file_exists file)

let test_store_eviction () =
  let dir = tmpdir "pc-tune-evict" in
  let store = Tune_store.create ~max_entries:3 dir in
  for i = 1 to 6 do
    Tune_store.store store
      (Tune_store.key ~profile_id:(string_of_int i) ~knobs_id:"k" ~mode_id:"m" ~seed:1
         ~profile_instrs:1 ~target_dynamic:1 ())
      { Fitness.fitness = 0.0; components = [] }
  done;
  let entries = List.filter (fun f -> Filename.check_suffix f ".eval") (Array.to_list (Sys.readdir dir)) in
  Alcotest.(check int) "eviction keeps max_entries" 3 (List.length entries)

(* --- stress mode --- *)

let test_stress_converges_on_reachable_envelope () =
  (* measure the default clone, then ask the tuner to hit exactly that
     envelope: the default candidate scores 0, so the search must too *)
  let p = profile "crc32" in
  let options =
    { Synth.default_options with Synth.seed = 1; target_dynamic = 20_000 }
  in
  let clone = Synth.generate ~options p in
  let probe =
    Fitness.measure_stress ~max_instrs:60_000
      (Fitness.envelope ~ipc:1.0 ~mpki:1.0 ())
      clone
  in
  let measured name = List.assoc name probe.Fitness.components in
  let ipc = measured "ipc" and mpki = measured "mpki" in
  Alcotest.(check bool) "probe measured positive rates" true
    (ipc > 0.0 && mpki > 0.0);
  let mode = Fitness.Stress (Fitness.envelope ~ipc ~mpki ()) in
  let r = run_search ~budget:6 ~mode "crc32" in
  Alcotest.(check (float 1e-9)) "search reaches the reachable envelope" 0.0
    r.Search.r_best.Fitness.fitness

(* --- report --- *)

let json_exn s =
  match Json.parse s with
  | Ok doc -> doc
  | Error msg -> Alcotest.failf "JSON did not parse: %s" msg

let test_report_json_roundtrip () =
  let r = run_search "crc32" in
  let doc =
    json_exn
      (Report.json ~seed:1 ~profile_instrs:60_000 ~clone_dynamic:20_000
         ~mode:mimic [ r ])
  in
  Alcotest.(check (option string)) "schema" (Some "pc-tune/1")
    (Option.bind (Json.member "schema" doc) Json.to_string);
  match Option.bind (Json.member "benchmarks" doc) Json.to_list with
  | Some [ row ] ->
    List.iter
      (fun field ->
        if Json.member field row = None then
          Alcotest.failf "field %s missing from row" field)
      [
        "bench"; "budget"; "evals"; "memo_hits"; "default_fitness";
        "best_fitness"; "knobs"; "generations"; "store";
      ]
  | _ -> Alcotest.fail "expected one benchmark row"

(* Byte pin for pc-tune/1: the seeded crc32 search above in mimic
   mode, and a stress-mode header with a partial envelope. *)
let test_report_json_golden () =
  let r = run_search "crc32" in
  Alcotest.(check string) "mimic bytes"
    "{\"schema\":\"pc-tune/1\",\"seed\":1,\"profile_instrs\":60000,\"clone_dynamic\":20000,\"mode\":\"mimic\",\"weights\":{\"instr_mix_l1\":1.000000,\"dep_dist_l1\":1.000000,\"stride_agreement\":1.000000,\"single_stride_err\":1.000000,\"taken_rate_err\":1.000000,\"transition_rate_err\":1.000000,\"sfg_block_ratio\":0.500000,\"avg_block_size_ratio\":0.500000},\"benchmarks\":[{\"bench\":\"crc32\",\"budget\":10,\"evals\":6,\"memo_hits\":1,\"default_fitness\":0.437376,\"best_fitness\":0.437376,\"knobs\":{\"block_scale\":1.000000,\"max_streams\":12,\"dep_jitter\":0.000000,\"stride_bias\":0.000000,\"period_min\":2,\"period_max\":256},\"generations\":[{\"gen\":0,\"evals\":5,\"best\":0.437376},{\"gen\":1,\"evals\":1,\"best\":0.437376}],\"store\":{\"hits\":0,\"misses\":6}}]}"
    (Report.json ~seed:1 ~profile_instrs:60_000 ~clone_dynamic:20_000
       ~mode:mimic [ r ]);
  Alcotest.(check string) "stress bytes"
    "{\"schema\":\"pc-tune/1\",\"seed\":2,\"profile_instrs\":1,\"clone_dynamic\":1,\"mode\":\"stress\",\"envelope\":{\"ipc\":1.500000,\"power\":0.100000},\"benchmarks\":[]}"
    (Report.json ~seed:2 ~profile_instrs:1 ~clone_dynamic:1
       ~mode:(Fitness.Stress (Fitness.envelope ~ipc:1.5 ~power:0.1 ()))
       [])

(* The tuning gate is a pc-bounds/1 document over pc-tune/1; the
   checked-in baselines/tune.json is probed bound by bound in
   test_report. *)
let tune_report_doc ~default_fitness ~best_fitness =
  Printf.sprintf
    {|{"schema":"pc-tune/1","seed":1,"profile_instrs":1,"clone_dynamic":1,
       "mode":"mimic","benchmarks":[
         {"bench":"x","budget":8,"evals":8,"memo_hits":0,
          "default_fitness":%s,"best_fitness":%s,
          "knobs":{},"generations":[],"store":{"hits":0,"misses":8}}]}|}
    default_fitness best_fitness

let test_tune_check_gate () =
  let bounds =
    match
      Bounds.of_json
        (json_exn
           {|{"schema":"pc-bounds/1","artifact":"pc-tune/1","bounds":[
              {"path":"benchmarks[*]/best_fitness","le":0.8},
              {"path":"benchmarks[*]/best_fitness",
               "minus":"benchmarks[*]/default_fitness","le":0.0},
              {"path":"benchmarks[*]/best_fitness",
               "minus":"benchmarks[*]/default_fitness","lt":0.0,
               "at_least":1}]}|})
    with
    | Ok b -> b
    | Error e -> Alcotest.failf "bounds rejected: %s" e
  in
  let check default best =
    Bounds.check bounds
      (json_exn (tune_report_doc ~default_fitness:default ~best_fitness:best))
  in
  Alcotest.(check (list string)) "improving report passes" []
    (check "0.6" "0.5");
  Alcotest.(check bool) "regression (best > default) flagged" true
    (check "0.5" "0.6" <> []);
  Alcotest.(check bool) "no strict improvement flagged" true
    (check "0.5" "0.5" <> []);
  Alcotest.(check bool) "absolute fitness cap enforced" true
    (check "0.95" "0.9" <> []);
  Alcotest.(check bool) "non-finite value flagged" true
    (check "0.6" "null" <> []);
  Alcotest.(check bool) "schema drift flagged" true
    (Bounds.check bounds (json_exn {|{"schema":"pc-tune/2","benchmarks":[]}|})
    <> [])

let () =
  Alcotest.run "pc_tune"
    [
      ( "knobs",
        [
          Alcotest.test_case "rejection-sampled stream counts" `Quick
            test_random_knobs_distribution;
          QCheck_alcotest.to_alcotest qcheck_mutate_preserves_validity;
          Alcotest.test_case "default knobs are neutral" `Quick
            test_default_knobs_neutral;
        ] );
      ( "fitness",
        [
          Alcotest.test_case "worst weighted error" `Quick
            test_fitness_of_report;
          Alcotest.test_case "envelope parsing" `Quick test_envelope_parsing;
        ] );
      ( "search",
        [
          Alcotest.test_case "never worse than default" `Quick
            test_search_never_worse_than_default;
          QCheck_alcotest.to_alcotest qcheck_best_fitness_monotone;
          Alcotest.test_case "pool-width identity" `Slow
            test_search_pool_width_identity;
        ] );
      ( "store",
        [
          Alcotest.test_case "cold/warm identity" `Slow
            test_search_store_cold_warm;
          Alcotest.test_case "corruption recovery" `Quick
            test_store_corruption_recovery;
          Alcotest.test_case "eviction" `Quick test_store_eviction;
        ] );
      ( "stress",
        [
          Alcotest.test_case "converges on reachable envelope" `Slow
            test_stress_converges_on_reachable_envelope;
        ] );
      ( "report",
        [
          Alcotest.test_case "pc-tune/1 roundtrip" `Quick
            test_report_json_roundtrip;
          Alcotest.test_case "threshold gate" `Quick test_tune_check_gate;
          Alcotest.test_case "pc-tune/1 golden bytes" `Quick
            test_report_json_golden;
        ] );
    ]
