(* Allocation budgets: minor-heap words per unit of work for the hot
   layers, on fixed programs, single-domain, after one warm-up call.
   Unlike time, [Gc.minor_words] reads the same to the word on repeated
   runs, so a ceiling is a deterministic performance gate: a closure or
   a boxed value that creeps back into a per-instruction path adds at
   least two words per instruction (the smallest heap block) and fails
   here.

   Each ceiling is its layer's reading on that program plus about a
   quarter word of headroom, far below those two words, and both are
   listed once, in the tables below (OCaml 5.1, readings identical over
   repeated runs).  A change that lowers a reading should lower its
   ceiling with it. *)

module Config = Pc_uarch.Config
module Sim = Pc_uarch.Sim
module Sample = Pc_sample.Sample

let budget = 500_000
let program name = Pc_workloads.Registry.(compile (find name))

(* Minor words [f] allocates, read after one warm-up call. *)
let minor_words f =
  ignore (f ());
  let before = Gc.minor_words () in
  let r = f () in
  (Gc.minor_words () -. before, r)

let check_ceiling what ~reading ~ceiling words_per_unit =
  if words_per_unit > ceiling then
    Alcotest.failf "%s: %.4f words per unit, ceiling %.2f (read %.4f when set)"
      what words_per_unit ceiling reading

(* (program, words per instruction read, ceiling): [Sim.run
   ~max_instrs:500_000 Config.base], functional simulator included. *)
let sim_run_budgets =
  [
    ("crc32", 0.016, 0.27);
    ("qsort", 0.018, 0.27);
    ("sha", 0.026, 0.28);
    ("fft", 0.059, 0.31);
    ("dijkstra", 0.017, 0.27);
  ]

let test_sim_run () =
  List.iter
    (fun (name, reading, ceiling) ->
      let p = program name in
      let words, r = minor_words (fun () -> Sim.run ~max_instrs:budget Config.base p) in
      check_ceiling ("Sim.run " ^ name) ~reading ~ceiling
        (words /. float_of_int r.Sim.instrs))
    sim_run_budgets

(* (program, words per replayed instruction read, ceiling):
   [Sample.replay_phases Config.base] over the program's
   [~seed:1 ~interval:50_000 ~max_instrs:500_000] plan. *)
let replay_budgets =
  [
    ("crc32", 0.0039, 0.25);
    ("qsort", 0.0030, 0.25);
    ("sha", 0.0030, 0.25);
    ("fft", 0.0030, 0.25);
    ("dijkstra", 0.0030, 0.25);
  ]

let test_replay () =
  List.iter
    (fun (name, reading, ceiling) ->
      let plan =
        Sample.plan ~seed:1 ~interval:50_000 ~max_instrs:budget (program name)
      in
      let replayed =
        Array.fold_left
          (fun acc (r : Sample.rep) -> acc + Array.length r.Sample.trace)
          0 plan.Sample.reps
      in
      let words, _ = minor_words (fun () -> Sample.replay_phases Config.base plan) in
      check_ceiling ("replay_phases " ^ name) ~reading ~ceiling
        (words /. float_of_int replayed))
    replay_budgets

(* (program, words per profiled instruction read, ceiling):
   [Collector.profile ~max_instrs:300_000], functional simulator
   included.  fft halts after 163,316 instructions. *)
let profile_budgets =
  [
    ("crc32", 0.134, 0.38);
    ("qsort", 0.191, 0.44);
    ("sha", 0.096, 0.35);
    ("fft", 0.272, 0.52);
    ("dijkstra", 0.120, 0.37);
  ]

let test_profile () =
  List.iter
    (fun (name, reading, ceiling) ->
      let p = program name in
      let words, prof =
        minor_words (fun () -> Pc_profile.Collector.profile ~max_instrs:300_000 p)
      in
      check_ceiling ("Collector.profile " ^ name) ~reading ~ceiling
        (words /. float_of_int prof.Pc_profile.Profile.instr_count))
    profile_budgets

(* (program, words per retired instruction read, ceiling):
   [Machine.load] plus [Machine.run_batched ~max_instrs:500_000] with a
   consumer that reads nothing.  fft halts after 163,316 instructions. *)
let funcsim_budgets =
  [
    ("crc32", 0.0144, 0.27);
    ("qsort", 0.0166, 0.27);
    ("sha", 0.0254, 0.28);
    ("fft", 0.0573, 0.31);
    ("dijkstra", 0.0153, 0.27);
  ]

let test_funcsim () =
  List.iter
    (fun (name, reading, ceiling) ->
      let p = program name in
      let words, retired =
        minor_words (fun () ->
            Pc_funcsim.Machine.(run_batched ~max_instrs:budget (load p) ignore))
      in
      check_ceiling ("Machine.run_batched " ^ name) ~reading ~ceiling
        (words /. float_of_int retired))
    funcsim_budgets

(* (program, words per synthetic instruction read, ceiling):
   [Statsim.estimate ~seed:1 ~instrs:100_000 Config.base] on the
   program's 300k-instruction profile (profiled outside the reading). *)
let statsim_budgets =
  [
    ("crc32", 31.65, 31.90);
    ("qsort", 24.95, 25.20);
    ("sha", 33.91, 34.16);
    ("fft", 31.44, 31.69);
    ("dijkstra", 31.50, 31.75);
  ]

let test_statsim () =
  List.iter
    (fun (name, reading, ceiling) ->
      let profile = Pc_profile.Collector.profile ~max_instrs:300_000 (program name) in
      let words, r =
        minor_words (fun () ->
            Pc_statsim.Statsim.estimate ~seed:1 ~instrs:100_000 Config.base profile)
      in
      check_ceiling ("Statsim.estimate " ^ name) ~reading ~ceiling
        (words /. float_of_int r.Sim.instrs))
    statsim_budgets

(* (program, words per reference read, ceiling): a fresh
   [Stack_dist.create Study.configs] fed the program's data references
   over [Machine.run_data_refs ~max_instrs:200_000] (recorded outside
   the reading), its creation included. *)
let stack_dist_budgets =
  [
    ("crc32", 0.0878, 0.34);
    ("qsort", 0.0245, 0.28);
    ("sha", 0.1105, 0.36);
    ("fft", 0.0707, 0.33);
    ("dijkstra", 0.0788, 0.33);
  ]

let test_stack_dist () =
  let module Stack_dist = Pc_caches.Stack_dist in
  List.iter
    (fun (name, reading, ceiling) ->
      let buf = ref [] in
      ignore
        (Pc_funcsim.Machine.(run_data_refs ~max_instrs:200_000 (load (program name)))
           (fun a -> buf := a :: !buf));
      let refs = Array.of_list (List.rev !buf) in
      let words, _ =
        minor_words (fun () ->
            let prof = Stack_dist.create Pc_caches.Study.configs in
            Array.iter (Stack_dist.access prof) refs;
            prof)
      in
      check_ceiling ("Stack_dist.access " ^ name) ~reading ~ceiling
        (words /. float_of_int (Array.length refs)))
    stack_dist_budgets

(* (predictor, words per branch read, ceiling): a fresh
   [Predictor.create] observing the conditional branches the quick five
   retire in [Machine.run_batched ~max_instrs:200_000] each, in that
   order (59,477 branches, recorded outside the reading).  The ten are
   the predictor study's, the base GAp among them. *)
let predictor_budgets =
  [
    ("taken", 0.0001, 0.25);
    ("not-taken", 0.0001, 0.25);
    ("bimodal-64", 0.0012, 0.25);
    ("bimodal-512", 0.0001, 0.25);
    ("bimodal-4096", 0.0001, 0.25);
    ("gshare-h8-e4096", 0.0002, 0.25);
    ("gshare-h12-e16384", 0.0002, 0.25);
    ("gap-h8-t256", 0.0002, 0.25);
    ("pap-h6-t256", 0.0045, 0.25);
    ("tournament(bimodal-1024,gshare-h10-e4096)", 0.0004, 0.25);
  ]

let branch_stream () =
  let module Machine = Pc_funcsim.Machine in
  let pcs = ref [] and outcomes = ref [] in
  List.iter
    (fun name ->
      let m = Machine.load (program name) in
      let classes = (Machine.statics m).Machine.s_classes in
      ignore
        (Machine.run_batched ~max_instrs:200_000 m (fun b ->
             for j = 0 to b.Machine.len - 1 do
               let pc = b.Machine.b_pc.(j) in
               if classes.(pc) = Pc_isa.Instr.C_branch then begin
                 pcs := pc :: !pcs;
                 outcomes := b.Machine.b_taken.(j) :: !outcomes
               end
             done)))
    [ "crc32"; "qsort"; "sha"; "fft"; "dijkstra" ];
  (Array.of_list (List.rev !pcs), Array.of_list (List.rev !outcomes))

let test_predictor () =
  let module Predictor = Pc_branch.Predictor in
  let pcs, outcomes = branch_stream () in
  let configs = Perfclone.Experiments.bpred_configs in
  Alcotest.(check (list string)) "one row per study predictor"
    (List.map (fun (name, _, _) -> name) predictor_budgets)
    (List.map Predictor.config_name configs);
  List.iter2
    (fun config (name, reading, ceiling) ->
      let words, _ =
        minor_words (fun () ->
            let p = Predictor.create config in
            for i = 0 to Array.length pcs - 1 do
              ignore (Predictor.observe p ~pc:pcs.(i) ~taken:outcomes.(i))
            done;
            p)
      in
      check_ceiling ("Predictor.observe " ^ name) ~reading ~ceiling
        (words /. float_of_int (Array.length pcs)))
    configs predictor_budgets

let () =
  Alcotest.run "pc_alloc"
    [
      ( "words per unit",
        [
          Alcotest.test_case "Sim.run" `Quick test_sim_run;
          Alcotest.test_case "Sample.replay_phases" `Quick test_replay;
          Alcotest.test_case "Collector.profile" `Quick test_profile;
          Alcotest.test_case "Machine.run_batched" `Quick test_funcsim;
          Alcotest.test_case "Statsim.estimate" `Quick test_statsim;
          Alcotest.test_case "Stack_dist.access" `Quick test_stack_dist;
          Alcotest.test_case "Predictor.observe" `Quick test_predictor;
        ] );
    ]
