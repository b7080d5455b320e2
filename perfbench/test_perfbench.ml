(* The benchmark's own tests: a broken result must count as a failed
   operation, and a run's result line must parse and name every metric
   BENCHMARK.json declares, with its unit. *)

open Perfbench
module E = Perfclone.Experiments
module Json = Pc_util.Json

let recorder () =
  let t = Tally.create () in
  (t, Workloads.recorder t)

let base_run ?(ipc_clone = 0.9) ?(power_clone = 20.0) bench =
  { E.bench; ipc_orig = 0.8; ipc_clone; power_orig = 21.0; power_clone }

let test_good_result () =
  let t, r = recorder () in
  Workloads.check_base r [ base_run "crc32" ];
  Alcotest.(check int) "attempted" 2 t.Tally.attempted;
  Alcotest.(check int) "failed" 0 t.Tally.failed;
  Alcotest.(check bool) "correct" true (Tally.correct t)

let test_broken_ipc () =
  let t, r = recorder () in
  Workloads.check_base r [ base_run "crc32"; base_run ~ipc_clone:0.0 "qsort" ];
  Alcotest.(check int) "attempted" 4 t.Tally.attempted;
  Alcotest.(check int) "failed" 1 t.Tally.failed;
  Alcotest.(check bool) "incorrect" false (Tally.correct t)

let test_broken_power_and_mpi () =
  let t, r = recorder () in
  Workloads.check_base r [ base_run ~power_clone:nan "sha" ];
  let series = Array.make (Array.length Pc_caches.Study.configs) 0.01 in
  let broken = Array.copy series in
  broken.(3) <- -1.0;
  Workloads.check_mpis r
    [
      { E.bench = "sha"; correlation = 0.9; orig_mpi = series; clone_mpi = series };
      { E.bench = "fft"; correlation = 0.9; orig_mpi = series; clone_mpi = broken };
    ];
  (* power, one MPI series; the IPC, the other series and cache_corr hold *)
  Alcotest.(check int) "failed" 2 t.Tally.failed;
  Alcotest.(check int) "attempted" 5 t.Tally.attempted

let test_design_change_rebuilt () =
  let t, r = recorder () in
  let runs = [ base_run "crc32" ] in
  let changes =
    List.map
      (fun (d : E.design_change) ->
        {
          E.change_name = d.E.change;
          per_bench = [ ("crc32", 1.0, 3.0, 1.0, 1.0) ];
          avg_ipc_error = 0.0;
          avg_power_error = 0.0;
        })
      (E.design_changes ())
  in
  Workloads.check_changes r runs changes;
  (* the clone's rebuilt IPC, 3 x 0.9, exceeds even the doubled width *)
  Alcotest.(check int) "attempted" 10 t.Tally.attempted;
  Alcotest.(check int) "failed" 5 t.Tally.failed;
  Alcotest.(check bool) "incorrect" false (Tally.correct t)

let test_raise_is_failed_not_incorrect () =
  let t, r = recorder () in
  let v = Workloads.call r "portable" (fun () -> invalid_arg "broken") in
  Alcotest.(check bool) "no value" true (v = None);
  Alcotest.(check int) "failed" 1 t.Tally.failed;
  Alcotest.(check bool) "still correct" true (Tally.correct t);
  Alcotest.(check (list string)) "raised" [ "portable" ] t.Tally.raised

(* A pass that raised, [n] times over: the run counts it once, so its
   counts do not depend on how many passes fit in the time. *)
let repeated_raise n =
  List.init n (fun _ ->
      let t, r = recorder () in
      Workloads.check_base r [ base_run "crc32" ];
      ignore (Workloads.call r "portable" (fun () -> invalid_arg "broken"));
      t)

let test_passes_count_once () =
  let count n =
    let run = Tally.create () in
    Tally.add_passes run (repeated_raise n);
    (run.Tally.attempted, run.Tally.failed, Tally.correct run)
  in
  Alcotest.(check (triple int int bool)) "three passes" (4, 1, true) (count 3);
  Alcotest.(check (triple int int bool)) "four passes" (count 3) (count 4)

let test_divergent_pass_fails () =
  let t, r = recorder () in
  Workloads.check_base r [ base_run ~ipc_clone:0.0 "crc32" ];
  let run = Tally.create () in
  Tally.add_passes run (repeated_raise 2 @ [ t ]);
  Alcotest.(check int) "failed: the raise and the differing pass" 2 run.Tally.failed;
  Alcotest.(check bool) "incorrect" false (Tally.correct run);
  Alcotest.(check bool) "the divergent check is noted" true
    (List.mem "check failed: base IPC of crc32" (Tally.notes run))

let declared kind =
  match Json.parse_file "../BENCHMARK.json" with
  | Error e -> Alcotest.fail e
  | Ok doc ->
    let field k o = Option.get (Option.bind (Json.member k o) Json.to_string) in
    List.map
      (fun o -> (field "name" o, field "unit" o))
      (Option.get (Option.bind (Json.member kind doc) Json.to_list))

let check_line ~kind catalogue (r : Runs.result) =
  let line = Runs.result_line ~catalogue r in
  let doc = match Json.parse line with Ok d -> d | Error e -> Alcotest.fail e in
  let keys = match doc with Json.Obj kvs -> List.map fst kvs | _ -> [] in
  Alcotest.(check (list string)) "keys" [ "correct"; "attempted"; "failed"; "metrics" ] keys;
  let metrics = Option.get (Json.member "metrics" doc) in
  let names = match metrics with Json.Obj kvs -> List.map fst kvs | _ -> [] in
  let want = declared kind in
  Alcotest.(check (list string)) "every declared metric, nothing else" (List.map fst want) names;
  List.iter
    (fun (name, unit) ->
      let m = Option.get (Json.member name metrics) in
      Alcotest.(check bool) (name ^ " has a number") true
        (Option.is_some (Option.bind (Json.member "value" m) Json.to_float));
      Alcotest.(check (option string)) (name ^ " unit") (Some unit)
        (Option.bind (Json.member "unit" m) Json.to_string))
    want

let test_timed_line () =
  check_line ~kind:"end_to_end" Report.end_to_end
    (Runs.timed ~scale:Workloads.Tiny ~seed:1 ~seconds:0.0 "corun")

let test_traced_line () =
  check_line ~kind:"per_layer" Report.per_layer
    (Runs.traced ~scale:Workloads.Tiny ~seed:1 "clone")

let () =
  (* The runs spawn this executable as their set-up probe and sampler. *)
  if Array.mem "--setup-probe" Sys.argv || Array.mem "--speed-sampler" Sys.argv then
    exit (Cli.main Sys.argv);
  Alcotest.run "perfbench"
    [
      ( "checks",
        [
          Alcotest.test_case "a good result passes" `Quick test_good_result;
          Alcotest.test_case "a broken IPC is a failed operation" `Quick test_broken_ipc;
          Alcotest.test_case "broken power and MPI series fail" `Quick test_broken_power_and_mpi;
          Alcotest.test_case "design-change IPC rebuilt from ratios" `Quick
            test_design_change_rebuilt;
          Alcotest.test_case "a raised call fails without a wrong output" `Quick
            test_raise_is_failed_not_incorrect;
          Alcotest.test_case "a run counts the operations of one pass" `Quick
            test_passes_count_once;
          Alcotest.test_case "a pass that came out differently fails" `Quick
            test_divergent_pass_fails;
        ] );
      ( "output",
        [
          Alcotest.test_case "timed result line names every end-to-end metric" `Quick
            test_timed_line;
          Alcotest.test_case "traced result line names every per-layer metric" `Quick
            test_traced_line;
        ] );
    ]
