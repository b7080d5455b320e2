(* pc_cli: the flags and run lifecycle shared by the command-line tools.

   Every bad value must be a usage error at parse time (Cmd.eval maps
   [Error `Parse] to exit 124) whose message names the value: never an
   exception later (exit 125) and never a silent exit 0.  Each case below
   evaluates the shared terms a tool is built from, on that tool's bad
   argv. *)

open Cmdliner
module Common = Pc_cli.Common
module Experiments = Pc_cli.Experiments
module Sampling = Pc_cli.Sampling
module Tuning = Pc_cli.Tuning

let contains ~sub s =
  let n = String.length sub in
  let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
  at 0

(* [Ok v], or [Error msg] with cmdliner's usage-error message.  An
   unknown option is a [`Term] error, a rejected value a [`Parse] one;
   [Cmd.eval] exits 124 on both. *)
let eval term args =
  let buf = Buffer.create 256 in
  let err = Format.formatter_of_buffer buf in
  let cmd = Cmd.v (Cmd.info "tool") term in
  let result = Cmd.eval_value ~err ~argv:(Array.of_list ("tool" :: args)) cmd in
  Format.pp_print_flush err ();
  match result with
  | Ok (`Ok v) -> Ok v
  | Ok (`Help | `Version) -> Alcotest.fail "unexpected help"
  | Error (`Parse | `Term) -> Error (Buffer.contents buf)
  | Error `Exn ->
    Alcotest.failf "%s: not a usage error: %s" (String.concat " " args)
      (Buffer.contents buf)

(* [args] must be a usage error whose message names [bad]. *)
let rejects ~bad term args =
  match eval term args with
  | Ok _ -> Alcotest.failf "accepted %s" (String.concat " " args)
  | Error msg ->
    if not (contains ~sub:bad msg) then
      Alcotest.failf "%s: message %S does not name %S" (String.concat " " args)
        msg bad

let ignore_term t = Term.(const ignore $ t)

(* --- unknown names --- *)

let run_experiments_term =
  Term.(const (fun names settings -> (names, settings))
        $ Experiments.experiments $ Experiments.settings)

let test_run_experiments_unknown_bench () =
  rejects ~bad:"nosuch" run_experiments_term [ "fig3"; "--bench"; "nosuch" ];
  match eval run_experiments_term [ "fig3"; "--bench"; "crc32"; "-b"; "sha" ] with
  | Ok (names, s) ->
    Alcotest.(check (list string)) "experiments" [ "fig3" ] names;
    Alcotest.(check (list string)) "benchmarks" [ "crc32"; "sha" ]
      s.Perfclone.Experiments.benchmarks
  | Error msg -> Alcotest.fail msg

let test_fidelity_report_unknown_bench () =
  rejects ~bad:"nosuch"
    (ignore_term Term.(const (fun s j p -> (s, j, p))
                      $ Experiments.settings $ Pc_cli.Jobs.jobs $ Sampling.per_phase))
    [ "--quick"; "--bench"; "nosuch" ]

let test_tune_report_unknown_bench () =
  rejects ~bad:"nosuch"
    (ignore_term Term.(const (fun s st p d -> (s, st, p, d))
                      $ Experiments.settings $ Tuning.stress $ Sampling.per_phase
                      $ Tuning.store "store"))
    [ "--bench=nosuch"; "--quick" ]

let test_characterize_unknown_bench () =
  let benches = Arg.(value & pos_all Common.bench [] & info []) in
  rejects ~bad:"nosuch" (ignore_term benches) [ "crc32"; "nosuch" ];
  match eval benches [ "crc32"; "sha" ] with
  | Ok l -> Alcotest.(check (list string)) "known names pass" [ "crc32"; "sha" ] l
  | Error msg -> Alcotest.fail msg

let test_unknown_experiment () =
  rejects ~bad:"fgi4" (ignore_term Experiments.experiments) [ "fig3"; "fgi4" ];
  match eval Experiments.experiments [] with
  | Ok l -> Alcotest.(check (list string)) "none given" [] l
  | Error msg -> Alcotest.fail msg

(* --- counts are positive at the flag --- *)

(* Each count flag as its tool declares it. *)
let count ?(vopt = false) name =
  let c = Common.positive_int in
  if vopt then Arg.(value & opt ~vopt:(Some 32) (some c) None & info [ name ])
  else Arg.(value & opt (some c) None & info [ name ])

let check_counts term flag =
  List.iter
    (fun v -> rejects ~bad:v (ignore_term term) [ Printf.sprintf "--%s=%s" flag v ])
    [ "0"; "-7"; "x" ];
  match eval term [ "--" ^ flag; "3" ] with
  | Ok (Some 3) -> ()
  | Ok _ | Error _ -> Alcotest.failf "--%s 3 not read as 3" flag

let test_instrs () = check_counts (count "instrs") "instrs"
let test_dynamic () = check_counts (count "dynamic") "dynamic"
let test_budget () = check_counts (count "budget") "budget"
let test_tune () = check_counts (count ~vopt:true "tune") "tune"

let test_per_phase () =
  List.iter
    (fun v -> rejects ~bad:v (ignore_term Sampling.per_phase) [ "--per-phase=" ^ v ])
    [ "0"; "-3"; "auto" ];
  let read args =
    match eval Sampling.per_phase args with
    | Ok v -> Sampling.resolve ~budget:2_000_000 v
    | Error msg -> Alcotest.fail msg
  in
  Alcotest.(check (option int)) "absent" None (read []);
  Alcotest.(check (option int)) "bare: auto interval" (Some 62_500)
    (read [ "--per-phase" ]);
  Alcotest.(check (option int)) "explicit" (Some 500) (read [ "--per-phase=500" ])

let test_jobs () =
  List.iter
    (fun v -> rejects ~bad:v (ignore_term Pc_cli.Jobs.jobs) [ "--jobs=" ^ v ])
    [ "0"; "-1" ];
  match eval Pc_cli.Jobs.jobs [ "-j"; "3" ] with
  | Ok n -> Alcotest.(check int) "-j 3" 3 n
  | Error msg -> Alcotest.fail msg

(* --- the other shared converters --- *)

let test_sample () =
  List.iter
    (fun v -> rejects ~bad:v (ignore_term Sampling.sample) [ "--sample=" ^ v ])
    [ "0"; "-5"; "often" ];
  let read args =
    match eval Sampling.sample args with
    | Ok v -> Sampling.resolve ~budget:500_000 v
    | Error msg -> Alcotest.fail msg
  in
  Alcotest.(check (option int)) "off" None (read []);
  Alcotest.(check (option int)) "bare" (Some 15_625) (read [ "--sample" ]);
  Alcotest.(check (option int)) "auto" (Some 15_625) (read [ "--sample=auto" ]);
  Alcotest.(check (option int)) "fixed" (Some 100_000) (read [ "--sample"; "100000" ])

let test_stress () =
  rejects ~bad:"ipc" (ignore_term Tuning.stress) [ "--stress"; "ipc=0" ];
  rejects ~bad:"fast" (ignore_term Tuning.stress) [ "--stress"; "fast=2" ];
  match eval Tuning.stress [ "--stress"; "ipc=1.5,mpki=20" ] with
  | Ok (Some env) ->
    Alcotest.(check (option (float 0.))) "ipc" (Some 1.5) env.Pc_tune.Fitness.e_ipc;
    Alcotest.(check (option (float 0.))) "mpki" (Some 20.) env.Pc_tune.Fitness.e_mpki
  | Ok None | Error _ -> Alcotest.fail "envelope not read"

(* --- the observability flags and the run lifecycle --- *)

let test_obs_flag_sets () =
  let parses term args = Result.is_ok (eval term args) in
  Alcotest.(check bool) "--trace everywhere" true
    (parses (Common.obs ()) [ "--trace"; "t.json" ]);
  Alcotest.(check bool) "no --ledger unless asked" false
    (parses (Common.obs ()) [ "--ledger" ]);
  Alcotest.(check bool) "no -v unless asked" false
    (parses (Common.obs ~ledger:true ()) [ "-v" ]);
  Alcotest.(check bool) "full set" true
    (parses
       (Common.obs ~log:true ~metrics:true ~ledger:true ())
       [ "-v"; "--quiet"; "--metrics"; "--metrics-out=m.json";
         "--trace-period-ms=0"; "--ledger=L" ]);
  rejects ~bad:"-1" (Common.obs ~metrics:true ()) [ "--trace-period-ms=-1" ]

let test_run_records_artefacts () =
  let dir = Filename.temp_file "pc_cli" ".ledger" in
  Sys.remove dir;
  let artefact = Filename.temp_file "pc_cli" ".json" in
  let obs =
    match eval (Common.obs ~ledger:true ()) [ "--ledger=" ^ dir ] with
    | Ok o -> o
    | Error msg -> Alcotest.fail msg
  in
  Common.run ~tool:"test_cli" ~seed:7 ~jobs:2 obs (fun () ->
      [ ("pc-a/1", Some artefact); ("pc-b/1", None) ]);
  let l = Pc_report.Ledger.create dir in
  match Pc_report.Ledger.entries l with
  | [ file ] -> (
    match Pc_util.Json.parse_file file with
    | Error e -> Alcotest.fail e
    | Ok doc ->
      let run = Option.get (Pc_util.Json.member "run" doc) in
      let str k = Option.bind (Pc_util.Json.member k run) Pc_util.Json.to_string in
      Alcotest.(check (option string)) "tool" (Some "test_cli") (str "tool");
      let schemas =
        match Pc_util.Json.member "artifacts" run with
        | Some (Pc_util.Json.List l) ->
          List.filter_map
            (fun a -> Option.bind (Pc_util.Json.member "schema" a) Pc_util.Json.to_string)
            l
        | _ -> []
      in
      Alcotest.(check (list string)) "written artefacts only" [ "pc-a/1" ] schemas;
      Sys.remove file;
      Sys.rmdir dir;
      Sys.remove artefact)
  | l -> Alcotest.failf "%d records" (List.length l)

let () =
  Alcotest.run "pc_cli"
    [
      ( "unknown names",
        [
          Alcotest.test_case "run_experiments --bench nosuch" `Quick
            test_run_experiments_unknown_bench;
          Alcotest.test_case "fidelity_report --bench nosuch" `Quick
            test_fidelity_report_unknown_bench;
          Alcotest.test_case "tune_report --bench nosuch" `Quick
            test_tune_report_unknown_bench;
          Alcotest.test_case "characterize nosuch" `Quick
            test_characterize_unknown_bench;
          Alcotest.test_case "run_experiments fgi4" `Quick test_unknown_experiment;
        ] );
      ( "counts",
        [
          Alcotest.test_case "--instrs" `Quick test_instrs;
          Alcotest.test_case "--dynamic" `Quick test_dynamic;
          Alcotest.test_case "--budget" `Quick test_budget;
          Alcotest.test_case "--per-phase" `Quick test_per_phase;
          Alcotest.test_case "--tune" `Quick test_tune;
          Alcotest.test_case "-j" `Quick test_jobs;
        ] );
      ( "converters",
        [
          Alcotest.test_case "--sample" `Quick test_sample;
          Alcotest.test_case "--stress" `Quick test_stress;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "observability flag sets" `Quick test_obs_flag_sets;
          Alcotest.test_case "run records the body's artefacts" `Quick
            test_run_records_artefacts;
        ] );
    ]
