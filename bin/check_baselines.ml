(* check_baselines: CI regression gate over archived artefacts.

   Usage:
     check_baselines metrics baselines/metrics.json metrics.json
     check_baselines fidelity baselines/fidelity.json fidelity.json
     check_baselines scenario baselines/scenario.json scenario.json
     check_baselines tune baselines/tune.json tune.json
     check_baselines all BASELINE CURRENT [BASELINE CURRENT]...

   Exits 0 when the current artefact matches the baseline (exactly for
   pc-obs/1 counters and gauges; within the pc-fidelity-thresholds/1
   bounds for pc-fidelity/1 clone-fidelity reports; within the
   pc-scenario-thresholds/1 bounds for pc-scenario/1 co-run reports;
   within the pc-tune-thresholds/1 bounds for pc-tune/1 tuning
   reports), 1 with one line per discrepancy otherwise.  The $(b,all) mode runs any
   number of baseline/current pairs in one invocation — the gate kind
   is inferred from each baseline's schema — prints a one-line-per-gate
   summary table, and aggregates the exit code.  Baselines are
   regenerated deliberately — see EXPERIMENTS.md. *)

module Json = Pc_util.Json

let load path =
  match Json.parse_file path with
  | Ok doc -> doc
  | Error msg ->
    Printf.eprintf "check_baselines: %s: %s\n" path msg;
    exit 2

let check kind ~baseline ~current =
  match kind with
  | `Metrics -> Pc_obs.Baseline.check_metrics ~baseline ~current
  | `Fidelity -> Pc_trace.Fidelity.check ~thresholds:baseline ~report:current
  | `Scenario -> Pc_scenario.Report.check ~thresholds:baseline ~report:current
  | `Tune -> Pc_tune.Report.check ~thresholds:baseline ~report:current

(* In [all] mode the gate kind comes from the baseline document itself:
   every baseline/thresholds schema names exactly one checker. *)
let kind_of_baseline path doc =
  match Json.schema doc with
  | Some "pc-obs/1" -> ("metrics", `Metrics)
  | Some "pc-fidelity-thresholds/1" -> ("fidelity", `Fidelity)
  | Some "pc-scenario-thresholds/1" -> ("scenario", `Scenario)
  | Some "pc-tune-thresholds/1" -> ("tune", `Tune)
  | Some s ->
    Printf.eprintf "check_baselines: %s: no gate for schema %s\n" path s;
    exit 2
  | None ->
    Printf.eprintf "check_baselines: %s: no schema field\n" path;
    exit 2

let rec pairs = function
  | [] -> []
  | [ odd ] ->
    Printf.eprintf
      "check_baselines: all mode needs BASELINE CURRENT pairs (odd file %s)\n"
      odd;
    exit 2
  | b :: c :: rest -> (b, c) :: pairs rest

let run_all files =
  let rows =
    List.map
      (fun (baseline_path, current_path) ->
        let baseline = load baseline_path and current = load current_path in
        let name, kind = kind_of_baseline baseline_path baseline in
        let issues = check kind ~baseline ~current in
        (name, current_path, issues))
      (pairs files)
  in
  Printf.printf "  %-10s %-36s %-6s %s\n" "gate" "current" "status" "issues";
  List.iter
    (fun (name, current_path, issues) ->
      Printf.printf "  %-10s %-36s %-6s %d%s\n" name current_path
        (if issues = [] then "ok" else "FAIL")
        (List.length issues)
        (match issues with [] -> "" | worst :: _ -> "  " ^ worst))
    rows;
  let failed = List.filter (fun (_, _, issues) -> issues <> []) rows in
  match failed with
  | [] ->
    Printf.printf "check_baselines: all %d gates ok\n" (List.length rows);
    0
  | failed ->
    List.iter
      (fun (name, _, issues) ->
        List.iter (fun i -> Printf.printf "check_baselines: %s: %s\n" name i) issues)
      failed;
    Printf.printf "check_baselines: %d of %d gates failed\n"
      (List.length failed) (List.length rows);
    1

let main mode baseline_path current_path rest =
  match mode with
  | `All -> run_all (baseline_path :: current_path :: rest)
  | (`Metrics | `Fidelity | `Scenario | `Tune) as kind -> (
    if rest <> [] then begin
      Printf.eprintf
        "check_baselines: extra files %s (only the all mode takes more than \
         one pair)\n"
        (String.concat " " rest);
      exit 2
    end;
    let baseline = load baseline_path and current = load current_path in
    match check kind ~baseline ~current with
    | [] ->
      Printf.printf "check_baselines: %s matches %s\n" current_path
        baseline_path;
      0
    | issues ->
      List.iter (fun i -> Printf.printf "check_baselines: %s\n" i) issues;
      Printf.printf "check_baselines: %d discrepancies against %s\n"
        (List.length issues) baseline_path;
      1)

open Cmdliner

let mode_arg =
  let modes =
    [
      ("metrics", `Metrics);
      ("fidelity", `Fidelity);
      ("scenario", `Scenario);
      ("tune", `Tune);
      ("all", `All);
    ]
  in
  Arg.(
    required
    & pos 0 (some (enum modes)) None
    & info [] ~docv:"MODE"
        ~doc:"$(b,metrics) compares pc-obs/1 counters/gauges exactly; \
              $(b,fidelity) gates a pc-fidelity/1 report against \
              pc-fidelity-thresholds/1 bounds; $(b,scenario) gates a \
              pc-scenario/1 co-run report against \
              pc-scenario-thresholds/1 bounds; $(b,tune) gates a \
              pc-tune/1 tuning report against pc-tune-thresholds/1 \
              bounds; $(b,all) runs any \
              number of baseline/current pairs (gate kinds inferred \
              from each baseline's schema) and prints a per-gate \
              summary table with an aggregated exit code.")

let baseline_arg =
  Arg.(
    required
    & pos 1 (some file) None
    & info [] ~docv:"BASELINE" ~doc:"Checked-in baseline artefact.")

let current_arg =
  Arg.(
    required
    & pos 2 (some file) None
    & info [] ~docv:"CURRENT" ~doc:"Artefact produced by this run.")

let rest_arg =
  Arg.(
    value & pos_right 2 file []
    & info [] ~docv:"PAIR"
        ~doc:"Further BASELINE CURRENT pairs ($(b,all) mode only).")

let cmd =
  Cmd.v
    (Cmd.info "check_baselines" ~doc:"gate CI artefacts against baselines")
    Term.(
      const main $ mode_arg $ baseline_arg $ current_arg $ rest_arg)

let () = exit (Cmd.eval' cmd)
