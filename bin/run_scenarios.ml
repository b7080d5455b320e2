(* run_scenarios: co-schedule workload mixes (originals or their clones)
   on the shared-L2 multicore model and report per-tenant slowdown,
   weighted speedup and fairness.

   Usage:
     run_scenarios [SCENARIO]... [--config FILE] [--list] [--quick]
                   [--seed N] [--budget N] [-j N] [--sample N] [-o FILE]
                   [--metrics] [--metrics-out FILE] [--trace FILE]
                   [--trace-period-ms MS] [--ledger [DIR]] [-v] [--quiet]

   Scenarios come from the preset table (run_scenarios --list) or from a
   pc-scenario-config/1 JSON file; positional names select from whichever
   set is active.  Scenarios fan out over -j worker domains and the
   pc-scenario/1 document written by -o is byte-identical at every -j
   and across runs.  The console table goes to stdout; observability
   output goes to stderr / --metrics-out, so it can never perturb the
   artefact. *)

module Spec = Pc_scenario.Spec
module Presets = Pc_scenario.Presets
module Runner = Pc_scenario.Runner
module Report = Pc_scenario.Report
module Pool = Pc_exec.Pool

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("run_scenarios: " ^ msg);
      exit 1)
    fmt

let main names config_file list_only quick seed budget jobs sample out obs =
  if list_only then List.iter print_endline Presets.names
  else
    Pc_cli.Common.run ~tool:"run_scenarios" ~seed ~jobs obs @@ fun () ->
    let pool = Pool.create ~num_domains:jobs in
    let base =
      if quick then Runner.quick_settings else Runner.default_settings
    in
    let base =
      match budget with
      | None -> base
      | Some b -> { base with Runner.budget = b }
    in
    let sample = Pc_cli.Sampling.resolve ~budget:base.Runner.budget sample in
    let settings = { base with Runner.seed; sample } in
    let available =
      match config_file with
      | None -> Presets.all
      | Some path -> (
        match Spec.load_file path with
        | Ok specs -> specs
        | Error msg -> die "%s: %s" path msg)
    in
    let specs =
      match names with
      | [] -> available
      | names ->
        List.map
          (fun name ->
            match
              List.find_opt (fun (s : Spec.t) -> s.Spec.name = name) available
            with
            | Some s -> s
            | None ->
              die "unknown scenario %S (try --list%s)" name
                (if config_file = None then "" else " or check the config file"))
          names
    in
    let results = Runner.run ~pool settings specs in
    Report.pp Format.std_formatter results;
    Option.iter (fun path -> Report.write_json path ~settings results) out;
    [ ("pc-scenario/1", out) ]

open Cmdliner

let names_arg =
  let doc =
    "Scenarios to run, by name (default: every available scenario)."
  in
  Arg.(value & pos_all string [] & info [] ~docv:"SCENARIO" ~doc)

let config_arg =
  let doc =
    "Load scenarios from a $(b,pc-scenario-config/1) JSON file instead of \
     the preset table."
  in
  Arg.(value & opt (some string) None & info [ "config" ] ~docv:"FILE" ~doc)

let list_arg =
  let doc = "List the preset scenario names and exit." in
  Arg.(value & flag & info [ "list" ] ~doc)

let budget_arg =
  let doc = "Per-tenant instruction budget (overrides the mode default)." in
  Arg.(value & opt (some Pc_cli.Common.positive_int) None & info [ "budget" ] ~docv:"N" ~doc)

let out_arg =
  let doc = "Write the $(b,pc-scenario/1) JSON document to $(docv)." in
  Arg.(value & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE" ~doc)

let cmd =
  let doc =
    "co-schedule workload mixes on the shared-cache multicore model"
  in
  Cmd.v
    (Cmd.info "run_scenarios" ~doc)
    Term.(
      const main $ names_arg $ config_arg $ list_arg $ Pc_cli.Common.quick
      $ Pc_cli.Common.seed $ budget_arg $ Pc_cli.Jobs.jobs
      $ Pc_cli.Sampling.sample $ out_arg
      $ Pc_cli.Common.obs ~log:true ~metrics:true ~ledger:true ())

let () = exit (Cmd.eval cmd)
