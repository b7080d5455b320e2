(* fidelity_report: measure how faithfully the generated clones
   reproduce the paper's microarchitecture-independent characteristics.

   Usage:
     fidelity_report [--quick] [--bench NAME]... [--seed N] [-j N]
                     [--instrs N] [--dynamic N] [--per-phase[=N]]
                     [-o FILE] [--trace FILE] [--ledger [DIR]]

   Runs the cloning pipeline for the selected benchmarks, re-profiles
   every clone, and prints one table row per benchmark (stdout).  -o
   writes the same data as pc-fidelity/1 JSON, the artefact that
   check_baselines gates against baselines/fidelity.json.  --per-phase
   adds interval-local rows (pc_sample's boundaries) per benchmark. *)

module E = Perfclone.Experiments
module Pool = Pc_exec.Pool

let main settings jobs instrs dynamic per_phase output obs =
  let settings =
    {
      settings with
      E.profile_instrs = Option.value instrs ~default:settings.E.profile_instrs;
      clone_dynamic = Option.value dynamic ~default:settings.E.clone_dynamic;
    }
  in
  Pc_cli.Common.run ~tool:"fidelity_report" ~seed:settings.E.seed ~jobs obs
  @@ fun () ->
  let pool = Pool.create ~num_domains:jobs in
  let pipelines = E.prepare ~pool settings in
  let reports = E.fidelity_reports ~pool settings pipelines in
  let reports =
    match Pc_cli.Sampling.resolve ~budget:settings.E.profile_instrs per_phase with
    | None -> reports
    | Some interval ->
      (* prepare and fidelity_reports both preserve benchmark order, so
         zipping pipelines with their reports is positional *)
      Pool.map pool
        (fun ((p : Perfclone.Pipeline.t), r) ->
          Pc_trace.Fidelity.measure_phases ~interval
            ~original:p.Perfclone.Pipeline.original
            ~clone:p.Perfclone.Pipeline.clone r)
        (List.combine pipelines reports)
  in
  Pc_trace.Fidelity.pp Format.std_formatter reports;
  Option.iter
    (fun path ->
      Pc_trace.Fidelity.write_json path ~seed:settings.E.seed
        ~profile_instrs:settings.E.profile_instrs
        ~clone_dynamic:settings.E.clone_dynamic reports)
    output;
  [ ("pc-fidelity/1", output) ]

open Cmdliner

let instrs_arg =
  Arg.(value & opt (some Pc_cli.Common.positive_int) None
       & info [ "instrs" ] ~docv:"N"
           ~doc:"Profiling budget in dynamic instructions (for both the \
                 original's profile and the clone's re-profile).")

let dynamic_arg =
  Arg.(value & opt (some Pc_cli.Common.positive_int) None
       & info [ "dynamic" ] ~docv:"N"
           ~doc:"Target dynamic length of the clones.")

let output_arg =
  Arg.(value & opt (some string) None
       & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Write the report as pc-fidelity/1 JSON to $(docv).")

let cmd =
  Cmd.v
    (Cmd.info "fidelity_report" ~doc:"measure clone fidelity on the paper characteristics")
    Term.(const main $ Pc_cli.Experiments.settings $ Pc_cli.Jobs.jobs
          $ instrs_arg $ dynamic_arg $ Pc_cli.Sampling.per_phase $ output_arg
          $ Pc_cli.Common.obs ~ledger:true ())

let () = exit (Cmd.eval cmd)
