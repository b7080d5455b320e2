(* tune_report: run the closed-loop knob search over a benchmark set
   and report how much tuning buys over the default generator options.

   Usage:
     tune_report [--quick] [--bench NAME]... [--seed N] [-j N]
                 [--budget N] [--stress SPEC] [--per-phase[=N]]
                 [--store[=DIR]] [-o FILE] [--trace FILE] [--ledger [DIR]]

   Prints one table row per benchmark (stdout): default-knob fitness,
   tuned fitness, gain, and the winning knob vector.  The table is
   byte-identical at every -j and across cold/warm --store runs — CI
   diffs it.  -o writes the same data as pc-tune/1 JSON (which also
   carries the per-generation trajectory and the store hit/miss split),
   the artefact check_baselines gates against baselines/tune.json.

   Benchmarks are tuned serially on purpose: the search fans its
   candidate evaluations out through the pool, and pool batches do not
   nest. *)

module E = Perfclone.Experiments
module Pool = Pc_exec.Pool

let main settings jobs budget stress per_phase store output obs =
  let seed = settings.E.seed in
  Pc_cli.Common.run ~tool:"tune_report" ~seed ~jobs obs @@ fun () ->
  let pool = Pool.create ~num_domains:jobs in
  let mode = Pc_cli.Tuning.mode stress in
  let store = Option.map Pc_tune.Tune_store.create store in
  let pipelines = E.prepare ~pool settings in
  let interval =
    Pc_cli.Sampling.resolve ~budget:settings.E.profile_instrs per_phase
  in
  let results =
    List.map
      (fun (p : Perfclone.Pipeline.t) ->
        let phases =
          Option.map (fun i -> (i, p.Perfclone.Pipeline.original)) interval
        in
        Pc_tune.Search.run ~pool ?store ~budget ?phases
          ~bench:p.Perfclone.Pipeline.name ~seed
          ~profile_instrs:settings.E.profile_instrs
          ~target_dynamic:settings.E.clone_dynamic ~mode
          p.Perfclone.Pipeline.profile)
      pipelines
  in
  Pc_tune.Report.pp Format.std_formatter results;
  Option.iter
    (fun path ->
      Pc_tune.Report.write_json path ~seed
        ~profile_instrs:settings.E.profile_instrs
        ~clone_dynamic:settings.E.clone_dynamic ~mode results)
    output;
  [ ("pc-tune/1", output) ]

open Cmdliner

let budget_arg =
  Arg.(value & opt Pc_cli.Common.positive_int 32
       & info [ "budget" ] ~docv:"N"
           ~doc:"Candidate evaluations per benchmark (default 32).")

let output_arg =
  Arg.(value & opt (some string) None
       & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Write the report as pc-tune/1 JSON to $(docv).")

let cmd =
  Cmd.v
    (Cmd.info "tune_report"
       ~doc:"closed-loop knob tuning against fidelity or a stress envelope")
    Term.(const main $ Pc_cli.Experiments.settings $ Pc_cli.Jobs.jobs
          $ budget_arg $ Pc_cli.Tuning.stress $ Pc_cli.Sampling.per_phase
          $ Pc_cli.Tuning.store "store" $ output_arg
          $ Pc_cli.Common.obs ~ledger:true ())

let () = exit (Cmd.eval cmd)
