open Cmdliner

let jobs =
  let doc =
    "Number of worker domains for the run's fan-out.  The output is \
     byte-identical at every value.  Defaults to $(b,PC_JOBS) when set, \
     otherwise the number of cores."
  in
  Arg.(
    value
    & opt Common.positive_int (Pc_exec.Pool.default_jobs ())
    & info [ "j"; "jobs" ] ~docv:"N" ~doc)
