open Cmdliner

let int_at_least lo what =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= lo -> Ok n
    | Some _ | None -> Error (`Msg (Printf.sprintf "%S: must be a %s integer" s what))
  in
  Arg.conv (parse, Format.pp_print_int)

let positive_int = int_at_least 1 "positive"

let bench =
  let names = Pc_workloads.Registry.names in
  let parse s =
    if List.mem s names then Ok s
    else
      Error
        (`Msg
          (Printf.sprintf "unknown benchmark %S; expected one of %s" s
             (String.concat ", " names)))
  in
  Arg.conv (parse, Format.pp_print_string)

let quick =
  let doc =
    "Quick mode: shorter profiling and simulation budgets (and, where the \
     tool runs the benchmark set, only five benchmarks)."
  in
  Arg.(value & flag & info [ "quick" ] ~doc)

let seed =
  let doc = "Random seed for clone generation and sampling." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc)

type obs = {
  verbosity : int;
  quiet : bool;
  trace : string option;
  period_ms : int;
  report : bool;
  metrics_out : string option;
  ledger : string option;
}

let trace_arg =
  let doc =
    "Write a Chrome trace_event timeline (schema $(b,pc-trace/1), loads \
     in Perfetto / chrome://tracing) of the whole run to $(docv): one \
     lane per worker domain from the span tree, plus counter tracks \
     sampled from the metrics registry.  Implies metric and event \
     collection; never touches stdout."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let default_period_ms = 50

let trace_period_ms_arg =
  let doc =
    "Counter-sampling period for $(b,--trace), in milliseconds.  0 \
     disables periodic sampling (counters are still sampled once at \
     exit)."
  in
  Arg.(
    value
    & opt (int_at_least 0 "non-negative") default_period_ms
    & info [ "trace-period-ms" ] ~docv:"MS" ~doc)

let metrics_arg =
  let doc =
    "Print the observability report (metrics registry and per-stage span \
     tree) to stderr after the run.  Setting $(b,PC_OBS=1) in the \
     environment has the same effect."
  in
  Term.(
    const (fun m -> m || Pc_obs.Metrics.env_enabled)
    $ Arg.(value & flag & info [ "metrics" ] ~doc))

let metrics_out_arg =
  let doc =
    "Write the observability report as JSON (schema $(b,pc-obs/1)) to \
     $(docv).  Implies metric and span collection, but not the stderr \
     report."
  in
  Arg.(value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE" ~doc)

let ledger_arg =
  let doc =
    "Append a $(b,pc-run/1) record of this invocation (tool, normalised \
     argument digest, seed, git describe, metric snapshot, and the \
     schemas/paths/digests of every artefact written) to the run ledger \
     under $(docv), for later drift diffing with $(b,pc_diff).  Without \
     a value, defaults to \\$XDG_CACHE_HOME/pc-ledger (or \
     ~/.cache/pc-ledger).  Implies metric collection; never touches \
     stdout."
  in
  Arg.(
    value & opt ~vopt:(Some "") (some string) None
    & info [ "ledger" ] ~docv:"DIR" ~doc)

let verbosity_arg =
  let doc =
    "Increase log verbosity (progress is shown by default; $(b,-v) adds \
     debug detail)."
  in
  Term.(const List.length $ Arg.(value & flag_all & info [ "v"; "verbose" ] ~doc))

let quiet_arg =
  let doc = "Log errors only." in
  Arg.(value & flag & info [ "quiet" ] ~doc)

let obs ?(log = false) ?(metrics = false) ?(ledger = false) () =
  let either on term default = if on then term else Term.const default in
  let make verbosity quiet trace period_ms report metrics_out ledger =
    { verbosity; quiet; trace; period_ms; report; metrics_out; ledger }
  in
  Term.(
    const make
    $ either log verbosity_arg 0
    $ either log quiet_arg false
    $ trace_arg
    $ either metrics trace_period_ms_arg default_period_ms
    $ either metrics metrics_arg false
    $ either metrics metrics_out_arg None
    $ either ledger ledger_arg None)

let run ~tool ?src ?(seed = 0) ?(jobs = 1) o body =
  Pc_obs.Logging.setup ~quiet:o.quiet ~verbosity:o.verbosity ();
  if o.report || o.metrics_out <> None || o.ledger <> None then
    Pc_obs.Metrics.set_enabled true;
  let written =
    Pc_trace.Chrome.with_trace
      ~period_s:(float_of_int o.period_ms /. 1000.0)
      o.trace
    @@ fun () ->
    let written = body () in
    if o.report || o.metrics_out <> None then begin
      let snap = Pc_obs.Metrics.snapshot () in
      let spans = Pc_obs.Span.roots () in
      if o.report then Pc_obs.Sink.pp_console Format.err_formatter snap spans;
      Option.iter (fun path -> Pc_obs.Sink.write_json path snap spans) o.metrics_out
    end;
    written @ [ ("pc-obs/1", o.metrics_out) ]
  in
  (* Record last, once the trace file exists, so the record can digest
     every artefact the run emitted. *)
  Option.iter
    (fun dir ->
      let artifacts =
        List.filter_map
          (fun (schema, path) ->
            Option.map (fun path -> { Pc_report.Ledger.schema; path }) path)
          (written @ [ ("pc-trace/1", o.trace) ])
      in
      let file =
        Pc_report.Ledger.record (Pc_report.Ledger.create dir) ~tool
          ~argv:(Array.to_list Sys.argv) ~seed ~jobs ~artifacts
      in
      Logs.info ?src (fun m -> m "ledger: recorded %s" file))
    o.ledger
