open Cmdliner

type interval = Auto | Fixed of int

let sample =
  let doc =
    "Estimate timing (and cache) results by SimPoint-style sampled \
     simulation with $(docv)-instruction intervals instead of simulating \
     every dynamic instruction.  $(docv) is a positive interval length, \
     or $(b,auto) to derive one from the simulation budget (about 32 \
     intervals per run, clamped to [10000, 1000000]); bare $(b,--sample) \
     means $(b,auto).  Off by default; with sampling off the output is \
     byte-identical to earlier releases."
  in
  let interval =
    let parse s =
      if s = "auto" then Ok Auto
      else
        match int_of_string_opt s with
        | Some n when n >= 1 -> Ok (Fixed n)
        | Some _ | None ->
          Error (`Msg (Printf.sprintf "%S: must be a positive integer or 'auto'" s))
    in
    let print ppf = function
      | Auto -> Format.pp_print_string ppf "auto"
      | Fixed n -> Format.pp_print_int ppf n
    in
    Arg.conv (parse, print)
  in
  Arg.(
    value
    & opt ~vopt:(Some Auto) (some interval) None
    & info [ "sample" ] ~docv:"N" ~doc)

let per_phase =
  let doc =
    "Also score each sampling interval separately (phase-local fidelity \
     rows, or phase-aware tuning fitness).  $(docv) sets the interval in \
     dynamic instructions; without a value it is derived from the \
     profiling budget like $(b,--sample)'s auto interval."
  in
  let interval = function None -> Auto | Some n -> Fixed n in
  Term.(
    const (Option.map interval)
    $ Arg.(
        value
        & opt ~vopt:(Some None) (some (some Common.positive_int)) None
        & info [ "per-phase" ] ~docv:"N" ~doc))

let resolve ~budget = function
  | None -> None
  | Some (Fixed n) -> Some n
  | Some Auto -> Some (Pc_sample.Sample.auto_interval ~max_instrs:budget)
