(** What the command-line tools share: the converters and flags that two
    or more of them take, and the one run lifecycle every tool goes
    through — log reporter, metrics, trace, [pc-obs/1] report and
    [pc-run/1] ledger record.

    [pc_cli] is split into modules by dependency, because linking a
    module that registers metrics when it initialises (the worker pool,
    the memo and disk stores) adds zero-valued counters to a tool's
    [pc-obs/1] report and changes its [pc-run/1] ids.  This module needs
    only the observability, trace, ledger and workload-registry layers;
    {!Jobs} (the worker pool), {!Experiments} ([Perfclone.Experiments]),
    {!Sampling} ([Pc_sample]) and {!Tuning} ([Pc_tune]) each reach the
    tools that reference them and no others.

    Every converter validates at parse time: a bad value is a usage
    error (exit 124) naming the value, never an exception later. *)

open Cmdliner

(** {1 Converters} *)

val positive_int : int Arg.conv
(** Integers [>= 1]: the converter of every count flag ([-j],
    [--instrs], [--dynamic], [--budget], [--per-phase], [--tune]). *)

val bench : string Arg.conv
(** A benchmark name from {!Pc_workloads.Registry.names}, for both the
    flag and the positional forms. *)

(** {1 Flags} *)

val quick : bool Term.t
(** [--quick]. *)

val seed : int Term.t
(** [--seed N], default 1. *)

(** {1 The run lifecycle} *)

type obs
(** The observability flags a tool was given. *)

val obs : ?log:bool -> ?metrics:bool -> ?ledger:bool -> unit -> obs Term.t
(** [--trace FILE], plus: with [log], [-v]/[--verbose] and [--quiet];
    with [metrics], [--metrics], [--metrics-out FILE] and
    [--trace-period-ms MS]; with [ledger], [--ledger[=DIR]].  All
    default to [false]; an absent flag takes its default value (the
    [Info] log level, a 50 ms counter-sampling period, no report, no
    record).  [--metrics] and [PC_OBS=1] print the console report only
    in tools that take [metrics]. *)

val run :
  tool:string ->
  ?src:Logs.src ->
  ?seed:int ->
  ?jobs:int ->
  obs ->
  (unit -> (string * string option) list) ->
  unit
(** [run ~tool obs body] installs the stderr log reporter, enables
    metric collection when a sink needs it, and runs [body] under
    {!Pc_trace.Chrome.with_trace}.  [body] returns the artefacts it may
    have written, as [(schema, path)] pairs ([None] for one it did
    not).  Then the console report and [--metrics-out] are emitted and,
    once the trace file exists, a [pc-run/1] record of every artefact is
    appended to the ledger, tagged with [tool], [seed] (default 0) and
    [jobs] (default 1), and logged to [src] (default {!Logs.default}). *)
