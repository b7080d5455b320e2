(** Regression gating against a checked-in [pc-obs/1] baseline.

    CI archives the [pc-obs/1] metrics report of a quick run.  This
    module compares it against a committed baseline and reports
    human-readable discrepancies; an empty list means the gate passes.

    Metric counters and gauges are workload counts (instructions
    retired, cache refs, store hits...), deterministic for a fixed
    seed at [-j 1], so they are compared exactly: any drift means the
    pipeline's behaviour changed and either a bug crept in or the
    baseline must be regenerated deliberately.  Duration histograms
    and spans are timing, not behaviour, and are ignored. *)

val check_metrics :
  baseline:Pc_util.Json.t -> current:Pc_util.Json.t -> string list
(** Exact comparison of the [counters] and [gauges] objects of two
    [pc-obs/1] documents: value drift, instruments missing from the
    current run, and new instruments absent from the baseline are all
    reported (the latter so baselines cannot silently go stale). *)
