(** Reporters for a metrics snapshot plus a span tree.

    Three sinks, per the observability contract:

    - {!pp_console}: a human-readable report.  The CLI points it at
      stderr (behind [PC_OBS=1] / [--metrics]) so experiment stdout is
      never touched.
    - {!json}/{!write_json}: a stable-schema machine-readable report
      ([--metrics-out FILE]).  Schema ["pc-obs/1"]:

    {v
    { "schema": "pc-obs/1",
      "counters":   { "<name>": <int>, ... },
      "gauges":     { "<name>": <int>, ... },
      "histograms": { "<name>": { "count": <int>, "sum": <float>,
                                  "p50": <float>, "p95": <float>,
                                  "p99": <float>,
                                  "buckets": [ { "le": <float|"inf">,
                                                 "count": <int> }, ... ] } },
      "spans": [ { "name": <string>, "duration_s": <float>,
                   "self_s": <float>,
                   "children": [ <span>, ... ] }, ... ] }
    v}

      Counter/gauge/histogram keys are sorted by name; spans are in
      completion order; [self_s] is the span's exclusive time
      ({!self_s}); [p50]/[p95]/[p99] are bucket-interpolated
      quantile estimates ({!Metrics.hist_quantile}).  Printed by
      {!Pc_util.Json}, so non-finite floats serialise as [null].
    - {!null}: does nothing — the disabled path. *)

val self_s : Span.t -> float
(** Exclusive time of a span: its duration minus the sum of its
    children's durations, clamped at 0.  Both report sinks surface it so
    hot stages are readable without loading the timeline in Perfetto. *)

val pp_console : Format.formatter -> Metrics.snapshot -> Span.t list -> unit

val json : Metrics.snapshot -> Span.t list -> string

val write_json : string -> Metrics.snapshot -> Span.t list -> unit
(** [write_json path snap spans] writes {!json} to [path] (truncating),
    with a trailing newline. *)

val null : Metrics.snapshot -> Span.t list -> unit
