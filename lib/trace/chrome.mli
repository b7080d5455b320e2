(** Chrome [trace_event] timeline export (schema ["pc-trace/1"]).

    {!start} turns on metric and event collection ({!Pc_obs.Metrics},
    {!Pc_obs.Event}) and spawns a sampler domain that snapshots every
    registered counter and gauge at a configurable period; {!stop}
    drains the event stream and writes one JSON object that loads
    directly in Perfetto / [chrome://tracing]:

    {v
    { "traceEvents": [
        { "ph": "M", ... }                          // process/track names
        { "ph": "B"|"E", "pid": 1, "tid": <track>,  // span begin/end
          "ts": <µs>, "cat": "pc", "name": "<span>", "args": {...} },
        { "ph": "i", ... "s": "t" },                // instant markers
        { "ph": "C", "name": "<metric>",            // counter samples
          "args": { "value": <int> } }, ... ],
      "displayTimeUnit": "ms",
      "otherData": { "schema": "pc-trace/1" } }
    v}

    Tracks ([tid]) follow {!Pc_obs.Event.set_track}: 0 is the spawning
    domain, [i] is pool worker slot [i] — one lane per domain of a
    {!Pc_exec.Pool} fan-out.  Timestamps are microseconds from the
    {!start} epoch.  The set of [B]/[E]/[i] events for a deterministic
    run is identical at every [-j]; timestamps, lane assignment and
    counter samples are wall-clock and scheduling dependent.

    Nothing here writes to stdout, so tracing can never perturb
    experiment output. *)

type t

val start : ?period_s:float -> string -> t
(** [start path] begins tracing into [path] (written at {!stop}).
    Forces {!Pc_obs.Metrics.enabled} and event collection on for the
    duration, restoring both at {!stop}.  [period_s <= 0.0] disables the
    sampler domain; counters are still sampled once at {!stop}. *)

val stop : t -> unit
(** Join the sampler, take a final counter sample, drain the event
    stream and write the trace file.  Call only after pool work has
    joined (the CLIs wrap their whole run). *)

val with_trace : ?period_s:float -> string option -> (unit -> 'a) -> 'a
(** [with_trace (Some path) f] runs [f] between {!start} and {!stop}
    (the trace is written even if [f] raises); [with_trace None f] is
    just [f ()]. *)
