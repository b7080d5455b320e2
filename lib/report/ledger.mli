(** Cross-run ledger: every instrumented CLI appends one [pc-run/1]
    record per invocation ([--ledger \[DIR\]]), so drift between runs
    can be diffed after the fact ([pc_diff --ledger]).

    Record ([run-NNNNNN-<id12>.json], written atomically by
    {!Pc_exec.Disk_store.write_atomic}; a failed write raises):

    {v
    { "schema": "pc-run/1", "id": "<hex digest>",
      "run": { "tool": "<cli>", "args_digest": "<hex>", "seed": <int>,
               "git": "<describe|unknown>",
               "metrics": { "counters": { "<name>": <int>, ... },
                            "gauges":   { "<name>": <int>, ... } },
               "artifacts": [ { "schema": "<pc-*/1>", "path": "<path>",
                                "digest": "<hex|absent>" }, ... ] },
      "env": { "host": "<hostname>", "time_unix_s": <float>,
               "jobs": <int>, "argv": [ "<arg>", ... ] } }
    v}

    [id] digests the deterministic slice of the record — the [run]
    object with artifact [path]/[digest] fields and [exec.store.*]/
    [report.ledger.*] counters elided (paths are destinations, trace
    timestamps and
    histogram samples make whole-file digests wall-clock, and
    memo-store miss counts can double on same-key races at
    [-j > 1]).  Host, time,
    jobs and raw argv live in the undigested [env] object, and
    [args_digest] normalises [-j]/[--jobs]/[--ledger] away entirely and
    elides the path values of output-destination options ([-o],
    [--trace], [--metrics-out], ...), so repeated equivalent
    invocations produce byte-identical ids at any [-j] and wherever
    their artefacts land.
    Histograms are excluded from the metrics snapshot for the same
    reason.  The filename's sequence prefix orders the history (ids
    repeat across identical runs; sequence numbers do not). *)

type t

type artifact = { schema : string; path : string }

val default_dir : unit -> string
(** [$XDG_CACHE_HOME/pc-ledger], falling back as
    {!Pc_exec.Disk_store.default_dir} does. *)

val create : string -> t
(** Open (creating if needed) the ledger directory.  [""] means
    {!default_dir}. *)

val dir : t -> string

val record :
  t ->
  tool:string ->
  argv:string list ->
  seed:int ->
  jobs:int ->
  artifacts:artifact list ->
  string
(** Append one record — snapshotting the metrics registry and digesting
    the listed artifact files — and return its path.  Bumps the
    [report.ledger.records] counter (registered lazily on first use and
    {e after} the snapshot, so ledger bookkeeping never appears in the
    recorded metrics or in any [--metrics-out] report written before
    it). *)

val entries : t -> string list
(** Record paths, oldest first. *)

val latest_pair : t -> (string * string, string) result
(** The newest record and the latest earlier one written by the same
    tool with the same [args_digest] — two runs of the same work — as
    [(earlier, newest)].  [Error] says why there is none: an empty
    ledger, an unreadable newest record, or no earlier run of that
    work. *)

val args_digest : string list -> string
(** The normalised-argv digest {!record} stores ([-j]/[--jobs]/
    [--ledger] and their values removed; output-destination option
    values elided). *)
