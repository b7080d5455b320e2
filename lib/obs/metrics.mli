(** Metrics registry: named, domain-safe counters, gauges and histograms
    with O(1) hot-path updates and a snapshot/diff API.

    Instruments are registered globally by name (dotted lowercase, e.g.
    ["uarch.cycles"]); requesting an existing name returns the existing
    instrument, so call sites in different modules can share one series.
    Counter and gauge updates are single atomic operations, safe from any
    {!Pc_exec.Pool} worker domain; histogram observations take a
    per-histogram lock and belong on per-task or per-run paths, not
    per-instruction ones.

    Instruments always count — recording a few atomic adds costs
    nanoseconds and keeps the registry meaningful for programmatic use.
    What {!enabled} gates is everything with visible cost or output:
    span recording ({!Span}) and the sinks ({!Sink}).  Nothing in this
    module ever writes to stdout, so enabling observability cannot
    perturb experiment output — the invariant the test suite checks
    byte-for-byte. *)

val enabled : unit -> bool
(** Master observability switch.  Initialised from the [PC_OBS]
    environment variable (["1"], ["true"], ["yes"], ["on"] enable);
    flipped programmatically by [--metrics]/[--metrics-out]. *)

val set_enabled : bool -> unit

val env_enabled : bool
(** What [PC_OBS] alone said at startup (before any [set_enabled]);
    the CLI uses this to decide whether to print the console report. *)

(** {1 Counters} *)

type counter

val counter : string -> counter
(** Find or create the counter registered under this name.  Raises
    [Invalid_argument] if the name is already registered as a different
    instrument kind. *)

val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int

(** {1 Gauges}

    A gauge holds one integer.  [set] stores; [record_max] keeps the
    maximum ever recorded — the idiom for high-water marks (pages
    touched, worst fidelity error, peak slowdown). *)

type gauge

val gauge : string -> gauge
val set : gauge -> int -> unit
val record_max : gauge -> int -> unit
val gauge_value : gauge -> int

(** {1 Histograms} *)

type histogram

val histogram : ?buckets:float array -> string -> histogram
(** [buckets] are strictly increasing upper bounds; an implicit
    overflow bucket catches everything above the last bound.  The
    bucket layout is fixed by whichever call registers the name
    first. *)

val observe : histogram -> float -> unit
(** Record one observation: bumps the first bucket whose bound is
    [>=] the value (or the overflow bucket) and the running
    count/sum. *)

(** {1 Snapshots} *)

type hist_view = {
  le : float array;  (** bucket upper bounds, as registered *)
  bucket_counts : int array;  (** per-bucket counts; last = overflow *)
  count : int;
  sum : float;
}

val hist_quantile : hist_view -> float -> float
(** [hist_quantile v q] estimates the [q]-quantile ([0..1], clamped) of
    the observations from the bucket counts, Prometheus-style: linear
    interpolation inside the bucket containing the [q]-th observation.
    Ranks landing in the unbounded overflow bucket clamp to the last
    finite bound; an empty histogram reports 0.  The sinks report p50/
    p95/p99 through this. *)

type snapshot = {
  counters : (string * int) list;  (** sorted by name *)
  gauges : (string * int) list;
  histograms : (string * hist_view) list;
}

val snapshot : unit -> snapshot
(** Consistent-enough view of every registered instrument (each value is
    read atomically; the set is read under the registry lock). *)

val diff : before:snapshot -> after:snapshot -> snapshot
(** Counter and histogram values of [after] minus [before]; gauges keep
    their [after] value.  Instruments missing from [before] — created
    mid-run, e.g. by a lazily-built store — count from zero, so their
    [after] value is reported unchanged.  A histogram whose bucket
    layout differs between the snapshots is likewise reported with its
    [after] value rather than a meaningless cross-layout subtraction.
    Instruments only present in [before] are dropped. *)

val reset : unit -> unit
(** Zero every registered instrument (registrations survive).  For
    tests and for separating phases of one process. *)
