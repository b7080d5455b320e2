(** One-pass Mattson stack-distance profiling for LRU cache grids.

    A single traversal of an address trace prices {e every} LRU
    configuration of a size×associativity grid at once, exactly.  The
    classic inclusion argument: an access to line [l] hits in an LRU
    cache with [S] sets and [A] ways iff [l] has been touched before and
    the number of {e distinct} lines mapping to [l]'s set that were
    touched since is less than [A] — the per-set stack distance.  So one
    distance histogram per distinct set count replaces one full tag-array
    simulation per configuration, and a 28-point grid costs about one
    pass instead of 28.

    Two tracker shapes, chosen per set count:

    - set-associative columns keep a per-set most-recently-used stack
      truncated at the deepest associativity in the grid (4 for the
      paper's study), so an access is a ≤4-entry search plus a
      move-to-front;
    - the fully-associative column (one set, way count up to
      [size/line] = 512) keeps the [cap] most recent distinct lines in
      a circular recency buffer plus an open-addressed membership
      table: a hit at stack distance [d] costs a [d]-entry scan and
      shift, while cold and deeper-than-[cap] accesses — misses in
      every member configuration, so they need no exact distance — are
      answered by the table and inserted in O(1).

    One rule serves the whole grid before any tracker is touched: an
    access whose line at the grid's {e finest} line size equals the
    previous access's is a repeat at every coarser line size too, so it
    is at stack distance 0 in every group and a hit in every
    configuration.  It is counted once and touches no stack, ring or
    histogram.  (Keyed on a coarser size the rule would be wrong: two
    accesses can share a 64-byte line but not a 16-byte one.)

    Counts match a tag-array simulation ({!Cache.access} per
    configuration) bit-for-bit, including compulsory (cold) misses;
    {!Study.run_trace_onepass} cross-checks this against the simulated
    {!Study.run_trace} oracle in the test suite.  {!Cache} models LRU
    only, the one policy that obeys the inclusion property. *)

type t

val create : Cache.config array -> t
(** Build a profiler for a grid of LRU configurations (any mix of line
    sizes, set counts and associativities; set counts follow from the
    power-of-two sizes {!Cache.config} enforces).  Raises
    [Invalid_argument] on an empty grid. *)

val access : t -> int -> unit
(** Feed one address (a non-negative byte address, as {!Cache.access}
    takes).  A repeat of the previous address's finest-size line costs
    one compare. *)

val accesses : t -> int
(** Total addresses fed so far (identical for every configuration). *)

val misses : t -> int array
(** Exact LRU miss count per configuration, in the grid order given to
    {!create}, for the trace fed so far.  Cheap (folds the distance
    histograms); callers snapshot it at a warmup boundary and subtract. *)
