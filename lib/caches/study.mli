(** The paper's 28-configuration L1 D-cache study set (Section 5.1):
    sizes 256 B – 16 KB (powers of two) crossed with direct-mapped,
    2-way, 4-way and fully associative, all with 32-byte lines and LRU. *)

val configs : Cache.config array
(** The 28 configurations, ordered by size then associativity.  Index 0
    is the 256 B direct-mapped reference configuration. *)

val reference_index : int
(** Index of the 256 B direct-mapped configuration (0). *)

type result = {
  config : Cache.config;
  misses : int;
  accesses : int;
  mpi : float;  (** misses per instruction *)
}

val run_trace :
  ?warmup:((int -> unit) -> unit) -> ((int -> unit) -> int) -> result array
(** [run_trace feed] simulates all 28 caches in one pass over a memory
    reference trace.  [feed emit] must call [emit addr] for every data
    reference and return the total dynamic instruction count (the
    misses-per-instruction denominator).  Each completed pass bumps the
    global [study.runs] counter and adds the trace's reference count to
    [study.trace_refs].

    [warmup], when given, is fed first through the same caches: its
    references prime the tag state but are excluded from every reported
    [misses]/[accesses] count (and from [study.trace_refs]).  Sampled
    simulation uses this to measure one representative window on a
    warmed cache without a second pass. *)

val run_trace_onepass :
  ?warmup:((int -> unit) -> unit) -> ((int -> unit) -> int) -> result array
(** Exactly {!run_trace} — same results, byte for byte, including the
    [?warmup] snapshot semantics — but computed by a single
    {!Stack_dist} stack-distance traversal of the trace instead of 28
    tag-array simulations, making a grid sweep cost about one pass.
    Bumps [study.onepass.runs]/[study.onepass.trace_refs] (not the
    simulated-path counters) and runs under a [study:onepass] span.
    This is what [--cache-onepass] routes the
    experiment drivers through; the simulated {!run_trace} remains the
    oracle it is differentially tested against. *)

val relative_mpi : float array -> float array
(** The paper's Figure-4 series: given the 28 configurations'
    misses-per-instruction in {!configs} order, the MPI of each of the 27
    non-reference configurations divided by the reference configuration's
    MPI.  When the reference MPI is zero the ratios
    are undefined and every element is [Float.nan] — an explicit
    sentinel (rendered as null by the pc JSON writers) rather than a
    silent switch to absolute MPIs, so downstream consumers can never
    mix units. *)
