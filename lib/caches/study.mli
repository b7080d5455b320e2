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

type grid
(** The tag state of the 28 configurations: the 28 simulated {!Cache}s
    or one {!Stack_dist} profile, which counts the same from a single
    traversal.  The misses between two stops of a walk are the
    difference of their readings. *)

val grid : onepass:bool -> grid
(** A fresh grid, the {!Stack_dist} one when [onepass]. *)

val access : grid -> int -> unit
(** Feed one data reference (byte address) to every configuration. *)

val accesses : grid -> int
(** References fed so far. *)

val misses : grid -> int array
(** Misses so far per configuration, in {!configs} order. *)

val finish : grid -> measured:int -> unit
(** Count a walk: [study.runs] by one and [study.trace_refs] by
    [measured] ([study.onepass.*] for a one-pass grid). *)

val run_trace : ((int -> unit) -> int) -> result array
(** [run_trace feed] walks a fresh simulated grid over a whole trace:
    [feed emit] calls [emit addr] for every data reference and returns
    the dynamic instruction count (the MPI denominator).  Every
    reference is measured. *)

val run_trace_onepass : ((int -> unit) -> int) -> result array
(** {!run_trace} on a one-pass grid, the same results byte for byte,
    under a [study:onepass] span: what [--cache-onepass] selects, with
    the simulated {!run_trace} as its oracle. *)

val relative_mpi : float array -> float array
(** The paper's Figure-4 series: given the 28 configurations'
    misses-per-instruction in {!configs} order, the MPI of each of the 27
    non-reference configurations divided by the reference configuration's
    MPI.  When the reference MPI is zero the ratios are undefined and
    every element is [Float.nan] — an explicit sentinel (rendered as
    null by the pc JSON writers) rather than a silent switch to absolute
    MPIs, so downstream consumers can never mix units. *)
