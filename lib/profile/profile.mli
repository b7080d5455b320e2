(** Microarchitecture-independent workload profiles (paper Section 3.1).

    A profile is everything the clone generator needs, and nothing that
    depends on a cache, predictor, or pipeline:

    - the {b statistical flow graph} (SFG): one node per (predecessor
      basic block, basic block) pair, annotated with execution counts,
      size, instruction mix, dependency-distance distribution, the
      memory-access profile of each static load/store it contains, the
      terminating branch's behaviour, and transition probabilities to
      successor nodes;
    - per-static-memory-instruction {b stride} profiles: dominant stride,
      the fraction of that instruction's references covered by the
      dominant stride, and the footprint-derived stream length;
    - per-static-branch {b taken rate} and {b transition rate}
      (Haungs-style);
    - whole-program aggregates (instruction mix, basic-block size,
      Figure 3's single-stride fraction). *)

val dep_bounds : int array
(** Dependency-distance histogram bucket upper bounds:
    [\[|1; 2; 4; 6; 8; 16; 32|\]] (the paper's buckets); one implicit
    overflow bucket holds distances > 32. *)

val sample_distance : Pc_util.Rng.t -> float array -> int
(** [sample_distance rng dep_fractions] draws a dependency distance: a
    bucket by its fraction, then a distance uniform inside it (33–48 for
    the overflow bucket).  When the fractions sum to less than the draw
    — all zero, say — the last bucket is taken. *)

type mem_op = {
  static_pc : int;  (** static instruction index in the original binary *)
  is_store : bool;
  stride : int;  (** dominant stride in bytes (may be 0 or negative) *)
  stream_length : int;  (** average run length: consecutive accesses between
                            stride breaks, >= 1 *)
  footprint : int;  (** bytes between the lowest and highest address touched *)
  window_span : int;  (** average address span of 64 consecutive accesses —
                          the op's short-term working set, which catches 2D
                          and re-walk reuse that a 1D run misses *)
  region : int;  (** lowest byte address the op touched (identifies which
                     data structure it walks) *)
  row_stride : int;  (** dominant distance between consecutive run starts —
                         the second-level ("row") stride of 2-D walks;
                         0 when runs do not advance regularly *)
  refs : int;  (** dynamic references of this static instruction *)
  single_stride_refs : int;  (** how many matched the dominant stride *)
}

type branch_behaviour = {
  execs : int;
  taken_rate : float;
  transition_rate : float;
}

type node = {
  id : int;
  pred_start : int;  (** start pc of the predecessor basic block; -1 at program entry *)
  start : int;  (** start pc of this basic block *)
  count : int;  (** dynamic executions of this node *)
  size : int;  (** instructions in the block, including its terminator *)
  mix : float array;  (** fraction per instruction class index *)
  dep_fractions : float array;  (** fraction per dependency bucket (len 8) *)
  mem_ops : mem_op array;  (** in program order within the block *)
  branch : branch_behaviour option;  (** conditional terminator, if any *)
  successors : (int * float) array;  (** (node id, transition probability) *)
}

type t = {
  name : string;
  instr_count : int;  (** dynamic instructions profiled *)
  nodes : node array;  (** indexed by [node.id] *)
  global_mix : float array;
  avg_block_size : float;
  single_stride_fraction : float;  (** Figure 3's per-program metric *)
  unique_streams : int;  (** distinct (stride, stream length) classes *)
}

val node_cdf : t -> float array
(** Cumulative distribution over nodes by execution count, used by the
    clone generator's step 1. *)

val dep_distribution : t -> float array
(** The program's dependency-distance distribution: every node's
    [dep_fractions] weighted by its execution count, one entry per
    bucket of {!dep_bounds} plus the overflow bucket.  All zeros when no
    node executed. *)

val branch_rates : t -> (float * float) option
(** The execution-weighted means of the per-branch taken and
    transition rates, in that order; [None] when no branch executed. *)

val pp_summary : Format.formatter -> t -> unit
(** Human-readable one-screen summary. *)

val save : out_channel -> t -> unit
(** Serialise in a line-oriented text format. *)

val parse : string -> (t, string) result
(** Inverse of [save], over the text it wrote.  [Error] on malformed
    input, with the message [LINE: reason] (LINE 1-based), so a caller
    holding the file name can report [PATH:LINE: reason].  Beyond the
    format it checks every value a consumer indexes or sizes with:
    counts and sizes are non-negative, the SFG has at least one node
    (every profiled run has one; the clone generator needs one), [mix]
    and [global_mix] have {!Pc_isa.Instr.class_count} entries,
    [dep_fractions] has [Array.length dep_bounds + 1], nodes appear in
    id order and every successor id is in [\[0, nodes)].  Never
    raises. *)

val load : in_channel -> (t, string) result
(** {!parse} over the rest of the channel. *)
