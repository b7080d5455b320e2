(** Clone-fidelity reports: re-profile a generated clone with
    {!Pc_profile.Collector} and compare it against the original's
    profile on the paper's microarchitecture-independent
    characteristics (Section 3.1).

    Distances are all "0 is perfect" errors except [stride_agreement]
    (histogram intersection, 1 is perfect) and the two [_ratio] fields
    (1 is perfect):

    - [instr_mix_l1]: L1 distance between global instruction-mix
      vectors (0..2);
    - [dep_dist_l1]: L1 distance between execution-weighted
      dependency-distance distributions (paper buckets, 0..2);
    - [stride_agreement]: intersection of reference-weighted dominant-
      stride distributions (0..1);
    - [single_stride_err]: |Δ| of Figure 3's single-stride fraction;
    - [taken_rate_err] / [transition_rate_err]: |Δ| of the
      execution-weighted mean branch taken / transition rates
      (Haungs-style, Section 3.1.4);
    - [sfg_block_ratio]: clone SFG nodes / original SFG nodes;
    - [avg_block_size_ratio]: clone / original mean basic-block size.

    Reports serialise as schema ["pc-fidelity/1"]; CI gates them
    against the [pc-bounds/1] document [baselines/fidelity.json]
    ([Pc_report.Bounds]). *)

type characteristics = {
  instr_mix_l1 : float;
  dep_dist_l1 : float;
  stride_agreement : float;
  single_stride_err : float;
  taken_rate_err : float;
  transition_rate_err : float;
  sfg_block_ratio : float;
  avg_block_size_ratio : float;
}

type phase = {
  p_index : int;  (** 0-based phase number *)
  p_orig_start : int;  (** first original dynamic instruction of the phase *)
  p_orig_instrs : int;  (** original dynamic instructions profiled *)
  p_clone_start : int;  (** first clone dynamic instruction of the phase *)
  p_clone_instrs : int;  (** clone dynamic instructions profiled *)
  p_c : characteristics;  (** the slice-vs-slice comparison *)
}
(** One interval-local comparison from {!measure_phases}. *)

type report = {
  bench : string;
  orig_instrs : int;  (** dynamic instructions in the original's profile *)
  clone_instrs : int;  (** dynamic instructions in the clone re-profile *)
  c : characteristics;
  phases : phase list;
      (** phase-local rows; [[]] unless {!measure_phases} ran *)
}

val characteristic_fields : characteristics -> (string * float) list
(** The characteristics as [(name, value)] rows in emission order —
    the generic view {!Pc_tune} scores over. *)

val compare_profiles :
  original:Pc_profile.Profile.t -> clone:Pc_profile.Profile.t -> characteristics
(** Pure comparison of two profiles; [measure] without the
    re-profiling. *)

val measure :
  ?max_instrs:int ->
  bench:string ->
  original:Pc_profile.Profile.t ->
  Pc_isa.Program.t ->
  report
(** [measure ~bench ~original clone_program] re-profiles the clone
    ([max_instrs] defaults to {!Pc_profile.Collector.profile}'s budget)
    and compares.  Instrumented: a ["fidelity:measure"] span, gauges
    tracking the worst characteristics seen, and one deterministic
    instant event per benchmark carrying the headline numbers. *)

val measure_phases :
  interval:int ->
  original:Pc_isa.Program.t ->
  clone:Pc_isa.Program.t ->
  report ->
  report
(** [measure_phases ~interval ~original ~clone report] adds phase-local
    rows to a {!measure} report: the original run is sliced at fixed
    [interval] dynamic-instruction boundaries (the same boundaries
    {!Pc_sample} uses), the clone — a compressed rendition of the whole
    run — is sliced proportionally, and each slice pair is compared
    with {!compare_profiles}.  Global characteristics can hide phase
    behaviour: a clone that averages two phases scores well globally
    while matching neither; the per-phase rows expose that.  The
    partition is exact: phase [p] owns clone instructions
    [p*total/n, (p+1)*total/n), so phases never re-measure overlapping
    clone slices; when the clone has fewer instructions than there are
    phases, the phases left with an empty slice report
    [p_clone_instrs = 0] with all-NaN characteristics (null in the
    JSON) instead of double-counting a neighbour's slice.  Raises
    [Invalid_argument] when [interval < 1].  Instrumented with a
    ["fidelity:phases"] span. *)

val json :
  seed:int -> profile_instrs:int -> clone_dynamic:int -> report list -> string
(** The pc-fidelity/1 document (no trailing newline).  Non-finite
    characteristic values serialise as [null] — JSON has no [NaN].
    Reports carrying {!measure_phases} rows gain an additive
    ["phases"] array per benchmark; reports without stay byte-identical
    to pre-phase output. *)

val write_json :
  string ->
  seed:int ->
  profile_instrs:int ->
  clone_dynamic:int ->
  report list ->
  unit

val pp : Format.formatter -> report list -> unit
(** Console table, one row per benchmark. *)
