(** Synthetic benchmark clone generation — the paper's core contribution
    (Section 3.2, steps 1–12).

    From a microarchitecture-independent {!Pc_profile.Profile.t} the
    generator:

    + walks the statistical flow graph, sampling a start node from the
      execution-frequency CDF and following transition-probability CDFs,
      decrementing node occurrences, until the target number of synthetic
      basic blocks is instantiated (steps 1, 6–9);
    + fills each block to its profiled size with instructions drawn from
      the node's instruction mix, ending in a conditional branch
      (step 2);
    + assigns every source operand a register so that the node's
      dependency-distance distribution is respected (steps 3, 10);
    + gives every static load/store a stride stream: the profile's
      per-instruction dominant strides are clustered into at most
      [max_streams] pooled streams, each with its own pointer register,
      advanced once per outer-loop iteration and reset after its stream
      length (steps 4, 11);
    + realises each block's profiled taken rate and transition rate with
      a modulo (bit-mask) counter test feeding the terminating branch
      (step 5) — branches always target the next block, so the executed
      path is fixed while the predictor sees the profiled direction
      sequence;
    + wraps the blocks in one big loop whose iteration count sets the
      dynamic instruction count (step 11) and emits an executable SRISC
      program (step 12; see {!Render} for the C-with-asm dissemination
      rendering).

    All sampling is driven by a seeded deterministic generator: the same
    profile, options and seed always produce the identical clone. *)

type options = {
  seed : int;
  target_blocks : int;  (** synthetic basic blocks to instantiate *)
  target_dynamic : int;  (** approximate dynamic instructions when run *)
  max_streams : int;  (** stream pointer registers available (<= 12) *)
  block_scale : float;
      (** scales the (explicit or profile-derived) block target; 1.0 =
          unscaled.  The tuner's coarsest knob: more blocks instantiate
          more of the SFG's tail, fewer compress it harder. *)
  dep_jitter : float;
      (** probability, per sampled dependency distance, of displacing it
          by up to ±2 slots.  0.0 (the default) draws nothing from the
          RNG, so untuned clones are byte-identical to pre-knob ones. *)
  stride_bias : float;
      (** reweights stream-pool selection by [|stride|^bias]: positive
          favours long-stride streams, negative unit-stride ones; 0.0 is
          the historical pure reference-weight order. *)
  period_min : int;  (** branch-period quantisation lower bound (pow2, >= 2) *)
  period_max : int;  (** branch-period quantisation upper bound (pow2, <= 1024) *)
}

val default_options : options
(** seed 1, 0 target blocks (meaning: derived from the profile as
    [min 400 (max 40 (2 * nodes))]), 100k dynamic instructions, 12
    streams; tuning knobs at their neutral values (block_scale 1.0,
    dep_jitter 0.0, stride_bias 0.0, periods quantised to [2, 256]) —
    neutral knobs generate byte-identical clones to the pre-knob
    generator, which [Pc_tune] relies on. *)

val generate : ?options:options -> Pc_profile.Profile.t -> Pc_isa.Program.t
(** Generate the synthetic benchmark clone. *)

type stream_info = {
  stride : int;  (** profiled dominant stride in bytes *)
  length : int;  (** representative run length (accesses between stride breaks) *)
  weight : int;  (** dynamic references it stands for in the profile *)
  footprint : int;  (** bytes the stream's walk covers in the original *)
  active_span : int;  (** short-term (64-access) working-set span in bytes *)
  region : int;  (** lowest original address of the stream's data (the clone
                     anchors its walk there to preserve layout conflicts) *)
  row_stride : int;  (** second-level stride between runs (0 = none): the
                         "row" advance of 2-D walks *)
}

val plan_streams :
  ?stride_bias:float -> max_streams:int -> Pc_profile.Profile.t -> stream_info array
(** The stream pool the generator would use (exposed for tests and the
    what-if examples): profiled strides clustered by reference weight.
    [stride_bias] (default 0.0 = pure weight order) reweights selection
    by [|stride|^bias] as the tuner's {!options.stride_bias} does. *)

(** {1 Building blocks shared with alternative back ends}

    Every profile-driven generator in this repository — this one,
    {!Portable}, {!Microdep} and [Pc_statsim.Statsim] — draws from the
    rules below, so they read a profile the same way:

    - the SFG walk ({!walk_sfg}, steps 1 and 6–9; Synth and Portable);
    - the class draw ({!draw_class}, step 2; all four);
    - the dependency-distance ring ({!Recent}, steps 3 and 10; Synth,
      Microdep and Statsim — Portable models distance by its pool
      rotation);
    - the stream pool ({!stream_pool}) and stream assignment
      ({!assign_stream}, steps 4 and 11; Synth, Portable and Statsim);
    - the modulo branch counter ({!branch_counter}, step 5; Portable and
      Statsim);
    - the register layout, pool preamble and loop-bound patch of an
      SRISC loop ({!int_pool} .. {!assemble_loop}; Synth and
      Microdep). *)

val walk_sfg : Pc_util.Rng.t -> Pc_profile.Profile.t -> int -> int array
(** [walk_sfg rng profile target_blocks] performs the paper's steps 1 and
    6–9: returns the node ids to instantiate, in order. *)

val stream_pool :
  ?stride_bias:float -> max_streams:int -> Pc_profile.Profile.t -> stream_info array
(** {!plan_streams}, or, for a profile without memory ops, one 8-byte
    stride stream of 64 bytes at {!Pc_isa.Program.data_base}: the pool
    every generator indexes, never empty. *)

val assign_stream : stream_info array -> Pc_profile.Profile.mem_op -> int
(** Index of the pooled stream that best matches a profiled memory op
    (stride distance, footprint-ratio tie-break). *)

val draw_class : Pc_util.Rng.t -> float array -> Pc_isa.Instr.iclass
(** [draw_class rng mix] draws one of the six computational classes
    (integer ALU, multiply, divide, then FP ALU, multiply, divide) with
    probability proportional to its entry in [mix], an instruction-class
    mix indexed by {!Pc_isa.Instr.class_index}: one [Rng.float] over the
    six entries' sum, then a linear scan in that order.  When the sum is
    not positive it draws nothing and returns the integer ALU class; a
    draw that no prefix sum reaches (NaN entries) returns it too.
    Allocates nothing. *)

(** Ring of the last 63 destination registers, newest last.  A register
    id is an integer register [r], an FP register [32 + r], or [-1] for
    an instruction that writes none. *)
module Recent : sig
  type t

  val create : unit -> t

  val push : t -> int -> unit
  (** Record the next instruction's destination id. *)

  val find : t -> is_fp:bool -> distance:int -> int
  (** A register of the wanted kind written [distance] instructions
      ago, or as near to it as possible, scanning up to 8 slots either
      way (the more recent slot first at each step).  Returns the register
      number (without the [32 +] of FP ids), or [-1] when none is found;
      each caller draws its own fallback.  Allocates nothing. *)
end

(** Which executions of a branch are taken (in a Kc clone: which see
    its condition hold). *)
type counter =
  | Fixed of bool  (** all of them ([true]) or none *)
  | Alternate  (** every other one, starting with the first *)
  | Modulo of { period : int; taken_slots : int }
      (** the first [taken_slots] of every [period] *)

val branch_counter : Pc_profile.Profile.branch_behaviour -> counter
(** The modulo counter Portable and Statsim drive a profiled branch
    with: a transition rate t <= 0.02 gives a fixed direction (taken when
    the taken rate is at least 0.5), t >= 0.9 alternation, and anything
    between a period of the power of two at or above [2/t], kept within
    [\[2, 256\]], taken for [round (taken_rate * period)] slots clamped
    to [\[1, period - 1\]].

    This generator's own branch rule differs, and changing either would
    change its outputs: it rounds [2/t] to the {e nearest} power of two
    within the tuner's [period_min]/[period_max], and a taken rate that
    rounds to zero slots clones as never taken, not as one slot. *)

(** {2 SRISC loop layout (Synth and Microdep)}

    Registers of a generated loop: r1–r13 and f1–f13 are the dataflow
    pools, r26 counts iterations, r27 holds the loop bound and r28 is
    scratch.  This generator points r14–r25 at its streams; Microdep
    uses r14–r16 for its own pointers and LCG state. *)

val int_pool : int array
val fp_pool : int array
val iter_reg : int
val bound_reg : int
val scratch : int

val pool_preamble : Pc_isa.Instr.t list
(** Loads distinct non-zero constants into both pools. *)

val assemble_loop :
  name:string ->
  data_bytes:int ->
  iterations:int ->
  Pc_isa.Asm.item list ->
  Pc_isa.Program.t
(** Assemble items given in {e reverse} emission order, after setting
    the loop-bound placeholder [Li (bound_reg, 1L)] to [iterations]: a
    generator emits the placeholder before it knows its body size. *)
