(** Builds a {!Profile.t} by functionally simulating a program (the
    "Workload Profiler" box in the paper's Figure 1).

    Dynamic basic blocks are runs of instructions between control
    transfers; SFG nodes are (predecessor block, block) pairs, matching
    the paper's per-context profiling.  Register dependency distances are
    measured in dynamic instructions between write and read; strides are
    measured per static load/store and summarised as the most frequent
    stride plus a footprint-derived stream length. *)

val profile : ?start:int -> ?max_instrs:int -> Pc_isa.Program.t -> Profile.t
(** [profile program] runs the program (default budget 10 million
    instructions) and returns its microarchitecture-independent
    profile.  [start] (default 0) skips that many dynamic instructions
    before profiling begins, so the profile covers the slice
    [start, start + max_instrs) — per-phase fidelity scoring profiles
    each sampling interval this way. *)
