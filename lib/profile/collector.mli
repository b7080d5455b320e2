(** Builds a {!Profile.t} by functionally simulating a program (the
    "Workload Profiler" box in the paper's Figure 1).

    Dynamic basic blocks are runs of instructions between control
    transfers; SFG nodes are (predecessor block, block) pairs, matching
    the paper's per-context profiling.  Register dependency distances are
    measured in dynamic instructions between write and read; strides are
    measured per static load/store and summarised as the most frequent
    stride plus a footprint-derived stream length.

    A block's start pc fixes its contents: every non-control instruction
    falls through to [pc + 1] and a control instruction ends the block.
    So the SFG node is resolved once, when a block begins, and each
    instruction counts its class and dependency buckets straight into
    it; the first instance's end fixes the node's size, memory pcs and
    branch pc, even when the budget cut that instance short.  Over
    per-pc tables built once per call (never cached across calls or
    shared across domains) and accumulators indexed by pc, a retired
    instruction touches a hashtable only when a block takes an edge
    other than its node's last one or a memory op's stride changes, and
    allocates only on the first sight of a node, an edge, an op or a
    stride. *)

val profile : ?start:int -> ?max_instrs:int -> Pc_isa.Program.t -> Profile.t
(** [profile program] runs the program (default budget 10 million
    instructions) and returns its microarchitecture-independent
    profile.  [start] (default 0) skips that many dynamic instructions
    before profiling begins, so the profile covers the slice
    [start, start + max_instrs) — per-phase fidelity scoring profiles
    each sampling interval this way. *)
