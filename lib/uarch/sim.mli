(** Trace-driven out-of-order timing model (the [sim-outorder] stand-in).

    The functional simulator supplies the retired instruction stream; this
    model schedules each instruction through fetch → dispatch → issue →
    complete → commit under the configured resources:

    - per-cycle fetch/decode(dispatch)/issue/commit width limits,
    - ROB occupancy (dispatch waits for the entry of the instruction
      [rob_size] earlier to commit) and LSQ occupancy for memory ops,
    - register data dependencies (an instruction issues once every source
      register's producer has completed),
    - functional-unit contention (integer ALUs, integer multiplier/
      divider, FP ALU, FP multiplier/divider, memory ports); divides
      occupy their unit un-pipelined,
    - I-cache misses delay subsequent fetch; loads see the D-cache
      hierarchy latency at issue; stores retire through the LSQ without
      stalling completion (store-buffer semantics),
    - conditional-branch mispredictions stall fetch until the branch
      completes plus a redirect penalty; in-order mode forces program-
      order issue.

    This dependence-driven scheduling is a standard trace-driven
    approximation of an out-of-order core; it reacts to exactly the
    parameters the paper's experiments vary. *)

type result = {
  config_name : string;
  instrs : int;
  cycles : int;
  ipc : float;
  class_counts : int array;  (** dynamic instructions per class index *)
  branches : int;
  mispredictions : int;
  l1i_accesses : int;
  l1i_misses : int;
  l1d_accesses : int;
  l1d_misses : int;
  l2_accesses : int;
  l2_misses : int;
  mem_accesses : int;  (** accesses reaching main memory, both sides *)
  fetch_stall_icache_cycles : int;
      (** fetch-ready pushback attributed to I-cache miss latency *)
  fetch_stall_mispredict_cycles : int;
      (** cycles by which mispredict redirects hold fetch back past
          the point in-order dispatch already waits for (each
          mispredicted branch's own dispatch less the front-end depth) *)
}

type state
(** The full scheduling state of one simulated core.  Between [create]
    and [finish], {!step} is the model's one per-instruction entry, and
    every producer of a retired stream calls it directly: functional
    simulator rows (through {!feed_batch}, which [run] and the
    multi-tenant arbiter in [Pc_scenario] share), packed replay traces
    (through [Pc_sample]) and statistical simulation's synthetic walk. *)

val create :
  ?icache:Pc_caches.Hierarchy.t ->
  ?dcache:Pc_caches.Hierarchy.t ->
  Config.t ->
  state
(** Fresh scheduling state for [Config.t].  [icache] / [dcache]
    override the hierarchies built from the config — [Pc_scenario]
    passes hierarchies made with {!Pc_caches.Hierarchy.create_shared}
    so several cores' L1s drain into shared L2 instances.  The caller
    is responsible for any override matching the config's latencies
    (the scheduling code reads latencies from the hierarchy it is
    given). *)

val step :
  state ->
  pc:int ->
  cls:Pc_isa.Instr.iclass ->
  reads:int list ->
  write:int ->
  addr:int ->
  taken:bool ->
  unit
(** Schedule one retired instruction: static [pc], class [cls], the
    shared register ids it [reads] and the one it writes ([write], or
    [-1]).  [addr] is the effective byte address and is read only when
    [cls] is a load or store; [taken] is the conditional-branch outcome
    and is read only when [cls] is [C_branch]. *)

val feed_batch : state -> Pc_funcsim.Machine.statics -> Pc_funcsim.Machine.batch -> unit
(** {!step} every row of a {!Pc_funcsim.Machine.run_batched} chunk, with
    class, reads and write taken from the machine's statics. *)

val committed_cycle : state -> int
(** Commit cycle of the most recently stepped instruction (monotone;
    [0] before any instruction).  It is the one way a caller times part
    of a run: the model is causal, so the cycles a stretch of
    instructions costs are this clock after the stretch minus this
    clock before it.  [Pc_sample]'s replay walker reads it at each
    representative's warmup boundary and window end, for replays and
    sampled co-run tenants alike. *)

val finish : state -> result
(** Build the {!result} over every instruction stepped so far.  Call at
    most once.

    [finish] publishes lifetime aggregates into the global
    {!Pc_obs.Metrics} registry: [uarch.instrs], [uarch.cycles], the
    [uarch.fetch_stall.*] counters, and the [uarch.icache.*],
    [uarch.dcache.*] and [uarch.bpred.*] families.  All of them are
    registered when this module is, so a report of a process that never
    ran the model lists them at 0. *)

val of_counters :
  config_name:string -> instrs:int -> cycles:int -> ((result -> int) -> int) -> result
(** [of_counters ~config_name ~instrs ~cycles count] is the result with
    those three fields, [ipc = instrs / cycles], and every event counter
    (each class count included) set to [count accessor], where
    [accessor] reads that counter off a result.  Sampling builds its
    projections with it: [count] scales the counter of one or more
    replayed results, or ignores it for zeroed counters.  Rebuilding a
    {!finish} result [r] with [fun read -> read r] returns [r]. *)

val run : ?max_instrs:int -> Config.t -> Pc_isa.Program.t -> result
(** Execute the program functionally, in {!Pc_funcsim.Machine.run_batched}
    chunks, while scheduling every retired instruction through the
    timing model.  [max_instrs] (default 10 million) bounds the
    simulated stream. *)

val mispredict_rate : result -> float
val l1d_mpi : result -> float
(** L1-D misses per instruction. *)
