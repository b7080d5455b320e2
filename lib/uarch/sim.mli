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
      (** fetch-ready pushback attributed to mispredict redirects *)
  measured_instrs : int;
      (** instructions inside the measurement window (= [instrs] when no
          [measure_from] was given) *)
  measured_cycles : int;
      (** commit cycles attributable to the measurement window (= [cycles]
          when no [measure_from] was given); sampled simulation divides
          these two for warmup-free CPI *)
}

type state
(** The full scheduling state of one simulated core.  The incremental
    API below ([create] / [feed] / [finish]) is what [run] and
    [run_events] are built from; it exists so other drivers — notably
    the multi-tenant arbiter in [Pc_scenario] — can interleave several
    cores' retired streams and observe each core's commit clock between
    feed bursts. *)

val create :
  ?measure_from:int ->
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
    given).  [measure_from] is as in {!run_events}. *)

val feed : state -> Pc_funcsim.Machine.event -> unit
(** Schedule one retired instruction.  The event record may be reused
    between calls. *)

val fed_instrs : state -> int
(** Instructions fed so far. *)

val committed_cycle : state -> int
(** Commit cycle of the most recently fed instruction (monotone; [0]
    before any instruction).  Sampled multi-tenant scenarios read this
    at interval boundaries to price each tenant's windows. *)

val finish : ?instrs:int -> state -> result
(** Build the {!result} and publish the [uarch.*] metrics (see
    {!run_events}).  [instrs] defaults to {!fed_instrs}; [run] passes
    the functional simulator's count explicitly.  Call at most once. *)

val run : ?max_instrs:int -> Config.t -> Pc_isa.Program.t -> result
(** Execute the program functionally while scheduling every retired
    instruction through the timing model.  [max_instrs] (default 10
    million) bounds the simulated stream. *)

val run_events :
  ?measure_from:int -> Config.t -> ((Pc_funcsim.Machine.event -> unit) -> int) -> result
(** Schedule an arbitrary retired-instruction stream: [run_events cfg
    feed] calls [feed on_event]; [feed] must invoke [on_event] once per
    instruction (the event record may be reused between calls) and return
    the instruction count.  This is how statistical simulation drives the
    same timing model with a synthetic stream.

    [measure_from] (default 0) marks the first instruction of the
    measurement window: everything before it still executes — warming
    caches, predictor and in-flight state — but [measured_instrs] /
    [measured_cycles] report only the window, via the commit-cycle
    boundary at instruction [measure_from].  Whole-run fields
    ([instrs], [cycles], [ipc], cache and branch counters) are
    unaffected.

    Both entry points publish lifetime aggregates into the global
    {!Pc_obs.Metrics} registry at the end of each run: [uarch.instrs],
    [uarch.cycles], the [uarch.fetch_stall.*] counters, and the
    [uarch.icache.*], [uarch.dcache.*] and [uarch.bpred.*] families.
    All of them are registered when this module is, so a report of a
    process that never ran the model lists them at 0. *)

val mispredict_rate : result -> float
val l1d_mpi : result -> float
(** L1-D misses per instruction. *)
