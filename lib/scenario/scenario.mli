(** The multi-tenant co-run engine: N retired-instruction streams
    interleaved onto N copies of the timing model whose private L1s
    drain into one shared L2 per cache side.

    Arbitration is a weighted round-robin over instruction quanta in
    fixed slot order: each arbiter round gives slot [i] up to
    [quantum * weights.(i)] retired instructions, delivered through
    {!Pc_funcsim.Machine.run_batched} chunks and
    {!Pc_uarch.Sim.feed_batch} (live tenants) or
    {!Pc_sample.Sample.Walk.step} (sampled tenants), so the hot loop
    stays batched.  The shared L2s therefore observe tenants'
    accesses in a deterministic contention order — the whole co-run is
    a pure function of (config, inputs, quantum, weights).

    Each tenant's scheduling state keeps its own commit clock
    (instruction-quantum interleaving, the standard trace-driven
    approximation of simultaneous execution); cross-tenant interference
    flows through the shared L2 state, which is where co-run slowdown
    comes from.  Per-tenant L2 access/miss counts stay exact because
    {!Pc_caches.Hierarchy} tracks them per hierarchy.

    With a single tenant the engine is bit-identical to the standalone
    {!Pc_uarch.Sim.run}: tenant 0's tag is 0 and each shared L2 is a
    fresh instance of the config's geometry — the property
    [test/test_scenario.ml] checks. *)

type source =
  | From_machine of Pc_funcsim.Machine.t
      (** a live functional machine, freshly loaded; the engine runs it
          in budgeted bursts (machines resume across calls) *)
  | From_plan of Pc_sample.Sample.plan
      (** a sampling plan: the engine walks its representatives one
          after another on the tenant's core ({!Pc_sample.Sample.Walk}),
          timing each one's window *)

type tenant_input = {
  label : string;
  budget : int;
      (** instruction budget; the stream may end earlier (a plan's
          stream is {!Pc_sample.Sample.replayed_instrs} long) *)
  source : source;
}

type tenant_result = {
  label : string;
  result : Pc_uarch.Sim.result;
      (** per-tenant timing result over the instructions actually fed *)
  windows : Pc_sample.Sample.window array;
      (** one window per representative of a {!From_plan} tenant, in
          plan order, as the co-run timed it; empty for {!From_machine}
          tenants *)
}

val co_run :
  ?quantum:int ->
  ?weights:int array ->
  Pc_uarch.Config.t ->
  tenant_input array ->
  tenant_result array
(** Run every tenant to its budget (or the end of its stream) under the
    shared-L2 machine; results are in slot order.  [quantum] defaults
    to {!Pc_funcsim.Machine.batch_capacity}, [weights] to all-1
    (round-robin).  Raises [Invalid_argument] for no tenants, a
    non-positive quantum, a weight list of the wrong length or a
    non-positive weight. *)
