(** The scenario driver: resolve a {!Spec.t}'s tenants to programs
    (registry originals or pipeline clones), run the standalone
    baselines and the shared-L2 co-run, and fold both into per-tenant
    slowdown rows plus scenario-level weighted speedup and fairness.
    A standalone baseline is the tenant's own input alone on a
    one-tenant {!Scenario.co_run}, priced exactly like its co-run row,
    so a tenant that shares the machine with nobody has slowdown 1
    sampled or not.

    Everything is deterministic for fixed settings, and all memo stores
    are keyed structurally, so {!run} is bit-identical at every pool
    width and across repeated invocations. *)

type settings = {
  seed : int;  (** clone-generation and sampling seed *)
  profile_instrs : int;  (** profiling budget for clone tenants *)
  clone_dynamic : int;  (** clone target dynamic length *)
  budget : int;  (** per-tenant instruction budget *)
  sample : int option;
      (** [Some interval]: price tenants by SimPoint-style sampled
          co-run — each tenant walks its plan's representatives through
          the arbiter ({!Scenario.From_plan}) and is priced by
          {!Pc_sample.Sample.weighted_cpi} over the windows the co-run
          timed.  With sampling on, a tenant row's raw L2/memory
          counters cover only the replayed instructions. *)
}

val default_settings : settings
(** seed 1, 1M profile instructions, 100k clone target, 2M per-tenant
    budget, no sampling. *)

val quick_settings : settings
(** 300k profile instructions and a 500k budget, for tests and CI. *)

type tenant_row = {
  label : string;
  workload : string;
  kind : Spec.kind;
  instrs : int;  (** instructions the row's figures cover *)
  standalone_ipc : float;  (** alone on the same effective config *)
  corun_ipc : float;
  slowdown : float;  (** [standalone_ipc /. corun_ipc] *)
  l2_accesses : int;  (** per-tenant, even under the shared L2 *)
  l2_misses : int;
  mem_accesses : int;
}

type result = {
  spec : Spec.t;
  config_name : string;
  sampled : bool;
  tenants : tenant_row list;  (** in arbiter slot order *)
  weighted_speedup : float;
      (** [sum_i corun_ipc_i / standalone_ipc_i] — N for interference-free
          co-running *)
  fairness : float;
      (** Jain's index over the per-tenant speedups: 1 when everyone is
          slowed equally, [1/N] when one tenant monopolises *)
}

val run_spec : settings -> Spec.t -> result
(** Run one scenario.  Publishes the [scenario.*] metrics and a
    [scenario:<name>] instant event, inside a [scenario:run] span.
    Raises [Invalid_argument] for a tenant workload not in
    {!Pc_workloads.Registry}. *)

val run : ?pool:Pc_exec.Pool.t -> settings -> Spec.t list -> result list
(** Fan scenarios out through the pool (default serial); results are in
    input order and bit-identical at every pool width.  Standalone
    baselines, clone programs and sampling plans are memoized across
    scenarios, so a mix and its clone twin share baseline work. *)

val clear_caches : unit -> unit
(** Empty the runner's memo stores and the sampling-plan memo
    ({!Pc_sample.Plan_cache.clear_memo}); tests use this to compare cold
    serial and parallel runs. *)
