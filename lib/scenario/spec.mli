(** Scenario specifications: which workloads (or their clones) share the
    machine, how the arbiter interleaves them, and an optional shared-L2
    geometry override.

    A spec is purely symbolic — workload names, not compiled programs —
    so it can come from the preset table ({!Presets}) or from a
    [pc-scenario-config/1] JSON file, and the runner resolves names
    against {!Pc_workloads.Registry} / the cloning pipeline. *)

type kind =
  | Original  (** the registry benchmark itself *)
  | Clone  (** its synthetic clone from the cloning pipeline *)

val kind_name : kind -> string

type tenant = { workload : string; kind : kind; count : int }

type policy =
  | Round_robin  (** equal quanta in fixed slot order *)
  | Priority of int list
      (** per-slot weights (one per expanded slot, in order); slot [i]
          receives [w_i] quanta per arbiter round *)

val policy_name : policy -> string

type t = {
  name : string;
  tenants : tenant list;
  policy : policy;
  quantum : int;  (** arbiter quantum in instructions *)
  shared_l2 : Pc_caches.Cache.config option;
      (** replaces the base config's L2 geometry on both the I- and the
          D-side when set; the standalone baselines use the same
          effective config, so slowdowns always measure co-run
          interference, never a geometry change *)
  l1d : Pc_caches.Cache.config option;
      (** replaces the base config's L1 D-cache geometry when set.  The
          interference presets shrink the L1-D so data traffic actually
          reaches the shared L2 — the embedded kernels otherwise fit
          their working sets in the base 16 KB L1 and nothing contends.
          Applied to the baselines too, like [shared_l2]. *)
}

val tenant : ?kind:kind -> ?count:int -> string -> tenant
(** [kind] defaults to [Original]; [count] (default 1) must be
    positive. *)

val v :
  ?policy:policy ->
  ?quantum:int ->
  ?shared_l2:Pc_caches.Cache.config ->
  ?l1d:Pc_caches.Cache.config ->
  name:string ->
  tenant list ->
  t
(** Validating constructor.  Raises [Invalid_argument] for an empty
    tenant list, a non-positive quantum, or a [Priority] weight list
    whose length differs from the expanded slot count. *)

val n_tenants : t -> int
(** Expanded slot count (sum of tenant [count]s). *)

val slots : t -> (string * string * kind) array
(** The expanded per-slot view, in arbiter order: [(label, workload,
    kind)].  Labels are the workload name, [:clone]-suffixed for
    clones, and [#i]-suffixed when the same (workload, kind) occupies
    several slots — unique within the scenario and fully determined by
    the spec. *)

val weights : t -> int array
(** Per-slot arbiter weights: all 1 for [Round_robin], the given list
    for [Priority]. *)

val effective_config : t -> Pc_uarch.Config.t -> Pc_uarch.Config.t
(** The base timing configuration with the spec's [shared_l2] override
    applied to both cache sides (and the config name suffixed); the
    identity when there is no override. *)

(** {1 pc-scenario-config/1}

    [{"schema": "pc-scenario-config/1", "scenarios": [{"name": ...,
    "tenants": [{"workload": "crc32", "kind": "original", "count": 1},
    ...], "policy": "round-robin" | {"priority": [3, 1]},
    "quantum": 4096, "l2": {"size_bytes": ..., "assoc": ...,
    "line_bytes": ...}, "l1d": {...}}]}] — [kind], [count], [policy],
    [quantum], [l2] and [l1d] are optional. *)

val of_json : Pc_util.Json.t -> (t list, string) result
val load_file : string -> (t list, string) result
