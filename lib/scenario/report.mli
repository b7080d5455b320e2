(** [pc-scenario/1] emission and the console table.

    The artefact:

    [{"schema": "pc-scenario/1", "seed": .., "budget": .., "sample":
    null | interval, "scenarios": [{"name": .., "config": ..,
    "policy": .., "quantum": .., "sampled": bool, "weighted_speedup":
    .., "fairness": .., "tenants": [{"label": .., "workload": ..,
    "kind": "original" | "clone", "instrs": .., "standalone_ipc": ..,
    "corun_ipc": .., "slowdown": .., "l2_accesses": ..,
    "l2_misses": .., "mem_accesses": ..}]}]}]

    Scenarios appear in run order and tenants in arbiter slot order, and
    every float is formatted with [%.6f] (non-finite values become
    [null]), so the document is byte-identical across [-j] widths and
    across runs — the property CI and the test suite rely on.  CI gates
    the co-run numbers with the [pc-bounds/1] document
    [baselines/scenario.json] ([Pc_report.Bounds]). *)

val json : settings:Runner.settings -> Runner.result list -> string
val write_json : string -> settings:Runner.settings -> Runner.result list -> unit
(** {!json} plus a trailing newline. *)

val pp : Format.formatter -> Runner.result list -> unit
