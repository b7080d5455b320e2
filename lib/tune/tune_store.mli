(** On-disk content-addressed memo store for tuning evaluations.

    One candidate evaluation — generate the clone for a knob vector,
    re-profile or re-simulate it, score it — costs orders of magnitude
    more than a disk read, and search revisits knob vectors constantly
    (across generations, reruns, and CI's cold/warm jobs).

    It is a {!Pc_exec.Disk_store} instance, like
    {!Pc_sample.Plan_cache}: [pc-tune-eval/2] entries in [.eval] files,
    by default under [$XDG_CACHE_HOME/pc-tune], at most 512 of them.
    Entries are keyed by a digest of the format version and every input
    that determines the score (profile digest, knob vector, generation
    seed, budgets, fitness-mode digest), so a hit can never serve a
    stale or foreign score; a damaged entry fails its payload digest
    and is dropped, logged and recomputed, never fatal.  Writes are
    atomic, so concurrent pool workers either see a complete entry or a
    miss.

    Instrumented with the [tune.store.hits] / [tune.store.misses] /
    [tune.store.evictions] counters. *)

include Pc_exec.Disk_store.S with type value := Fitness.eval

val key :
  profile_id:string ->
  knobs_id:string ->
  mode_id:string ->
  seed:int ->
  profile_instrs:int ->
  target_dynamic:int ->
  unit ->
  string
(** The content-addressed entry key: a digest over the format version
    and every argument.  [profile_id] and [knobs_id] are digests of the
    profile and knob vector; [mode_id] is {!Fitness.mode_id} (which
    covers the stress envelope or mimic weights, and the phase interval
    when per-phase scoring is on). *)
