(** Persistent on-disk cache for sampling plans.

    Building a {!Sample.plan} costs two functional profiling passes plus
    k-means clustering — work that is identical across invocations for
    the same program and sampling parameters.  This cache persists
    plans under a content-addressed file name so repeated
    [run_experiments --sample] invocations skip plan construction
    entirely.

    It is a {!Pc_exec.Disk_store} instance: [pc-plan/2] entries in
    [.plan] files, by default under [$XDG_CACHE_HOME/pc-sample], at most
    256 of them.  Keys digest the format version with every sampling
    parameter, so stale or cross-version plans are never reused; writes
    are atomic; and a damaged entry fails its payload digest and is
    dropped, logged and recomputed — a damaged cache can slow an
    invocation down but never change its output.

    Metrics published via {!Pc_obs.Metrics}: [plan_cache.hits],
    [plan_cache.misses] and [plan_cache.evictions] counters. *)

include Pc_exec.Disk_store.S with type value := Sample.plan

val key : profile_id:string -> interval:int -> seed:int -> string
(** Content key for a plan: a hex digest over (format version,
    [profile_id], [interval], [seed], {!Sample.bbv_dims},
    {!Sample.max_k}, {!Sample.restarts}).  [profile_id] should identify
    the profiled program and budget — e.g. a structural digest of
    (program, max_instrs). *)
