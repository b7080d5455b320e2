(** Where sampling plans come from: one in-process memo in front of a
    persistent on-disk cache.

    Building a {!Sample.plan} costs two functional profiling passes plus
    k-means clustering — work that is identical for the same program
    and sampling parameters.  {!plan} memoizes plans per process, so
    every estimator and co-run that samples a program shares one plan,
    and with a directory it also persists them under a
    content-addressed file name, so repeated [run_experiments --sample]
    invocations skip plan construction entirely.

    It is a {!Pc_exec.Disk_store} instance: [pc-plan/2] entries in
    [.plan] files, by default under [$XDG_CACHE_HOME/pc-sample], at most
    256 of them.  Keys digest the format version with every sampling
    parameter, so stale or cross-version plans are never reused; writes
    are atomic; and a damaged entry fails its payload digest and is
    dropped, logged and recomputed — a damaged cache can slow an
    invocation down but never change its output.

    Metrics published via {!Pc_obs.Metrics}: [plan_cache.hits],
    [plan_cache.misses] and [plan_cache.evictions] counters for the
    disk cache, and [exec.store.sample.plan.hits]/[.misses] for the
    memo. *)

include Pc_exec.Disk_store.S with type value := Sample.plan

val key : profile_id:string -> interval:int -> seed:int -> string
(** Content key for a plan: a hex digest over (format version,
    [profile_id], [interval], [seed], {!Sample.bbv_dims},
    {!Sample.max_k}, {!Sample.restarts}).  [profile_id] should identify
    the profiled program and budget — e.g. a structural digest of
    (program, max_instrs). *)

val structural : 'a -> string
(** The hex MD5 of a value's [Marshal] bytes: every in-process memo key. *)

val program_digest : Pc_isa.Program.t -> string
(** [structural program], computed at most once per program value (held
    weakly): memo keys name a program by it.  Safe to call from any
    {!Pc_exec.Pool} worker. *)

val plan :
  ?dir:string ->
  seed:int ->
  interval:int ->
  max_instrs:int ->
  Pc_isa.Program.t ->
  Sample.plan
(** [plan ?dir ~seed ~interval ~max_instrs program] is
    [Sample.plan ~seed ~interval ~max_instrs program], memoized per
    process under {!structural} of ({!program_digest} program,
    [max_instrs], [interval], [seed]).  On a memo miss with [dir]
    given, the disk cache in [dir] is asked next, under {!key} with
    [structural (program, max_instrs)] as [profile_id], and a plan built
    there is stored for later invocations.  Safe to call from any
    {!Pc_exec.Pool} worker. *)

val clear_memo : unit -> unit
(** Empty the in-process memo (not the disk cache), so the next {!plan}
    call for any key is cold. *)
