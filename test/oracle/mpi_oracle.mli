(** The sampled cache-study projection the slow way, the oracle for
    {!Pc_sample.Sample.project_mpi}'s single walk. *)

val project_mpi : ?onepass:bool -> Pc_sample.Sample.plan -> float array
(** Two fresh grids per representative, each warmed by a prefix whose
    misses it snapshots and subtracts: the cold bound measures the
    window after the warmup prefix, the warm bound measures it again
    after the prefix and one pass of the window.  Each configuration's
    projection is the population-weighted midpoint of the two over the
    plan's instructions.  [onepass] prices both grids with
    {!Pc_caches.Stack_dist} instead of 28 {!Cache_ref} caches. *)
