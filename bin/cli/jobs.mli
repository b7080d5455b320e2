(** [-j]/[--jobs N]: the worker-domain count, a positive integer
    defaulting to {!Pc_exec.Pool.default_jobs} ([PC_JOBS] when set,
    otherwise the number of cores).  Its own module because it links
    the worker pool, whose metrics a tool without [-j] must not report
    (see {!Common}). *)

val jobs : int Cmdliner.Term.t
