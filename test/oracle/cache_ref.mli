(** Reference LRU cache model — the differential-testing oracle for
    {!Pc_caches.Cache} and {!Pc_caches.Stack_dist}.

    This is {!Pc_caches.Cache}'s tag-array model before it learned to
    answer a repeat of its previous line without a set scan, retained
    verbatim: every access scans its set for the line and for the least
    recently used way, and advances the recency clock.  [test_caches]'
    [oracle] group checks that {!Pc_caches.Cache.access} returns this
    model's answer on every access, with the same counters after each
    step, and that {!Pc_caches.Stack_dist} reports its miss counts for
    every configuration of a mixed-line grid; [Mpi_oracle] prices its
    simulated grid with it.

    Test-only: it lives under [test/] and only the test suites link it. *)

type t

val create : Pc_caches.Cache.config -> t
(** A cold cache; build the configuration with {!Pc_caches.Cache.config}. *)

val access : t -> int -> bool
(** Same contract as {!Pc_caches.Cache.access}. *)

val accesses : t -> int
val misses : t -> int
