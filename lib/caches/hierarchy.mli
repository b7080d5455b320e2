(** Memory hierarchy: an L1 cache, an optional L2, and main memory, with
    per-level access latencies.

    The timing model instantiates one hierarchy for the instruction side
    and one for the data side.  The paper's "64 KB unified L2" is modelled
    as a private L2 behind each L1 (the experiments never vary the L2, so
    I/D interference in it is irrelevant to every reported trend).

    Multi-tenant scenarios ({!Pc_scenario}) instead build hierarchies
    with {!create_shared}: several tenants' L1s drain into one shared
    {!Cache.t} L2 instance, with a per-tenant address [tag] keeping
    distinct tenants' lines distinct so they contend for L2 capacity
    exactly like co-scheduled programs on a chip.  All L2 statistics are
    tracked per hierarchy (not read back from the cache instance), so
    per-tenant L2 access/miss counts stay correct under sharing. *)

type config = {
  l1 : Cache.config;
  l1_latency : int;  (** cycles for an L1 hit *)
  l2 : Cache.config option;
  l2_latency : int;  (** additional cycles for an L2 hit *)
  mem_latency : int;  (** additional cycles for main memory *)
}

type t

val create : config -> t

val create_shared : ?tag:int -> l2:Cache.t option -> config -> t
(** A hierarchy whose L2 is the given, possibly shared, cache instance
    instead of a freshly created private one.  [tag] (default 0, must
    be non-negative) is OR-ed into every address before any cache sees
    it: give each tenant a tag above its address-space width (tenant
    [i lsl 26] in {!Pc_scenario}) and tenants' lines stay distinct in
    the shared L2 while the private L1's behaviour is unchanged (a
    constant high-bit tag moves neither set index nor hit/miss
    pattern).  With [tag = 0] and a fresh [l2] built from the same
    config, behaviour is bit-identical to {!create}.  Raises
    [Invalid_argument] when the L2's presence disagrees with
    [config.l2] or [tag] is negative. *)

val access : t -> int -> int
(** [access t addr] simulates the access through the hierarchy and
    returns its total latency in cycles. *)

val l1_accesses : t -> int
val l1_misses : t -> int
val l2_accesses : t -> int
(** L1 misses this hierarchy sent to its L2 (zero when there is no L2).
    Tracked per hierarchy, so the count stays per-tenant even when the
    L2 instance is shared. *)

val l2_misses : t -> int

val mem_accesses : t -> int
(** Accesses that reached main memory. *)
