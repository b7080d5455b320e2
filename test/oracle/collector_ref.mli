(** Reference workload profiler — the differential-testing oracle for
    {!Pc_profile.Collector}.

    This is the profiler before its per-instruction body moved onto
    per-pc tables, retained verbatim: each retired instruction conses
    its [(pc, class)] pair and dependency buckets onto the block under
    construction, and every memory op and branch looks its accumulator
    up in a hashtable keyed by pc, so the rules are easy to audit one
    instruction at a time.  [test_profile]'s [oracle] group, and the
    random-program properties in [test_funcsim_diff] and
    [test_kc_random], check that {!Pc_profile.Collector.profile}
    returns the profile this one does: the same {!Pc_profile.Profile.save}
    bytes and the same [Marshal] bytes.

    Test-only: it lives under [test/] and only the test suites link it
    (it allocates about 27 minor words per profiled instruction). *)

val profile : ?start:int -> ?max_instrs:int -> Pc_isa.Program.t -> Pc_profile.Profile.t
(** Same contract as {!Pc_profile.Collector.profile}. *)

val mismatch : ?start:int -> ?max_instrs:int -> Pc_isa.Program.t -> string option
(** [mismatch ?start ?max_instrs program] profiles [program] with both
    collectors and returns [None] when they agree: both return profiles
    with the same {!Pc_profile.Profile.save} bytes and the same
    [Marshal.to_string] bytes (the tune store's key), or both raise
    {!Pc_funcsim.Machine.Fault} with the same message.  Otherwise it
    says how they differ. *)
