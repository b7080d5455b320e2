(** Portable clone generation — the paper's Section 6 extension.

    The baseline generator ({!Synth}) emits ISA-specific code, so "a
    separate benchmark clone would have to be synthesized for all target
    embedded architectures of interest"; the paper proposes generating
    the clone in "a virtual instruction set architecture that can then be
    consumed by compilers for different ISAs".  Here the virtual ISA is
    Kc source: [generate] builds the clone as a Kc program, which any Kc
    back end can compile (this repository has one, for SRISC — the test
    suite compiles the portable clone and checks it still tracks the
    original's behaviour).

    The mapping from profile to Kc:
    - each stream becomes a global array of its footprint, with an index
      variable advanced by the stride each outer-loop iteration and
      wrapped by an [if];
    - synthetic basic blocks become straight-line statement sequences
      ending in an [if] with empty branches — the compiled code is a
      conditional branch whose direction follows the profiled taken and
      transition rates while both paths converge, exactly like the
      ISA-level clone;
    - the instruction mix maps to Kc expression operators over rotating
      scalar locals (integer and float pools);
    - dependency distances are approximated by the pool rotation (the
      price of portability: the compiler's register allocation, not the
      generator, has the final word — the paper's compiler-dependence
      caveat). *)

val generate :
  ?seed:int -> ?target_dynamic:int -> Pc_profile.Profile.t -> Pc_kc.Ast.prog
(** Build the portable clone.  Defaults mirror {!Synth.default_options}. *)

val generate_compiled :
  ?seed:int -> ?target_dynamic:int -> Pc_profile.Profile.t -> Pc_isa.Program.t
(** [generate] followed by the Kc compiler — the "one back end"
    instantiation of the virtual-ISA route. *)
