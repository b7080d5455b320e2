(** Reference functional simulator — the differential-testing oracle.

    This is the pre-rewrite interpreter, retained verbatim: it decodes
    nothing ahead of time and executes one variant match per step, so
    its behaviour is easy to audit against the ISA definition.  The
    differential suite ([test/test_funcsim_diff.ml]) checks that the
    pre-decoded engine behind {!Pc_funcsim.Machine} produces exactly this
    interpreter's retired-event stream — field by field, instruction by
    instruction, fault for fault — on qcheck-generated random programs
    and on every registered workload.

    Test-only: it lives under [test/], publishes no {!Pc_obs.Metrics},
    and only the test suites and the dispatch timing executable link it
    (it is several times slower than {!Pc_funcsim.Machine}).  Events
    and faults are shared with {!Pc_funcsim.Machine} — [Machine.event]
    records, [Machine.Fault] exceptions — so oracle and engine streams
    compare structurally. *)

open Pc_funcsim

type event = Machine.event = {
  mutable pc : int;
  mutable iclass : Pc_isa.Instr.iclass;
  mutable mem_addr : int;
  mutable is_store : bool;
  mutable is_branch : bool;
  mutable taken : bool;
  mutable next_pc : int;
  mutable reads : int list;
  mutable writes : int;
}

type t

val load : Pc_isa.Program.t -> t
(** Fresh oracle machine; same initial state as {!Machine.load}. *)

val step : t -> (event -> unit) -> bool
(** One instruction; raises {!Machine.Fault} exactly where the engine
    must. *)

val run : ?max_instrs:int -> t -> (event -> unit) -> int
(** Like {!Machine.run} but publishes no metrics (the oracle must not
    perturb gated counters when it runs beside the engine in tests). *)

type statics = Machine.statics = {
  s_classes : Pc_isa.Instr.iclass array;
  s_read_lists : int list array;
  s_write_ids : int array;
}

val statics : t -> statics
val halted : t -> bool
val instruction_count : t -> int
val retired_by_class : t -> int array
val ireg : t -> Pc_isa.Reg.t -> int64
val freg : t -> Pc_isa.Reg.t -> float
val memory : t -> Memory.t
