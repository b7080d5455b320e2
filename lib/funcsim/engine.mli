(** Pre-decoded threaded-dispatch functional simulator core.

    At {!load} the program is decoded exactly once into flat parallel
    tables: an int-coded opcode column (ALU sub-operations, branch
    conditions, resolved-vs-label control transfers and r0-destination
    no-ops all flattened into distinct codes), a packed operand word per
    static pc, immediate columns, and per-pc class / read-list /
    write-id / branch / store columns.  The hot loop is one dense
    integer match over the opcode column — compiled to a jump table with
    every arm inlined — so stepping never inspects an instruction
    variant, calls a function, allocates, or raises except to halt or
    fault.  The integer register file is an unboxed [int64] bigarray and
    memory accesses inline a one-entry page-cache fast path.

    Retired instructions are produced in fixed-size chunks of at most
    {!chunk_size}.  {!run_batched} hands each raw chunk to the consumer
    (cheapest; one callback per ~4096 instructions); {!run} and {!step}
    rebuild classic per-instruction {!event} records from the chunk rows
    and the static tables, which is what keeps the legacy [Machine]
    callback API — and every profiler built on it — byte-identical to
    the reference interpreter ([Machine_ref], under [test/oracle]).

    This module is wrapped by {!Machine}; use that from consumers. *)

type event = {
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

exception Fault of string

val chunk_size : int
(** Capacity of the chunk buffer (4096 retired instructions). *)

type batch = {
  mutable len : int;  (** valid rows, [0 < len <= chunk_size] *)
  b_pc : int array;  (** static pc per retired instruction *)
  b_addr : int array;
      (** effective byte address — meaningful only for rows whose
          static pc is a load or store (check {!statics}); other rows
          hold stale values from earlier chunks *)
  b_taken : bool array;
      (** conditional-branch outcome — meaningful only for rows whose
          static pc is a branch; other rows hold stale values *)
  mutable b_end_pc : int;
      (** the machine's pc after the last row: row [j]'s next dynamic
          pc is [b_pc.(j + 1)], or [b_end_pc] for the final row (after
          a fault flush this is the faulting instruction's pc) *)
}
(** One chunk of retired instructions.  Together with {!statics} a row
    reconstructs the full retired event; the hot loop stores only what
    each instruction actually produces, so non-memory rows do not blank
    [b_addr] and next-pc values are derived rather than stored.  The
    buffer is owned by the machine and reused for every chunk:
    consumers must copy anything they retain past the callback. *)

type statics = {
  s_classes : Pc_isa.Instr.iclass array;
  s_read_lists : int list array;
  s_write_ids : int array;
}

type t

val load : Pc_isa.Program.t -> t
val step : t -> (event -> unit) -> bool
val run : ?max_instrs:int -> t -> (event -> unit) -> int

val run_batched : ?max_instrs:int -> t -> (batch -> unit) -> int
(** Like {!run} but delivers retired instructions in chunks of at most
    {!chunk_size} rows, amortising the callback over ~4096 retirements.
    The final chunk is partial when the program halts or the budget runs
    out mid-chunk; on a fault, rows retired before the faulting
    instruction are flushed to the consumer before the exception
    propagates.  Publishes the same per-run metrics as {!run}. *)

val statics : t -> statics
val halted : t -> bool
val instruction_count : t -> int
val retired_by_class : t -> int array
val ireg : t -> Pc_isa.Reg.t -> int64
val freg : t -> Pc_isa.Reg.t -> float
val memory : t -> Memory.t

val decoded : t -> int -> int * int * int * int * int
(** [(opcode, dst, src_a, src_b, imm)] row of the decode table at a
    static pc (register/operand columns are [-1] when absent).  For
    tests and debugging. *)
