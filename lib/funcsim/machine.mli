(** Functional (architectural) simulator for SRISC.

    Plays the role SimpleScalar's [sim-safe] plays in the paper: it
    executes a program instruction by instruction and exposes the retired
    instruction stream to consumers (the workload profiler, the cache
    study, the sampler, the trace-driven timing model).

    At {!load} the program is decoded exactly once into flat per-static-pc
    tables: an int-coded opcode column (ALU sub-operations, branch
    conditions, resolved-vs-label control transfers and r0-destination
    no-ops all flattened into distinct codes), a packed operand word,
    immediate columns and class / read-list / write-id columns.  The hot
    loop is one dense integer match over the opcode column, so stepping
    never inspects an instruction variant, calls a function, allocates,
    or raises except to halt or fault.

    The retired stream has one delivery form: {!run_batched} hands the
    consumer chunks of at most {!batch_capacity} rows holding the dynamic
    [(pc, address, taken)] columns, and {!statics} holds everything that
    is constant per static pc.  {!run_data_refs} is the same pass reduced
    to the data-reference addresses.  {!run} rebuilds per-instruction
    {!event} records from the rows; it remains for the benchmark's layer
    probes and for the differential test, which holds it, the rows and
    the retained reference interpreter ([Machine_ref], under
    [test/oracle]) equal instruction by instruction. *)

type event = {
  mutable pc : int;  (** static instruction index *)
  mutable iclass : Pc_isa.Instr.iclass;
  mutable mem_addr : int;  (** effective byte address, or [-1] *)
  mutable is_store : bool;
  mutable is_branch : bool;  (** conditional branch *)
  mutable taken : bool;  (** meaningful when [is_branch] *)
  mutable next_pc : int;  (** pc of the next dynamic instruction *)
  mutable reads : int list;  (** shared register ids read *)
  mutable writes : int;  (** shared register id written, or [-1] *)
}
(** One retired instruction as {!run} delivers it.  The record is a
    single mutable buffer reused on every instruction: consumers must
    copy any field they retain past the callback. *)

type t

val load : Pc_isa.Program.t -> t
(** Fresh machine with the program's data segment loaded, [pc = 0],
    [sp = stack_base] and all registers zero.  Decoding happens here,
    once: the per-step path never inspects an {!Pc_isa.Instr.t} again. *)

val run : ?max_instrs:int -> t -> (event -> unit) -> int
(** [run ?max_instrs t f] runs until [Halt] or the instruction budget is
    exhausted, calling [f] on every retired instruction; returns the
    number of retired instructions.  The default budget is 50 million (a
    runaway-program backstop).  Machines resume across calls.

    On completion the run's aggregates are published into the global
    {!Pc_obs.Metrics} registry: [funcsim.runs], [funcsim.retired.total],
    per-class [funcsim.retired.<class>] counters and the
    [funcsim.mem.pages_touched] high-water gauge.  [funcsim.runs] counts
    machines, not calls: it grows by one on a machine's first [run],
    {!run_batched} or {!run_data_refs} call and not when a later call
    resumes it. *)

type batch = {
  mutable len : int;  (** valid rows, [0 < len <= batch_capacity] *)
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
(** One chunk of retired instructions: the dynamic [(pc, mem_addr,
    taken)] columns; everything else about a retired instruction is a
    per-static-pc constant available from {!statics}, and next-pc values
    are derived from [b_pc]/[b_end_pc] rather than stored.  The hot loop
    stores only what each instruction actually produces, so rows whose
    static is not a memory operation or branch leave [b_addr]/[b_taken]
    untouched.  The buffer is owned by the machine and reused for every
    chunk — consumers must copy anything they retain past the
    callback. *)

val batch_capacity : int
(** Chunk size of {!run_batched} (4096 retired instructions). *)

val run_batched : ?max_instrs:int -> t -> (batch -> unit) -> int
(** Like {!run} but delivers the retired stream in chunks of at most
    {!batch_capacity} rows, amortising the consumer callback over ~4096
    retirements.  The final chunk is partial when the program halts or
    the budget runs out mid-chunk; on a fault, rows retired before the
    faulting instruction are flushed before the exception propagates.
    Publishes the same per-run metrics as {!run}. *)

val run_data_refs : ?max_instrs:int -> t -> (int -> unit) -> int
(** [run_data_refs ?max_instrs t emit] is {!run_batched} reduced to the
    data references: [emit addr] for every retired load and store, in
    retire order.  Returns the number of retired instructions, which is
    the shape {!Pc_caches.Study.run_trace}'s feed takes. *)

type statics = {
  s_classes : Pc_isa.Instr.iclass array;  (** class per static pc *)
  s_read_lists : int list array;  (** register ids read per static pc *)
  s_write_ids : int array;  (** register id written per static pc, or [-1] *)
}

val statics : t -> statics
(** Per-static-instruction metadata (fresh copies, indexed by [pc]).
    With a {!batch} row it rebuilds the retired instruction: a row's
    static is a memory operation when its class is [C_load] or
    [C_store], and a branch when it is [C_branch].  This is also what
    lets sampled simulation record compact replay traces. *)

val halted : t -> bool
val instruction_count : t -> int

val retired_by_class : t -> int array
(** Dynamic instructions retired per {!Pc_isa.Instr.class_index}, over
    the machine's whole lifetime (a fresh copy). *)

val ireg : t -> Pc_isa.Reg.t -> int64
(** Architected integer register value (for result checking in tests). *)

val freg : t -> Pc_isa.Reg.t -> float

val memory : t -> Memory.t

exception Fault of string
(** Raised on execution faults: pc out of range, an unresolved label, or
    a misaligned or negative memory access. *)
