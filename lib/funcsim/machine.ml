(* Thin shim over the pre-decoded threaded engine ({!Engine}).  The
   historical [Machine] surface — event records, [step]/[run], statics —
   is preserved verbatim so every consumer (profiler, cache studies,
   sampled replay, timing model) compiles unchanged and produces
   byte-identical output; [run_batched] additionally exposes the
   engine's chunked delivery for consumers that want to amortise the
   per-instruction callback.  The pre-rewrite interpreter survives as
   [Machine_ref] under test/oracle, the differential-testing oracle. *)

type event = Engine.event = {
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

exception Fault = Engine.Fault

type t = Engine.t

type batch = Engine.batch = {
  mutable len : int;
  b_pc : int array;
  b_addr : int array;
  b_taken : bool array;
  mutable b_end_pc : int;
}

type statics = Engine.statics = {
  s_classes : Pc_isa.Instr.iclass array;
  s_read_lists : int list array;
  s_write_ids : int array;
}

let batch_capacity = Engine.chunk_size
let load = Engine.load
let step = Engine.step
let run = Engine.run
let run_batched = Engine.run_batched
let statics = Engine.statics
let halted = Engine.halted
let instruction_count = Engine.instruction_count
let retired_by_class = Engine.retired_by_class
let ireg = Engine.ireg
let freg = Engine.freg
let memory = Engine.memory
