open Pc_isa
module A1 = Bigarray.Array1

type event = {
  mutable pc : int;
  mutable iclass : Instr.iclass;
  mutable mem_addr : int;
  mutable is_store : bool;
  mutable is_branch : bool;
  mutable taken : bool;
  mutable next_pc : int;
  mutable reads : int list;
  mutable writes : int;
}

exception Fault of string

(* Internal: raised by the Halt arm to leave the dispatch loop without
   testing a halt flag on every iteration (the inner loop condition
   stays a single register compare). *)
exception Chunk_done

let batch_capacity = 4096

(* Structure-of-arrays chunk of retired instructions.  [b_addr.(j)] is
   meaningful only when row [j]'s static is a memory operation and
   [b_taken.(j)] only when it is a branch (per {!statics}); other rows
   hold stale values from earlier chunks — the hot loop does not blank
   them, because the memset traffic costs more than the instructions
   themselves.  [b_end_pc] is the machine's pc after the last row, so
   row [j]'s next pc is [b_pc.(j + 1)] (or [b_end_pc] for the final
   row). *)
type batch = {
  mutable len : int;
  b_pc : int array;
  b_addr : int array;
  b_taken : bool array;
  mutable b_end_pc : int;
}

type statics = {
  s_classes : Instr.iclass array;
  s_read_lists : int list array;
  s_write_ids : int array;
}

(* The integer register file is an unboxed int64 bigarray: the dispatch
   loop reads and writes it with [A1.unsafe_get]/[unsafe_set], which
   the compiler keeps unboxed end to end, so an ALU step allocates
   nothing.  (The reference interpreter keeps the boxed [int64 array]
   representation — that per-result box is part of the seed engine's
   cost the rewrite removes.)  r0 stays zero because every write is
   compiled out at decode time or guarded. *)
type regfile = (int64, Bigarray.int64_elt, Bigarray.c_layout) A1.t

(* Flat decode tables: one row per static pc, filled once at [load].
   [opcodes] holds the fully flattened operation code (see {!op_code}:
   ALU sub-operations, branch conditions, resolved-vs-label control
   transfers and r0-destination no-ops all get distinct codes), the
   operand columns hold register numbers (or -1) and the
   immediate/offset/target as an int, and [imm64]/[fimm] carry the
   full-width [Li]/[Fli] constants the int column cannot.  The hot loop
   in {!fill_chunk} is a dense integer match over [opcodes] — a jump
   table with every arm inlined — so stepping never inspects an
   {!Instr.t} variant, calls a function or allocates. *)
type t = {
  program : Program.t;
  code_len : int;
  opcodes : int array;
  code_tbl : int array;
      (* dst lor (a lsl 8) lor (b lsl 16), each register field masked
         to a byte: the hot loop reads one packed operand word per step
         and extracts register numbers with shifts instead of three
         more loads.  Unused fields hold 0xff (-1 masked) and are never
         extracted. *)
  op_imm : int array;
  imm64 : regfile;  (* Li constants, full 64-bit *)
  fimm : float array;  (* Fli constants *)
  classes : Instr.iclass array;
  class_idx : int array;
  read_lists : int list array;
  write_ids : int array;
  branch_flags : bool array;
  store_flags : bool array;
  mem_flags : bool array;  (* loads and stores, int or float *)
  iregs : regfile;
  fregs : float array;
  mem : Memory.t;
  buf : batch;  (* chunk buffer shared by every run mode, reused *)
  mutable pc : int;
  mutable halted : bool;
  mutable icount : int;
  mutable counted : bool;  (* this machine's run is in [funcsim.runs] *)
  cls_counts : int array;  (* retired instructions per iclass *)
  event : event;
}

let alu_code = function
  | Instr.Add -> 0
  | Instr.Sub -> 1
  | Instr.And -> 2
  | Instr.Or -> 3
  | Instr.Xor -> 4
  | Instr.Sll -> 5
  | Instr.Srl -> 6
  | Instr.Sra -> 7
  | Instr.Cmp_eq -> 8
  | Instr.Cmp_lt -> 9
  | Instr.Cmp_le -> 10

let cond_code = function
  | Instr.Eq_z -> 0
  | Instr.Ne_z -> 1
  | Instr.Lt_z -> 2
  | Instr.Ge_z -> 3
  | Instr.Gt_z -> 4
  | Instr.Le_z -> 5

(* Dense class indices ({!Instr.class_index}), named so the dispatch
   arms can bump their class's retire counter with a constant index.
   Int-ALU retirements are not counted in the arms at all — the chunk
   epilogue derives them as [len] minus the other classes' delta, so
   the most common instructions pay nothing for class accounting. *)
let ci_int_alu = Instr.class_index Instr.C_int_alu
let ci_int_mul = Instr.class_index Instr.C_int_mul
let ci_int_div = Instr.class_index Instr.C_int_div
let ci_fp_alu = Instr.class_index Instr.C_fp_alu
let ci_fp_mul = Instr.class_index Instr.C_fp_mul
let ci_fp_div = Instr.class_index Instr.C_fp_div
let ci_load = Instr.class_index Instr.C_load
let ci_store = Instr.class_index Instr.C_store
let ci_branch = Instr.class_index Instr.C_branch
let ci_jump = Instr.class_index Instr.C_jump
let ci_other = Instr.class_index Instr.C_other

(* Opcode for a no-op: an instruction whose only architectural effect
   would be a write to r0, which is discarded. *)
let op_nop = 59

(* Sentinel opcode stored one past the end of the (padded) decode
   tables: falling off the end of the program dispatches it and raises
   the out-of-range fault, so the hot loop never range-checks the
   sequential pc.  Computed control transfers check their target in
   the (cold) taken path instead. *)
let op_oob = 60

(* Fully flattened operation code.  Writes to r0 are compiled to
   [op_nop] here when the write is the instruction's only effect
   (loads keep their memory semantics — page touches and faults are
   observable — and only drop the register write). *)
let op_code : Instr.t -> int = function
  | Instr.Alu (op, d, _, _) -> if d = Reg.zero then op_nop else alu_code op
  | Instr.Alui (op, d, _, _) ->
    if d = Reg.zero then op_nop else 11 + alu_code op
  | Instr.Li (d, _) -> if d = Reg.zero then op_nop else 22
  | Instr.Mul (d, _, _) -> if d = Reg.zero then op_nop else 23
  | Instr.Div (d, _, _) -> if d = Reg.zero then op_nop else 24
  | Instr.Rem (d, _, _) -> if d = Reg.zero then op_nop else 25
  | Instr.Falu (Instr.Fadd, _, _, _) -> 26
  | Instr.Falu (Instr.Fsub, _, _, _) -> 27
  | Instr.Fmul _ -> 28
  | Instr.Fdiv _ -> 29
  | Instr.Fli _ -> 30
  | Instr.Fmov _ -> 31
  | Instr.Fcmp (op, d, _, _) ->
    if d = Reg.zero then op_nop
    else (
      match op with
      | Instr.Fcmp_eq -> 32
      | Instr.Fcmp_lt -> 33
      | Instr.Fcmp_le -> 34)
  | Instr.Itof _ -> 35
  | Instr.Ftoi (d, _) -> if d = Reg.zero then op_nop else 36
  | Instr.Load _ -> 37
  | Instr.Store _ -> 38
  | Instr.Fload _ -> 39
  | Instr.Fstore _ -> 40
  | Instr.Br (c, _, Instr.Abs _) -> 41 + cond_code c
  | Instr.Br (c, _, Instr.Label _) -> 47 + cond_code c
  | Instr.Jmp (Instr.Abs _) -> 53
  | Instr.Jmp (Instr.Label _) -> 54
  | Instr.Jr _ -> 55
  | Instr.Call (Instr.Abs _) -> 56
  | Instr.Call (Instr.Label _) -> 57
  | Instr.Halt -> 58

(* Operand columns of the decode table (registers and immediates only;
   for stores [op_a] is the value register and [op_b] the base). *)
let operands : Instr.t -> int * int * int * int = function
  | Instr.Alu (_, d, a, b) -> (d, a, b, 0)
  | Instr.Alui (_, d, a, imm) -> (d, a, -1, imm)
  | Instr.Li (d, v) -> (d, -1, -1, Int64.to_int v)
  | Instr.Mul (d, a, b) | Instr.Div (d, a, b) | Instr.Rem (d, a, b) ->
    (d, a, b, 0)
  | Instr.Falu (_, d, a, b) | Instr.Fmul (d, a, b) | Instr.Fdiv (d, a, b)
  | Instr.Fcmp (_, d, a, b) ->
    (d, a, b, 0)
  | Instr.Fli (d, _) -> (d, -1, -1, 0)
  | Instr.Fmov (d, a) | Instr.Itof (d, a) | Instr.Ftoi (d, a) -> (d, a, -1, 0)
  | Instr.Load (d, a, off) | Instr.Fload (d, a, off) -> (d, a, -1, off)
  | Instr.Store (s, a, off) | Instr.Fstore (s, a, off) -> (-1, s, a, off)
  | Instr.Br (_, r, Instr.Abs i) -> (-1, r, -1, i)
  | Instr.Br (_, r, Instr.Label _) -> (-1, r, -1, -1)
  | Instr.Jmp (Instr.Abs i) | Instr.Call (Instr.Abs i) -> (-1, -1, -1, i)
  | Instr.Jmp (Instr.Label _) | Instr.Call (Instr.Label _) -> (-1, -1, -1, -1)
  | Instr.Jr r -> (-1, r, -1, 0)
  | Instr.Halt -> (-1, -1, -1, 0)

let unresolved l = Fault (Printf.sprintf "unresolved label %S" l)

(* Cold path: fetch the label text for the unresolved-target fault from
   the original instruction (the int tables cannot carry it). *)
let label_fault t pc =
  match t.program.Program.code.(pc) with
  | Instr.Br (_, _, Instr.Label l)
  | Instr.Jmp (Instr.Label l)
  | Instr.Call (Instr.Label l) ->
    raise (unresolved l)
  | _ -> assert false

(* Same messages, in the same order of checks, as {!Memory.check} —
   which the reference interpreter reaches through [Invalid_argument]
   and rewraps; here the check is inlined on the fast path. *)
let mem_fault addr =
  if addr < 0 then Fault "Memory: negative address"
  else Fault (Printf.sprintf "Memory: unaligned access at %#x" addr)

let word_mask = Memory.words_per_page - 1

let load program =
  let code = program.Program.code in
  let n = Array.length code in
  let mem = Memory.create () in
  Memory.load_words mem program.Program.data;
  let iregs = A1.create Bigarray.Int64 Bigarray.C_layout Reg.count in
  A1.fill iregs 0L;
  A1.set iregs Reg.sp (Int64.of_int Program.stack_base);
  let imm64 = A1.create Bigarray.Int64 Bigarray.C_layout (max n 1) in
  A1.fill imm64 0L;
  Array.iteri
    (fun pc instr ->
      match instr with Instr.Li (_, v) -> A1.set imm64 pc v | _ -> ())
    code;
  let fimm = Array.make (max n 1) 0.0 in
  Array.iteri
    (fun pc instr ->
      match instr with Instr.Fli (_, v) -> fimm.(pc) <- v | _ -> ())
    code;
  let classes = Array.map Instr.classify code in
  let opcodes =
    Array.init (n + 1) (fun k -> if k < n then op_code code.(k) else op_oob)
  in
  let op_dst = Array.map (fun i -> let d, _, _, _ = operands i in d) code in
  let op_a = Array.map (fun i -> let _, a, _, _ = operands i in a) code in
  let op_b = Array.map (fun i -> let _, _, b, _ = operands i in b) code in
  {
    program;
    code_len = n;
    opcodes;
    code_tbl =
      Array.init (n + 1) (fun k ->
          if k >= n then 0
          else
            (op_dst.(k) land 255)
            lor ((op_a.(k) land 255) lsl 8)
            lor ((op_b.(k) land 255) lsl 16));
    op_imm = Array.map (fun i -> let _, _, _, m = operands i in m) code;
    imm64;
    fimm;
    classes;
    class_idx = Array.map Instr.class_index classes;
    read_lists = Array.map Instr.reads code;
    write_ids =
      Array.map
        (fun i -> match Instr.writes i with Some r -> r | None -> -1)
        code;
    branch_flags = Array.map (fun i -> match i with Instr.Br _ -> true | _ -> false) code;
    store_flags =
      Array.map
        (fun i -> match i with Instr.Store _ | Instr.Fstore _ -> true | _ -> false)
        code;
    mem_flags =
      Array.map
        (fun i ->
          match i with
          | Instr.Load _ | Instr.Store _ | Instr.Fload _ | Instr.Fstore _ ->
            true
          | _ -> false)
        code;
    iregs;
    fregs = Array.make Reg.count 0.0;
    mem;
    buf =
      {
        len = 0;
        b_pc = Array.make batch_capacity 0;
        b_addr = Array.make batch_capacity (-1);
        b_taken = Array.make batch_capacity false;
        b_end_pc = 0;
      };
    pc = 0;
    halted = false;
    icount = 0;
    counted = false;
    cls_counts = Array.make Instr.class_count 0;
    event =
      {
        pc = 0;
        iclass = Instr.C_other;
        mem_addr = -1;
        is_store = false;
        is_branch = false;
        taken = false;
        next_pc = 0;
        reads = [];
        writes = -1;
      };
  }

let statics t =
  {
    s_classes = Array.copy t.classes;
    s_read_lists = Array.copy t.read_lists;
    s_write_ids = Array.copy t.write_ids;
  }

let halted t = t.halted
let instruction_count t = t.icount
let ireg t r = A1.get t.iregs r
let freg t r = t.fregs.(r)
let memory t = t.mem

let retired_by_class t = Array.copy t.cls_counts

(* Execute up to [limit] instructions (stopping at halt) into the chunk
   buffer starting at slot 0.  The hot loop is one dense match over the
   flattened opcode table — a jump table whose arms read operands from
   the decode columns and touch the unboxed register file, so the whole
   loop runs without function calls or allocation.  Per retired
   instruction the loop's only mandatory memory traffic is the [b_pc]
   store: [b_addr] is written only by memory arms and [b_taken] only by
   branch arms (other rows keep stale values, per the {!batch}
   contract), halting leaves the loop through {!Chunk_done} instead of
   a per-iteration flag test, and next-pc values are never stored — row
   [j]'s next pc is by construction [b_pc.(j + 1)], and [b_end_pc] (the
   machine's pc after the chunk) covers the last row, including the
   fault case, where it still points at the faulting instruction.  The
   per-class retire counts are folded afterwards in one tight pass over
   the still-cache-hot [b_pc].  On a fault the slots retired before the
   faulting instruction are kept ([buf.len] excludes it, like the
   reference interpreter which emits no event and retires nothing for a
   faulting step) and the exception is returned for the caller to
   deliver after flushing.

   Equivalence with the reference interpreter (Machine_ref, under
   test/oracle) is checked instruction by instruction in
   test/test_funcsim_diff.ml — including
   the r0 write discard, divide-by-zero results and fault points. *)
(* Commit a chunk's results into [t] and its buffer: row count, the
   machine pc after the last row, the instruction count and the
   per-class retire counts (one tight pass over the still-cache-hot
   [b_pc]).  Called once per chunk on the normal path and from the cold
   fault/halt exits of {!exec_chunk} before their exception leaves the
   loop — the hot loop itself keeps its cursor and row index in local
   registers and touches no [t] state, so every exit must write back
   through here. *)
(* [counted0] is the sum of [cls_counts] when the chunk started: the
   arms bump every class's counter except int-ALU, so the int-ALU
   retirements of this chunk are [len] minus the counters' growth. *)
let epilogue t len end_pc counted0 =
  t.pc <- end_pc;
  let buf = t.buf in
  buf.len <- len;
  buf.b_end_pc <- end_pc;
  t.icount <- t.icount + len;
  let counts = t.cls_counts in
  let counted = ref 0 in
  for k = 0 to Instr.class_count - 1 do
    counted := !counted + Array.unsafe_get counts k
  done;
  counts.(ci_int_alu) <-
    counts.(ci_int_alu) + len - (!counted - counted0)

let counts_sum counts =
  let s = ref 0 in
  for k = 0 to Instr.class_count - 1 do
    s := !s + Array.unsafe_get counts k
  done;
  !s

let exec_chunk t limit =
  let buf = t.buf in
  let pcs = buf.b_pc and addrs = buf.b_addr and takens = buf.b_taken in
  let n = t.code_len in
  let opc = t.opcodes
  and code_tbl = t.code_tbl
  and imm = t.op_imm
  and imm64 = t.imm64
  and fimm = t.fimm
  and iregs = t.iregs
  and fregs = t.fregs
  and mem = t.mem in
  let counts = t.cls_counts and cidx = t.class_idx in
  let counted0 = counts_sum counts in
  (* The loop dispatches [t.pc] without a range check (sequential pcs
     are covered by the sentinel row, computed targets are checked in
     their arms), so the entry pc — which a wild jump may have set —
     is validated once here. *)
  (if t.pc lor (n - t.pc) < 0 then begin
     epilogue t 0 t.pc counted0;
     raise (Fault (Printf.sprintf "pc out of range: %d" t.pc))
   end);
  let i = ref 0 in
  (* [cur] and [i] are non-escaping refs in a function with no
     exception handler, so the compiler unboxes them into registers —
     wrapping this loop in a [try] would force both into stack slots
     and put a store-to-load roundtrip on the loop-carried pc.  On the
     cold exits (fault, halt) the state is committed by {!epilogue}
     before the exception propagates; [pc] there is the faulting
     instruction's pc, matching the reference interpreter. *)
  let cur = ref t.pc in
  while !i < limit do
       let pc = !cur in
       let j = !i in
       Array.unsafe_set pcs j pc;
       let w = Array.unsafe_get code_tbl pc in
       let next =
         match Array.unsafe_get opc pc with
         (* 0-10: register ALU *)
         | 0 ->
           A1.unsafe_set iregs (w land 255)
             (Int64.add
                (A1.unsafe_get iregs ((w lsr 8) land 255))
                (A1.unsafe_get iregs ((w lsr 16) land 255)));
           pc + 1
         | 1 ->
           A1.unsafe_set iregs (w land 255)
             (Int64.sub
                (A1.unsafe_get iregs ((w lsr 8) land 255))
                (A1.unsafe_get iregs ((w lsr 16) land 255)));
           pc + 1
         | 2 ->
           A1.unsafe_set iregs (w land 255)
             (Int64.logand
                (A1.unsafe_get iregs ((w lsr 8) land 255))
                (A1.unsafe_get iregs ((w lsr 16) land 255)));
           pc + 1
         | 3 ->
           A1.unsafe_set iregs (w land 255)
             (Int64.logor
                (A1.unsafe_get iregs ((w lsr 8) land 255))
                (A1.unsafe_get iregs ((w lsr 16) land 255)));
           pc + 1
         | 4 ->
           A1.unsafe_set iregs (w land 255)
             (Int64.logxor
                (A1.unsafe_get iregs ((w lsr 8) land 255))
                (A1.unsafe_get iregs ((w lsr 16) land 255)));
           pc + 1
         | 5 ->
           A1.unsafe_set iregs (w land 255)
             (Int64.shift_left
                (A1.unsafe_get iregs ((w lsr 8) land 255))
                (Int64.to_int (A1.unsafe_get iregs ((w lsr 16) land 255))
                land 63));
           pc + 1
         | 6 ->
           A1.unsafe_set iregs (w land 255)
             (Int64.shift_right_logical
                (A1.unsafe_get iregs ((w lsr 8) land 255))
                (Int64.to_int (A1.unsafe_get iregs ((w lsr 16) land 255))
                land 63));
           pc + 1
         | 7 ->
           A1.unsafe_set iregs (w land 255)
             (Int64.shift_right
                (A1.unsafe_get iregs ((w lsr 8) land 255))
                (Int64.to_int (A1.unsafe_get iregs ((w lsr 16) land 255))
                land 63));
           pc + 1
         | 8 ->
           A1.unsafe_set iregs (w land 255)
             (if
                A1.unsafe_get iregs ((w lsr 8) land 255)
                = A1.unsafe_get iregs ((w lsr 16) land 255)
              then 1L
              else 0L);
           pc + 1
         | 9 ->
           A1.unsafe_set iregs (w land 255)
             (if
                A1.unsafe_get iregs ((w lsr 8) land 255)
                < A1.unsafe_get iregs ((w lsr 16) land 255)
              then 1L
              else 0L);
           pc + 1
         | 10 ->
           A1.unsafe_set iregs (w land 255)
             (if
                A1.unsafe_get iregs ((w lsr 8) land 255)
                <= A1.unsafe_get iregs ((w lsr 16) land 255)
              then 1L
              else 0L);
           pc + 1
         (* 11-21: immediate ALU *)
         | 11 ->
           A1.unsafe_set iregs (w land 255)
             (Int64.add
                (A1.unsafe_get iregs ((w lsr 8) land 255))
                (Int64.of_int (Array.unsafe_get imm pc)));
           pc + 1
         | 12 ->
           A1.unsafe_set iregs (w land 255)
             (Int64.sub
                (A1.unsafe_get iregs ((w lsr 8) land 255))
                (Int64.of_int (Array.unsafe_get imm pc)));
           pc + 1
         | 13 ->
           A1.unsafe_set iregs (w land 255)
             (Int64.logand
                (A1.unsafe_get iregs ((w lsr 8) land 255))
                (Int64.of_int (Array.unsafe_get imm pc)));
           pc + 1
         | 14 ->
           A1.unsafe_set iregs (w land 255)
             (Int64.logor
                (A1.unsafe_get iregs ((w lsr 8) land 255))
                (Int64.of_int (Array.unsafe_get imm pc)));
           pc + 1
         | 15 ->
           A1.unsafe_set iregs (w land 255)
             (Int64.logxor
                (A1.unsafe_get iregs ((w lsr 8) land 255))
                (Int64.of_int (Array.unsafe_get imm pc)));
           pc + 1
         | 16 ->
           A1.unsafe_set iregs (w land 255)
             (Int64.shift_left
                (A1.unsafe_get iregs ((w lsr 8) land 255))
                (Array.unsafe_get imm pc land 63));
           pc + 1
         | 17 ->
           A1.unsafe_set iregs (w land 255)
             (Int64.shift_right_logical
                (A1.unsafe_get iregs ((w lsr 8) land 255))
                (Array.unsafe_get imm pc land 63));
           pc + 1
         | 18 ->
           A1.unsafe_set iregs (w land 255)
             (Int64.shift_right
                (A1.unsafe_get iregs ((w lsr 8) land 255))
                (Array.unsafe_get imm pc land 63));
           pc + 1
         | 19 ->
           A1.unsafe_set iregs (w land 255)
             (if
                A1.unsafe_get iregs ((w lsr 8) land 255)
                = Int64.of_int (Array.unsafe_get imm pc)
              then 1L
              else 0L);
           pc + 1
         | 20 ->
           A1.unsafe_set iregs (w land 255)
             (if
                A1.unsafe_get iregs ((w lsr 8) land 255)
                < Int64.of_int (Array.unsafe_get imm pc)
              then 1L
              else 0L);
           pc + 1
         | 21 ->
           A1.unsafe_set iregs (w land 255)
             (if
                A1.unsafe_get iregs ((w lsr 8) land 255)
                <= Int64.of_int (Array.unsafe_get imm pc)
              then 1L
              else 0L);
           pc + 1
         (* 22-25: constants and multiplicative *)
         | 22 ->
           A1.unsafe_set iregs (w land 255)
             (A1.unsafe_get imm64 pc);
           pc + 1
         | 23 ->
           A1.unsafe_set iregs (w land 255)
             (Int64.mul
                (A1.unsafe_get iregs ((w lsr 8) land 255))
                (A1.unsafe_get iregs ((w lsr 16) land 255)));
           Array.unsafe_set counts ci_int_mul
             (Array.unsafe_get counts ci_int_mul + 1);
           pc + 1
         | 24 ->
           let bv = A1.unsafe_get iregs ((w lsr 16) land 255) in
           A1.unsafe_set iregs (w land 255)
             (if bv = 0L then 0L
              else Int64.div (A1.unsafe_get iregs ((w lsr 8) land 255)) bv);
           Array.unsafe_set counts ci_int_div
             (Array.unsafe_get counts ci_int_div + 1);
           pc + 1
         | 25 ->
           let bv = A1.unsafe_get iregs ((w lsr 16) land 255) in
           A1.unsafe_set iregs (w land 255)
             (if bv = 0L then 0L
              else Int64.rem (A1.unsafe_get iregs ((w lsr 8) land 255)) bv);
           Array.unsafe_set counts ci_int_div
             (Array.unsafe_get counts ci_int_div + 1);
           pc + 1
         (* 26-31: float ALU *)
         | 26 ->
           Array.unsafe_set fregs (w land 255)
             (Array.unsafe_get fregs ((w lsr 8) land 255)
             +. Array.unsafe_get fregs ((w lsr 16) land 255));
           Array.unsafe_set counts ci_fp_alu
             (Array.unsafe_get counts ci_fp_alu + 1);
           pc + 1
         | 27 ->
           Array.unsafe_set fregs (w land 255)
             (Array.unsafe_get fregs ((w lsr 8) land 255)
             -. Array.unsafe_get fregs ((w lsr 16) land 255));
           Array.unsafe_set counts ci_fp_alu
             (Array.unsafe_get counts ci_fp_alu + 1);
           pc + 1
         | 28 ->
           Array.unsafe_set fregs (w land 255)
             (Array.unsafe_get fregs ((w lsr 8) land 255)
             *. Array.unsafe_get fregs ((w lsr 16) land 255));
           Array.unsafe_set counts ci_fp_mul
             (Array.unsafe_get counts ci_fp_mul + 1);
           pc + 1
         | 29 ->
           let bv = Array.unsafe_get fregs ((w lsr 16) land 255) in
           Array.unsafe_set fregs (w land 255)
             (if bv = 0.0 then 0.0
              else Array.unsafe_get fregs ((w lsr 8) land 255) /. bv);
           Array.unsafe_set counts ci_fp_div
             (Array.unsafe_get counts ci_fp_div + 1);
           pc + 1
         | 30 ->
           Array.unsafe_set fregs (w land 255)
             (Array.unsafe_get fimm pc);
           Array.unsafe_set counts ci_fp_alu
             (Array.unsafe_get counts ci_fp_alu + 1);
           pc + 1
         | 31 ->
           Array.unsafe_set fregs (w land 255)
             (Array.unsafe_get fregs ((w lsr 8) land 255));
           Array.unsafe_set counts ci_fp_alu
             (Array.unsafe_get counts ci_fp_alu + 1);
           pc + 1
         (* 32-34: float compare into integer register *)
         | 32 ->
           A1.unsafe_set iregs (w land 255)
             (if
                Array.unsafe_get fregs ((w lsr 8) land 255)
                = Array.unsafe_get fregs ((w lsr 16) land 255)
              then 1L
              else 0L);
           Array.unsafe_set counts ci_fp_alu
             (Array.unsafe_get counts ci_fp_alu + 1);
           pc + 1
         | 33 ->
           A1.unsafe_set iregs (w land 255)
             (if
                Array.unsafe_get fregs ((w lsr 8) land 255)
                < Array.unsafe_get fregs ((w lsr 16) land 255)
              then 1L
              else 0L);
           Array.unsafe_set counts ci_fp_alu
             (Array.unsafe_get counts ci_fp_alu + 1);
           pc + 1
         | 34 ->
           A1.unsafe_set iregs (w land 255)
             (if
                Array.unsafe_get fregs ((w lsr 8) land 255)
                <= Array.unsafe_get fregs ((w lsr 16) land 255)
              then 1L
              else 0L);
           Array.unsafe_set counts ci_fp_alu
             (Array.unsafe_get counts ci_fp_alu + 1);
           pc + 1
         (* 35-36: conversions *)
         | 35 ->
           Array.unsafe_set fregs (w land 255)
             (Int64.to_float (A1.unsafe_get iregs ((w lsr 8) land 255)));
           Array.unsafe_set counts ci_fp_alu
             (Array.unsafe_get counts ci_fp_alu + 1);
           pc + 1
         | 36 ->
           A1.unsafe_set iregs (w land 255)
             (Int64.of_float
                (Array.unsafe_get fregs ((w lsr 8) land 255)));
           Array.unsafe_set counts ci_fp_alu
             (Array.unsafe_get counts ci_fp_alu + 1);
           pc + 1
         (* 37-40: memory, with the page-cache fast path inlined *)
         | 37 ->
           let addr =
             Int64.to_int (A1.unsafe_get iregs ((w lsr 8) land 255))
             + Array.unsafe_get imm pc
           in
           Array.unsafe_set addrs j addr;
           if addr < 0 || addr land 7 <> 0 then begin
             epilogue t j pc counted0;
             raise (mem_fault addr)
           end;
           let v =
             let key = addr lsr Memory.page_bits in
             A1.unsafe_get
               (if key = mem.Memory.cache_key then mem.Memory.cache_page
                else Memory.read_page mem key)
               ((addr lsr 3) land word_mask)
           in
           let d = w land 255 in
           if d <> 0 then A1.unsafe_set iregs d v;
           Array.unsafe_set counts ci_load
             (Array.unsafe_get counts ci_load + 1);
           pc + 1
         | 38 ->
           let addr =
             Int64.to_int (A1.unsafe_get iregs ((w lsr 16) land 255))
             + Array.unsafe_get imm pc
           in
           Array.unsafe_set addrs j addr;
           if addr < 0 || addr land 7 <> 0 then begin
             epilogue t j pc counted0;
             raise (mem_fault addr)
           end;
           let v = A1.unsafe_get iregs ((w lsr 8) land 255) in
           let key = addr lsr Memory.page_bits in
           A1.unsafe_set
             (if key = mem.Memory.cache_key then mem.Memory.cache_page
              else Memory.write_page mem key)
             ((addr lsr 3) land word_mask) v;
           Array.unsafe_set counts ci_store
             (Array.unsafe_get counts ci_store + 1);
           pc + 1
         | 39 ->
           let addr =
             Int64.to_int (A1.unsafe_get iregs ((w lsr 8) land 255))
             + Array.unsafe_get imm pc
           in
           Array.unsafe_set addrs j addr;
           if addr < 0 || addr land 7 <> 0 then begin
             epilogue t j pc counted0;
             raise (mem_fault addr)
           end;
           let v =
             let key = addr lsr Memory.page_bits in
             A1.unsafe_get
               (if key = mem.Memory.cache_key then mem.Memory.cache_page
                else Memory.read_page mem key)
               ((addr lsr 3) land word_mask)
           in
           Array.unsafe_set fregs (w land 255)
             (Int64.float_of_bits v);
           Array.unsafe_set counts ci_load
             (Array.unsafe_get counts ci_load + 1);
           pc + 1
         | 40 ->
           let addr =
             Int64.to_int (A1.unsafe_get iregs ((w lsr 16) land 255))
             + Array.unsafe_get imm pc
           in
           Array.unsafe_set addrs j addr;
           if addr < 0 || addr land 7 <> 0 then begin
             epilogue t j pc counted0;
             raise (mem_fault addr)
           end;
           let v =
             Int64.bits_of_float
               (Array.unsafe_get fregs ((w lsr 8) land 255))
           in
           let key = addr lsr Memory.page_bits in
           A1.unsafe_set
             (if key = mem.Memory.cache_key then mem.Memory.cache_page
              else Memory.write_page mem key)
             ((addr lsr 3) land word_mask) v;
           Array.unsafe_set counts ci_store
             (Array.unsafe_get counts ci_store + 1);
           pc + 1
         (* 41-46: branches with resolved targets *)
         | 41 ->
           if A1.unsafe_get iregs ((w lsr 8) land 255) = 0L then begin
             Array.unsafe_set takens j true;
             Array.unsafe_set counts ci_branch
               (Array.unsafe_get counts ci_branch + 1);
             let tgt = Array.unsafe_get imm pc in
             if tgt lor (n - tgt) < 0 then begin
               epilogue t (j + 1) tgt counted0;
               raise Chunk_done
             end;
             tgt
           end
           else begin
             Array.unsafe_set takens j false;
             Array.unsafe_set counts ci_branch
               (Array.unsafe_get counts ci_branch + 1);
             pc + 1
           end
         | 42 ->
           if A1.unsafe_get iregs ((w lsr 8) land 255) <> 0L then begin
             Array.unsafe_set takens j true;
             Array.unsafe_set counts ci_branch
               (Array.unsafe_get counts ci_branch + 1);
             let tgt = Array.unsafe_get imm pc in
             if tgt lor (n - tgt) < 0 then begin
               epilogue t (j + 1) tgt counted0;
               raise Chunk_done
             end;
             tgt
           end
           else begin
             Array.unsafe_set takens j false;
             Array.unsafe_set counts ci_branch
               (Array.unsafe_get counts ci_branch + 1);
             pc + 1
           end
         | 43 ->
           if A1.unsafe_get iregs ((w lsr 8) land 255) < 0L then begin
             Array.unsafe_set takens j true;
             Array.unsafe_set counts ci_branch
               (Array.unsafe_get counts ci_branch + 1);
             let tgt = Array.unsafe_get imm pc in
             if tgt lor (n - tgt) < 0 then begin
               epilogue t (j + 1) tgt counted0;
               raise Chunk_done
             end;
             tgt
           end
           else begin
             Array.unsafe_set takens j false;
             Array.unsafe_set counts ci_branch
               (Array.unsafe_get counts ci_branch + 1);
             pc + 1
           end
         | 44 ->
           if A1.unsafe_get iregs ((w lsr 8) land 255) >= 0L then begin
             Array.unsafe_set takens j true;
             Array.unsafe_set counts ci_branch
               (Array.unsafe_get counts ci_branch + 1);
             let tgt = Array.unsafe_get imm pc in
             if tgt lor (n - tgt) < 0 then begin
               epilogue t (j + 1) tgt counted0;
               raise Chunk_done
             end;
             tgt
           end
           else begin
             Array.unsafe_set takens j false;
             Array.unsafe_set counts ci_branch
               (Array.unsafe_get counts ci_branch + 1);
             pc + 1
           end
         | 45 ->
           if A1.unsafe_get iregs ((w lsr 8) land 255) > 0L then begin
             Array.unsafe_set takens j true;
             Array.unsafe_set counts ci_branch
               (Array.unsafe_get counts ci_branch + 1);
             let tgt = Array.unsafe_get imm pc in
             if tgt lor (n - tgt) < 0 then begin
               epilogue t (j + 1) tgt counted0;
               raise Chunk_done
             end;
             tgt
           end
           else begin
             Array.unsafe_set takens j false;
             Array.unsafe_set counts ci_branch
               (Array.unsafe_get counts ci_branch + 1);
             pc + 1
           end
         | 46 ->
           if A1.unsafe_get iregs ((w lsr 8) land 255) <= 0L then begin
             Array.unsafe_set takens j true;
             Array.unsafe_set counts ci_branch
               (Array.unsafe_get counts ci_branch + 1);
             let tgt = Array.unsafe_get imm pc in
             if tgt lor (n - tgt) < 0 then begin
               epilogue t (j + 1) tgt counted0;
               raise Chunk_done
             end;
             tgt
           end
           else begin
             Array.unsafe_set takens j false;
             Array.unsafe_set counts ci_branch
               (Array.unsafe_get counts ci_branch + 1);
             pc + 1
           end
         (* 47-52: branches with unresolved label targets — fault only
            when taken, like the reference interpreter. *)
         | 47 ->
           if A1.unsafe_get iregs ((w lsr 8) land 255) = 0L then begin
             Array.unsafe_set takens j true;
             (epilogue t j pc counted0;
              label_fault t pc)
           end
           else begin
             Array.unsafe_set takens j false;
             Array.unsafe_set counts ci_branch
               (Array.unsafe_get counts ci_branch + 1);
             pc + 1
           end
         | 48 ->
           if A1.unsafe_get iregs ((w lsr 8) land 255) <> 0L then begin
             Array.unsafe_set takens j true;
             (epilogue t j pc counted0;
              label_fault t pc)
           end
           else begin
             Array.unsafe_set takens j false;
             Array.unsafe_set counts ci_branch
               (Array.unsafe_get counts ci_branch + 1);
             pc + 1
           end
         | 49 ->
           if A1.unsafe_get iregs ((w lsr 8) land 255) < 0L then begin
             Array.unsafe_set takens j true;
             (epilogue t j pc counted0;
              label_fault t pc)
           end
           else begin
             Array.unsafe_set takens j false;
             Array.unsafe_set counts ci_branch
               (Array.unsafe_get counts ci_branch + 1);
             pc + 1
           end
         | 50 ->
           if A1.unsafe_get iregs ((w lsr 8) land 255) >= 0L then begin
             Array.unsafe_set takens j true;
             (epilogue t j pc counted0;
              label_fault t pc)
           end
           else begin
             Array.unsafe_set takens j false;
             Array.unsafe_set counts ci_branch
               (Array.unsafe_get counts ci_branch + 1);
             pc + 1
           end
         | 51 ->
           if A1.unsafe_get iregs ((w lsr 8) land 255) > 0L then begin
             Array.unsafe_set takens j true;
             (epilogue t j pc counted0;
              label_fault t pc)
           end
           else begin
             Array.unsafe_set takens j false;
             Array.unsafe_set counts ci_branch
               (Array.unsafe_get counts ci_branch + 1);
             pc + 1
           end
         | 52 ->
           if A1.unsafe_get iregs ((w lsr 8) land 255) <= 0L then begin
             Array.unsafe_set takens j true;
             (epilogue t j pc counted0;
              label_fault t pc)
           end
           else begin
             Array.unsafe_set takens j false;
             Array.unsafe_set counts ci_branch
               (Array.unsafe_get counts ci_branch + 1);
             pc + 1
           end
         (* 53-58: jumps, calls, halt *)
         | 53 ->
           Array.unsafe_set counts ci_jump
             (Array.unsafe_get counts ci_jump + 1);
           let tgt = Array.unsafe_get imm pc in
           if tgt lor (n - tgt) < 0 then begin
             epilogue t (j + 1) tgt counted0;
             raise Chunk_done
           end;
           tgt
         | 54 ->
           epilogue t j pc counted0;
           label_fault t pc
         | 55 ->
           Array.unsafe_set counts ci_jump
             (Array.unsafe_get counts ci_jump + 1);
           let tgt =
             Int64.to_int (A1.unsafe_get iregs ((w lsr 8) land 255))
           in
           if tgt lor (n - tgt) < 0 then begin
             epilogue t (j + 1) tgt counted0;
             raise Chunk_done
           end;
           tgt
         | 56 ->
           (* ra is linked before the target resolves *)
           A1.unsafe_set iregs Reg.ra (Int64.of_int (pc + 1));
           Array.unsafe_set counts ci_jump
             (Array.unsafe_get counts ci_jump + 1);
           let tgt = Array.unsafe_get imm pc in
           if tgt lor (n - tgt) < 0 then begin
             epilogue t (j + 1) tgt counted0;
             raise Chunk_done
           end;
           tgt
         | 57 ->
           A1.unsafe_set iregs Reg.ra (Int64.of_int (pc + 1));
           epilogue t j pc counted0;
           label_fault t pc
         | 58 ->
           t.halted <- true;
           (* Halt retires (next pc is the fall-through), then leaves
              the loop without a per-iteration halt test. *)
           Array.unsafe_set counts ci_other
             (Array.unsafe_get counts ci_other + 1);
           epilogue t (j + 1) (pc + 1) counted0;
           raise Chunk_done
         (* 59: write to r0 compiled out — class accounting still
            sees the original instruction's class *)
         | 59 ->
           let c = Array.unsafe_get cidx pc in
           Array.unsafe_set counts c (Array.unsafe_get counts c + 1);
           pc + 1
         (* sentinel row one past the program ({!op_oob}):
            sequential execution fell off the end, or a checked
            transfer landed exactly on [n] *)
         | _ ->
           epilogue t j pc counted0;
           raise (Fault (Printf.sprintf "pc out of range: %d" pc))
       in
       cur := next;
       i := j + 1
  done;
  epilogue t limit !cur counted0

let fill_chunk t limit =
  try
    exec_chunk t limit;
    None
  with
  | Chunk_done -> None
  | e -> Some e

(* Rebuild retired events for the first [count] chunk rows from the
   per-pc decode tables and the dynamic columns, reusing the machine's
   single event record (the documented [on_event] contract). *)
let deliver_events t count on_event =
  let buf = t.buf and ev = t.event in
  let pcs = buf.b_pc and addrs = buf.b_addr and takens = buf.b_taken in
  let last = count - 1 in
  for j = 0 to last do
    let pc = Array.unsafe_get pcs j in
    ev.pc <- pc;
    ev.iclass <- Array.unsafe_get t.classes pc;
    ev.mem_addr <-
      (if Array.unsafe_get t.mem_flags pc then Array.unsafe_get addrs j
       else -1);
    ev.is_store <- Array.unsafe_get t.store_flags pc;
    let is_branch = Array.unsafe_get t.branch_flags pc in
    ev.is_branch <- is_branch;
    ev.taken <- (is_branch && Array.unsafe_get takens j);
    ev.next_pc <-
      (if j < last then Array.unsafe_get pcs (j + 1) else buf.b_end_pc);
    ev.reads <- Array.unsafe_get t.read_lists pc;
    ev.writes <- Array.unsafe_get t.write_ids pc;
    on_event ev
  done

(* Chunked loop shared by [run] and [run_batched]: [emit] consumes the
   filled chunk buffer.  Partial chunks are flushed before a fault
   propagates, so consumers observe exactly the events the reference
   interpreter would have delivered. *)
let run_raw ~max_instrs t emit =
  let start = t.icount in
  while (not t.halted) && t.icount - start < max_instrs do
    let limit = min batch_capacity (max_instrs - (t.icount - start)) in
    match fill_chunk t limit with
    | None -> if t.buf.len > 0 then emit t
    | Some e ->
      if t.buf.len > 0 then emit t;
      raise e
  done;
  t.icount - start

(* Per-run aggregates, published into the global registry when a run
   completes (publishing from the per-step path would put atomics on the
   hottest loop in the system; the per-machine [exec_counts] array is
   domain-local and free).  A machine resumed by several calls counts as
   one run. *)
let c_retired_total = Pc_obs.Metrics.counter "funcsim.retired.total"
let c_runs = Pc_obs.Metrics.counter "funcsim.runs"

let c_retired_class =
  Array.init Instr.class_count (fun i ->
      Pc_obs.Metrics.counter
        ("funcsim.retired." ^ Instr.class_name (Instr.class_of_index i)))

let g_pages = Pc_obs.Metrics.gauge "funcsim.mem.pages_touched"

let publish t before =
  let after = retired_by_class t in
  if not t.counted then begin
    t.counted <- true;
    Pc_obs.Metrics.incr c_runs
  end;
  let total = ref 0 in
  Array.iteri
    (fun i count ->
      let d = count - before.(i) in
      total := !total + d;
      if d > 0 then Pc_obs.Metrics.add c_retired_class.(i) d)
    after;
  Pc_obs.Metrics.add c_retired_total !total;
  Pc_obs.Metrics.record_max g_pages (Memory.pages_touched t.mem)

let run ?(max_instrs = 50_000_000) t on_event =
  let before = retired_by_class t in
  let retired =
    run_raw ~max_instrs t (fun t -> deliver_events t t.buf.len on_event)
  in
  publish t before;
  retired

let run_batched ?(max_instrs = 50_000_000) t consume =
  let before = retired_by_class t in
  let retired = run_raw ~max_instrs t (fun t -> consume t.buf) in
  publish t before;
  retired

let run_data_refs ?max_instrs t emit =
  run_batched ?max_instrs t (fun buf ->
      let pcs = buf.b_pc and addrs = buf.b_addr in
      for j = 0 to buf.len - 1 do
        if Array.unsafe_get t.mem_flags (Array.unsafe_get pcs j) then
          emit (Array.unsafe_get addrs j)
      done)
