(* The pre-rewrite functional simulator, retained verbatim as the
   differential-testing oracle for the pre-decoded engine: one variant
   match per step, semantics spelled out instruction by instruction.
   Test-only — it publishes no metrics and nothing in the library
   depends on it.  Any behavioural divergence between this interpreter
   and {!Pc_funcsim.Machine} is a bug in the engine, not here: change
   this file only when the ISA itself changes. *)

open Pc_isa
open Pc_funcsim

type event = Machine.event = {
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

type t = {
  program : Program.t;
  code : Instr.t array;
  (* Static per-instruction metadata, precomputed so stepping does not
     allocate. *)
  classes : Instr.iclass array;
  class_idx : int array;
  read_lists : int list array;
  write_ids : int array;
  iregs : int64 array;
  fregs : float array;
  mem : Memory.t;
  mutable pc : int;
  mutable halted : bool;
  mutable icount : int;
  retired : int array;  (* dynamic instructions per class index *)
  event : event;
}

let load program =
  let code = program.Program.code in
  let mem = Memory.create () in
  Memory.load_words mem program.Program.data;
  let iregs = Array.make Reg.count 0L in
  iregs.(Reg.sp) <- Int64.of_int Program.stack_base;
  let classes = Array.map Instr.classify code in
  {
    program;
    code;
    classes;
    class_idx = Array.map Instr.class_index classes;
    read_lists = Array.map Instr.reads code;
    write_ids =
      Array.map (fun i -> match Instr.writes i with Some r -> r | None -> -1) code;
    iregs;
    fregs = Array.make Reg.count 0.0;
    mem;
    pc = 0;
    halted = false;
    icount = 0;
    retired = Array.make Instr.class_count 0;
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

type statics = Machine.statics = {
  s_classes : Instr.iclass array;
  s_read_lists : int list array;
  s_write_ids : int array;
}

let statics t =
  {
    s_classes = Array.copy t.classes;
    s_read_lists = Array.copy t.read_lists;
    s_write_ids = Array.copy t.write_ids;
  }

let halted t = t.halted
let instruction_count t = t.icount
let retired_by_class t = Array.copy t.retired
let ireg t r = t.iregs.(r)
let freg t r = t.fregs.(r)
let memory t = t.mem

let bool64 b = if b then 1L else 0L

let alu op a b =
  match op with
  | Instr.Add -> Int64.add a b
  | Instr.Sub -> Int64.sub a b
  | Instr.And -> Int64.logand a b
  | Instr.Or -> Int64.logor a b
  | Instr.Xor -> Int64.logxor a b
  | Instr.Sll -> Int64.shift_left a (Int64.to_int b land 63)
  | Instr.Srl -> Int64.shift_right_logical a (Int64.to_int b land 63)
  | Instr.Sra -> Int64.shift_right a (Int64.to_int b land 63)
  | Instr.Cmp_eq -> bool64 (Int64.equal a b)
  | Instr.Cmp_lt -> bool64 (Int64.compare a b < 0)
  | Instr.Cmp_le -> bool64 (Int64.compare a b <= 0)

let falu op a b = match op with Instr.Fadd -> a +. b | Instr.Fsub -> a -. b

let fcmp op a b =
  match op with
  | Instr.Fcmp_eq -> bool64 (a = b)
  | Instr.Fcmp_lt -> bool64 (a < b)
  | Instr.Fcmp_le -> bool64 (a <= b)

let cond_holds c (v : int64) =
  match c with
  | Instr.Eq_z -> Int64.equal v 0L
  | Instr.Ne_z -> not (Int64.equal v 0L)
  | Instr.Lt_z -> Int64.compare v 0L < 0
  | Instr.Ge_z -> Int64.compare v 0L >= 0
  | Instr.Gt_z -> Int64.compare v 0L > 0
  | Instr.Le_z -> Int64.compare v 0L <= 0

let target_index = function
  | Instr.Abs i -> i
  | Instr.Label l -> raise (Machine.Fault (Printf.sprintf "unresolved label %S" l))

let set_ireg t r v = if r <> Reg.zero then t.iregs.(r) <- v

let step t on_event =
  if t.halted then false
  else begin
    let pc = t.pc in
    if pc < 0 || pc >= Array.length t.code then
      raise (Machine.Fault (Printf.sprintf "pc out of range: %d" pc));
    let instr = t.code.(pc) in
    let ev = t.event in
    ev.pc <- pc;
    ev.iclass <- t.classes.(pc);
    ev.mem_addr <- -1;
    ev.is_store <- false;
    ev.is_branch <- false;
    ev.taken <- false;
    ev.reads <- t.read_lists.(pc);
    ev.writes <- t.write_ids.(pc);
    let next = ref (pc + 1) in
    (try
       (match instr with
       | Instr.Alu (op, d, a, b) -> set_ireg t d (alu op t.iregs.(a) t.iregs.(b))
       | Instr.Alui (op, d, a, imm) ->
         set_ireg t d (alu op t.iregs.(a) (Int64.of_int imm))
       | Instr.Li (d, v) -> set_ireg t d v
       | Instr.Mul (d, a, b) -> set_ireg t d (Int64.mul t.iregs.(a) t.iregs.(b))
       | Instr.Div (d, a, b) ->
         let bv = t.iregs.(b) in
         set_ireg t d (if Int64.equal bv 0L then 0L else Int64.div t.iregs.(a) bv)
       | Instr.Rem (d, a, b) ->
         let bv = t.iregs.(b) in
         set_ireg t d (if Int64.equal bv 0L then 0L else Int64.rem t.iregs.(a) bv)
       | Instr.Falu (op, d, a, b) -> t.fregs.(d) <- falu op t.fregs.(a) t.fregs.(b)
       | Instr.Fmul (d, a, b) -> t.fregs.(d) <- t.fregs.(a) *. t.fregs.(b)
       | Instr.Fdiv (d, a, b) ->
         let bv = t.fregs.(b) in
         t.fregs.(d) <- (if bv = 0.0 then 0.0 else t.fregs.(a) /. bv)
       | Instr.Fli (d, v) -> t.fregs.(d) <- v
       | Instr.Fmov (d, a) -> t.fregs.(d) <- t.fregs.(a)
       | Instr.Fcmp (op, d, a, b) -> set_ireg t d (fcmp op t.fregs.(a) t.fregs.(b))
       | Instr.Itof (d, a) -> t.fregs.(d) <- Int64.to_float t.iregs.(a)
       | Instr.Ftoi (d, a) -> set_ireg t d (Int64.of_float t.fregs.(a))
       | Instr.Load (d, a, off) ->
         let addr = Int64.to_int t.iregs.(a) + off in
         ev.mem_addr <- addr;
         set_ireg t d (Memory.read t.mem addr)
       | Instr.Store (s, a, off) ->
         let addr = Int64.to_int t.iregs.(a) + off in
         ev.mem_addr <- addr;
         ev.is_store <- true;
         Memory.write t.mem addr t.iregs.(s)
       | Instr.Fload (d, a, off) ->
         let addr = Int64.to_int t.iregs.(a) + off in
         ev.mem_addr <- addr;
         t.fregs.(d) <- Memory.read_float t.mem addr
       | Instr.Fstore (s, a, off) ->
         let addr = Int64.to_int t.iregs.(a) + off in
         ev.mem_addr <- addr;
         ev.is_store <- true;
         Memory.write_float t.mem addr t.fregs.(s)
       | Instr.Br (c, r, tgt) ->
         ev.is_branch <- true;
         if cond_holds c t.iregs.(r) then begin
           ev.taken <- true;
           next := target_index tgt
         end
       | Instr.Jmp tgt -> next := target_index tgt
       | Instr.Jr r -> next := Int64.to_int t.iregs.(r)
       | Instr.Call tgt ->
         set_ireg t Reg.ra (Int64.of_int (pc + 1));
         next := target_index tgt
       | Instr.Halt -> t.halted <- true);
       ()
     with Invalid_argument msg -> raise (Machine.Fault msg));
    t.pc <- !next;
    ev.next_pc <- !next;
    t.icount <- t.icount + 1;
    t.retired.(t.class_idx.(pc)) <- t.retired.(t.class_idx.(pc)) + 1;
    on_event ev;
    not t.halted
  end

let run ?(max_instrs = 50_000_000) t on_event =
  let start = t.icount in
  let continue = ref true in
  while !continue && t.icount - start < max_instrs do
    continue := step t on_event
  done;
  t.icount - start
