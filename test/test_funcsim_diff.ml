(* Differential testing of the pre-decoded threaded-dispatch engine
   ({!Pc_funcsim.Machine}) against the retained reference interpreter
   ({!Machine_ref}, under [test/oracle]): on qcheck-generated random SRISC
   programs and on every registered workload, the two must produce
   exactly the same retired-event stream — field by field, instruction
   by instruction — the same faults with the same messages, and the
   same final architectural state.  The batched entry point is checked
   through the documented reconstruction contract: statics plus the
   chunk columns must rebuild the exact event stream. *)

module Machine = Pc_funcsim.Machine
module Ref = Machine_ref
module Memory = Pc_funcsim.Memory
module Instr = Pc_isa.Instr
module Reg = Pc_isa.Reg
module Program = Pc_isa.Program
module Registry = Pc_workloads.Registry
module Rng = Pc_util.Rng

(* --- event snapshots and run outcomes --- *)

type snap = {
  s_pc : int;
  s_class : Instr.iclass;
  s_addr : int;
  s_store : bool;
  s_branch : bool;
  s_taken : bool;
  s_next : int;
  s_reads : int list;
  s_writes : int;
}

let snap_of_event (e : Machine.event) =
  {
    s_pc = e.pc;
    s_class = e.iclass;
    s_addr = e.mem_addr;
    s_store = e.is_store;
    s_branch = e.is_branch;
    s_taken = e.taken;
    s_next = e.next_pc;
    s_reads = e.reads;
    s_writes = e.writes;
  }

let pp_snap s =
  Printf.sprintf
    "pc=%d class=%s addr=%d store=%b branch=%b taken=%b next=%d reads=[%s] \
     writes=%d"
    s.s_pc (Instr.class_name s.s_class) s.s_addr s.s_store s.s_branch s.s_taken
    s.s_next
    (String.concat ";" (List.map string_of_int s.s_reads))
    s.s_writes

type outcome = {
  o_events : snap array;
  o_retired : int;  (* -1 when the run faulted *)
  o_fault : string option;
  o_halted : bool;
  o_icount : int;
  o_iregs : int64 array;
  o_fregs : int64 array;  (* float registers, compared bit-exactly *)
  o_pages : int;
  o_classes : int array;
}

let outcome_of ~load ~run ~halted ~icount ~ireg ~freg ~memory ~by_class prog
    ~budget =
  let m = load prog in
  let evs = ref [] in
  let fault = ref None in
  let retired =
    try run m budget (fun e -> evs := snap_of_event e :: !evs)
    with Machine.Fault msg ->
      fault := Some msg;
      -1
  in
  {
    o_events = Array.of_list (List.rev !evs);
    o_retired = retired;
    o_fault = !fault;
    o_halted = halted m;
    o_icount = icount m;
    o_iregs = Array.init Reg.count (fun r -> ireg m r);
    o_fregs = Array.init Reg.count (fun r -> Int64.bits_of_float (freg m r));
    o_pages = Memory.pages_touched (memory m);
    o_classes = by_class m;
  }

let oracle prog ~budget =
  outcome_of ~load:Ref.load
    ~run:(fun m budget f -> Ref.run ~max_instrs:budget m f)
    ~halted:Ref.halted ~icount:Ref.instruction_count ~ireg:Ref.ireg
    ~freg:Ref.freg ~memory:Ref.memory ~by_class:Ref.retired_by_class prog
    ~budget

let engine prog ~budget =
  outcome_of ~load:Machine.load
    ~run:(fun m budget f -> Machine.run ~max_instrs:budget m f)
    ~halted:Machine.halted ~icount:Machine.instruction_count ~ireg:Machine.ireg
    ~freg:Machine.freg ~memory:Machine.memory ~by_class:Machine.retired_by_class
    prog ~budget

(* Rebuild per-instruction events from raw chunks exactly as the batch
   contract documents: per-pc statics for class/store/branch/reads/
   writes, [b_addr]/[b_taken] only where the static says they are
   meaningful, next pcs from [b_pc]/[b_end_pc]. *)
let engine_batched prog ~budget =
  let m = Machine.load prog in
  let st = Machine.statics m in
  let evs = ref [] in
  let fault = ref None in
  let consume (b : Machine.batch) =
    let last = b.Machine.len - 1 in
    for j = 0 to last do
      let pc = b.Machine.b_pc.(j) in
      let cls = st.Machine.s_classes.(pc) in
      let is_mem = cls = Instr.C_load || cls = Instr.C_store in
      let is_branch = cls = Instr.C_branch in
      evs :=
        {
          s_pc = pc;
          s_class = cls;
          s_addr = (if is_mem then b.Machine.b_addr.(j) else -1);
          s_store = cls = Instr.C_store;
          s_branch = is_branch;
          s_taken = is_branch && b.Machine.b_taken.(j);
          s_next =
            (if j < last then b.Machine.b_pc.(j + 1) else b.Machine.b_end_pc);
          s_reads = st.Machine.s_read_lists.(pc);
          s_writes = st.Machine.s_write_ids.(pc);
        }
        :: !evs
    done
  in
  let retired =
    try Machine.run_batched ~max_instrs:budget m consume
    with Machine.Fault msg ->
      fault := Some msg;
      -1
  in
  {
    o_events = Array.of_list (List.rev !evs);
    o_retired = retired;
    o_fault = !fault;
    o_halted = Machine.halted m;
    o_icount = Machine.instruction_count m;
    o_iregs = Array.init Reg.count (fun r -> Machine.ireg m r);
    o_fregs =
      Array.init Reg.count (fun r -> Int64.bits_of_float (Machine.freg m r));
    o_pages = Memory.pages_touched (Machine.memory m);
    o_classes = Machine.retired_by_class m;
  }

let check_same ctx (a : outcome) (b : outcome) =
  if a.o_fault <> b.o_fault then
    Alcotest.failf "%s: fault mismatch: ref=%s engine=%s" ctx
      (Option.value ~default:"-" a.o_fault)
      (Option.value ~default:"-" b.o_fault);
  let na = Array.length a.o_events and nb = Array.length b.o_events in
  let common = min na nb in
  for i = 0 to common - 1 do
    if a.o_events.(i) <> b.o_events.(i) then
      Alcotest.failf "%s: event %d differs\n  ref:    %s\n  engine: %s" ctx i
        (pp_snap a.o_events.(i))
        (pp_snap b.o_events.(i))
  done;
  if na <> nb then
    Alcotest.failf "%s: stream length %d (ref) vs %d (engine)" ctx na nb;
  if a.o_retired <> b.o_retired then
    Alcotest.failf "%s: retired %d vs %d" ctx a.o_retired b.o_retired;
  if a.o_halted <> b.o_halted then
    Alcotest.failf "%s: halted %b vs %b" ctx a.o_halted b.o_halted;
  if a.o_icount <> b.o_icount then
    Alcotest.failf "%s: instruction_count %d vs %d" ctx a.o_icount b.o_icount;
  if a.o_iregs <> b.o_iregs then
    Alcotest.failf "%s: integer register files differ" ctx;
  if a.o_fregs <> b.o_fregs then
    Alcotest.failf "%s: float register files differ (bitwise)" ctx;
  if a.o_pages <> b.o_pages then
    Alcotest.failf "%s: pages_touched %d vs %d" ctx a.o_pages b.o_pages;
  if a.o_classes <> b.o_classes then
    Alcotest.failf "%s: retired_by_class differs" ctx

(* --- random SRISC programs --- *)

let alu_ops =
  Instr.
    [| Add; Sub; And; Or; Xor; Sll; Srl; Sra; Cmp_eq; Cmp_lt; Cmp_le |]

let conds = Instr.[| Eq_z; Ne_z; Lt_z; Ge_z; Gt_z; Le_z |]

let consts =
  [|
    0L;
    1L;
    -1L;
    255L;
    Int64.max_int;
    Int64.min_int;
    0x1234_5678L;
    Int64.of_int Program.data_base;
  |]

(* Valid programs only ([Program.v] validates static control-flow
   targets), but nothing stops runtime faults: junk base registers make
   unaligned or negative addresses, [Jr] through an arbitrary register
   jumps out of range, and a program with no reachable [Halt] falls off
   the end.  All of those must fault identically in both engines. *)
let gen_program rng =
  let n = 8 + Rng.int rng 56 in
  let reg () = Rng.int rng Reg.count in
  let base () = if Rng.int rng 4 = 0 then reg () else 1 in
  let off () =
    if Rng.int rng 8 = 0 then Rng.int rng 41 - 8 else 8 * Rng.int rng 16
  in
  let code =
    Array.init n (fun k ->
        if k = 0 then
          Instr.Li (1, Int64.of_int (Program.data_base + 8 * Rng.int rng 8))
        else if k = 1 then Instr.Li (2, Int64.of_int (Rng.int rng n))
        else
          match Rng.int rng 24 with
          | 0 | 1 | 2 | 3 ->
            Instr.Alu (Rng.pick rng alu_ops, reg (), reg (), reg ())
          | 4 | 5 | 6 ->
            Instr.Alui (Rng.pick rng alu_ops, reg (), reg (), Rng.int rng 65 - 32)
          | 7 -> Instr.Li (reg (), Rng.pick rng consts)
          | 8 -> Instr.Mul (reg (), reg (), reg ())
          | 9 ->
            if Rng.bool rng then Instr.Div (reg (), reg (), reg ())
            else Instr.Rem (reg (), reg (), reg ())
          | 10 ->
            Instr.Falu
              ((if Rng.bool rng then Instr.Fadd else Instr.Fsub), reg (), reg (), reg ())
          | 11 ->
            if Rng.bool rng then Instr.Fmul (reg (), reg (), reg ())
            else Instr.Fdiv (reg (), reg (), reg ())
          | 12 -> Instr.Fli (reg (), Rng.float rng 100.0 -. 50.0)
          | 13 ->
            (match Rng.int rng 4 with
            | 0 -> Instr.Fmov (reg (), reg ())
            | 1 -> Instr.Itof (reg (), reg ())
            | 2 -> Instr.Ftoi (reg (), reg ())
            | _ ->
              Instr.Fcmp
                ( (match Rng.int rng 3 with
                  | 0 -> Instr.Fcmp_eq
                  | 1 -> Instr.Fcmp_lt
                  | _ -> Instr.Fcmp_le),
                  reg (),
                  reg (),
                  reg () ))
          | 14 | 15 -> Instr.Load (reg (), base (), off ())
          | 16 | 17 -> Instr.Store (reg (), base (), off ())
          | 18 ->
            if Rng.bool rng then Instr.Fload (reg (), base (), off ())
            else Instr.Fstore (reg (), base (), off ())
          | 19 | 20 | 21 ->
            Instr.Br (Rng.pick rng conds, reg (), Instr.Abs (Rng.int rng n))
          | 22 ->
            if Rng.bool rng then Instr.Jmp (Instr.Abs (Rng.int rng n))
            else Instr.Call (Instr.Abs (Rng.int rng n))
          | _ ->
            if Rng.int rng 3 = 0 then Instr.Jr (if Rng.bool rng then 2 else reg ())
            else Instr.Halt)
  in
  let data =
    List.init (Rng.int rng 6) (fun i ->
        (Program.data_base + (8 * i), Int64.of_int (Rng.int rng 1000 - 500)))
  in
  Program.v ~name:"fuzz" ~code ~data ~data_bytes:256

let qcheck_diff =
  QCheck.Test.make ~name:"random SRISC programs: engine = reference" ~count:300
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let prog = gen_program rng in
      let budget =
        match Rng.int rng 4 with
        | 0 -> Rng.int rng 40  (* often cuts at a branch or mid-loop *)
        | 1 -> 1 + Rng.int rng 200
        | _ -> 5_000
      in
      let a = oracle prog ~budget in
      check_same "run" a (engine prog ~budget);
      check_same "run_batched" a (engine_batched prog ~budget);
      true)

(* The profiler on the same raw programs, whose [Jr] can land in the
   middle of a block: the same profile bytes as the reference
   collector, or the same fault. *)
let qcheck_collector =
  QCheck.Test.make ~name:"random SRISC programs: Collector = reference collector"
    ~count:300
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let prog = gen_program rng in
      let start = if Rng.bool rng then 0 else Rng.int rng 100 in
      let max_instrs = 1 + Rng.int rng 5_000 in
      match Collector_ref.mismatch ~start ~max_instrs prog with
      | None -> true
      | Some why ->
        QCheck.Test.fail_reportf "start %d, %d instructions: %s" start max_instrs why)

(* --- per-workload stream equality --- *)

let test_workloads () =
  List.iter
    (fun (e : Registry.entry) ->
      let prog = Registry.compile e in
      let budget = 50_000 in
      let a = oracle prog ~budget in
      check_same (e.Registry.name ^ "/run") a (engine prog ~budget);
      check_same
        (e.Registry.name ^ "/run_batched")
        a
        (engine_batched prog ~budget))
    Registry.all

(* --- one instruction per call, including fault steps ---

   [Ref.step] against a one-instruction [Machine.run] resumed on the
   same machine: each call must deliver the same event (or none, once
   halted), fault with the same message, and leave the same halted
   state. *)

let test_step_equality () =
  let rng = Rng.create 42 in
  for _ = 1 to 30 do
    let prog = gen_program rng in
    let mr = Ref.load prog and me = Machine.load prog in
    let continue = ref true in
    let steps = ref 0 in
    while !continue && !steps < 300 do
      incr steps;
      let er = ref None and ee = ref None in
      let r1 =
        try Ok (Ref.step mr (fun e -> er := Some (snap_of_event e)))
        with Machine.Fault m -> Error m
      in
      let r2 =
        try
          ignore
            (Machine.run ~max_instrs:1 me (fun e -> ee := Some (snap_of_event e)));
          Ok (not (Machine.halted me))
        with Machine.Fault m -> Error m
      in
      (match (r1, r2) with
      | Error m1, Error m2 ->
        Alcotest.(check string) "step fault message" m1 m2;
        continue := false
      | Ok k1, Ok k2 ->
        if k1 <> k2 then Alcotest.failf "step continue %b vs %b" k1 k2;
        if !er <> !ee then
          Alcotest.failf "step event differs\n  ref:    %s\n  engine: %s"
            (match !er with Some s -> pp_snap s | None -> "-")
            (match !ee with Some s -> pp_snap s | None -> "-");
        if not k1 then continue := false
      | Ok _, Error m ->
        Alcotest.failf "engine faulted (%s) where reference stepped" m
      | Error m, Ok _ ->
        Alcotest.failf "reference faulted (%s) where engine stepped" m)
    done
  done

(* --- budget boundaries and resuming --- *)

(* li r3, iters; sub r3, r3, 1; bnez r3, 1; halt — 1 + 2*iters + 1
   dynamic instructions, with a taken branch every second one. *)
let loop_program iters =
  Program.v ~name:"loop"
    ~code:
      [|
        Instr.Li (3, Int64.of_int iters);
        Instr.Alui (Instr.Sub, 3, 3, 1);
        Instr.Br (Instr.Ne_z, 3, Instr.Abs 1);
        Instr.Halt;
      |]
    ~data:[] ~data_bytes:0

let test_budget_resume () =
  let total = 1 + (2 * 5000) + 1 in
  (* budgets that cut exactly at the branch, just after it, and exactly
     at / around the chunk boundary *)
  List.iter
    (fun b1 ->
      let b2 = total - b1 in
      let whole = oracle (loop_program 5000) ~budget:total in
      let m = Machine.load (loop_program 5000) in
      let evs = ref [] in
      let collect e = evs := snap_of_event e :: !evs in
      let r1 = Machine.run ~max_instrs:b1 m collect in
      let r2 = Machine.run ~max_instrs:b2 m collect in
      Alcotest.(check int) "first leg retires its budget" b1 r1;
      Alcotest.(check int) "legs cover the run" total (r1 + r2);
      let got = Array.of_list (List.rev !evs) in
      Alcotest.(check int) "stream length" (Array.length whole.o_events)
        (Array.length got);
      Array.iteri
        (fun i w ->
          if w <> got.(i) then
            Alcotest.failf "resumed event %d differs\n  ref:    %s\n  split:  %s"
              i (pp_snap w) (pp_snap got.(i)))
        whole.o_events;
      Alcotest.(check bool) "halted" true (Machine.halted m))
    [ 1; 2; 3; 4; 5; 4095; 4096; 4097 ]

let test_budget_zero () =
  let a = oracle (loop_program 10) ~budget:0
  and b = engine (loop_program 10) ~budget:0 in
  check_same "budget 0" a b;
  Alcotest.(check int) "no events" 0 (Array.length b.o_events);
  Alcotest.(check bool) "not halted" false b.o_halted

(* --- chunk shapes: full chunks, the halt-mid-batch partial chunk --- *)

let test_chunk_shapes () =
  let lens prog budget =
    let m = Machine.load prog in
    let acc = ref [] in
    let _ = Machine.run_batched ~max_instrs:budget m (fun b ->
        acc := b.Machine.len :: !acc)
    in
    List.rev !acc
  in
  (* a 10002-instruction run: two full chunks, then the tail *)
  let l = lens (loop_program 5000) 20_000 in
  Alcotest.(check (list int)) "full chunks then partial"
    [ Machine.batch_capacity; Machine.batch_capacity; 10_002 - (2 * Machine.batch_capacity) ]
    l;
  (* halt well inside the first chunk: one short batch *)
  let l = lens (loop_program 10) 20_000 in
  Alcotest.(check (list int)) "halt mid-batch" [ 22 ] l

(* --- pages_touched high-water --- *)

let test_pages_touched () =
  let mk addr k =
    [
      Instr.Li (1, Int64.of_int addr); Instr.Store (k, 1, 0);
    ]
  in
  let code =
    Array.of_list
      (mk Program.data_base 2
      @ mk (Program.data_base + (1 lsl 20)) 3
      @ mk (Program.stack_base - 8) 4
      @ [ Instr.Load (5, 1, 0); Instr.Halt ])
  in
  let prog = Program.v ~name:"pages" ~code ~data:[] ~data_bytes:0 in
  let a = oracle prog ~budget:100 and b = engine prog ~budget:100 in
  check_same "pages" a b;
  Alcotest.(check int) "three distinct pages" 3 b.o_pages

(* A load from a page nothing wrote reads the shared zero page; a store
   to that page must create a page of its own, so a later load from a
   second unwritten page, at the stored word's offset, still reads
   zero. *)
let test_unwritten_pages_read_zero () =
  let first = Program.data_base + (1 lsl 20) and second = Program.data_base + (2 lsl 20) in
  let code =
    [|
      Instr.Li (1, Int64.of_int first);
      Instr.Load (2, 1, 8);
      Instr.Li (3, 77L);
      Instr.Store (3, 1, 8);
      Instr.Li (4, Int64.of_int second);
      Instr.Load (5, 4, 8);
      Instr.Load (6, 1, 8);
      Instr.Halt;
    |]
  in
  let prog = Program.v ~name:"zero" ~code ~data:[] ~data_bytes:0 in
  let a = oracle prog ~budget:100 in
  check_same "run" a (engine prog ~budget:100);
  let b = engine_batched prog ~budget:100 in
  check_same "run_batched" a b;
  Alcotest.(check int64) "first load reads 0" 0L b.o_iregs.(2);
  Alcotest.(check int64) "second page reads 0" 0L b.o_iregs.(5);
  Alcotest.(check int64) "the store landed" 77L b.o_iregs.(6);
  Alcotest.(check int) "two pages touched" 2 b.o_pages

(* --- statics freshness --- *)

let test_statics_fresh () =
  let prog = loop_program 3 in
  let first = Instr.Li (3, 5L) in
  let want_write =
    match Instr.writes first with Some w -> w | None -> -1
  in
  let m = Machine.load prog in
  let s1 = Machine.statics m in
  s1.Machine.s_classes.(0) <- Instr.C_other;
  s1.Machine.s_write_ids.(0) <- -17;
  s1.Machine.s_read_lists.(0) <- [ 9; 9; 9 ];
  let s2 = Machine.statics m in
  Alcotest.(check bool) "classes fresh" true
    (s2.Machine.s_classes.(0) = Instr.classify first);
  Alcotest.(check int) "write ids fresh" want_write s2.Machine.s_write_ids.(0);
  Alcotest.(check (list int)) "read lists fresh" (Instr.reads first)
    s2.Machine.s_read_lists.(0)

(* --- figures are byte-identical at every pool width --- *)

module Pool = Pc_exec.Pool
module E = Perfclone.Experiments

let test_fig_pool_identity () =
  let settings =
    {
      E.seed = 1;
      profile_instrs = 100_000;
      sim_instrs = 150_000;
      clone_dynamic = 30_000;
      benchmarks = [ "crc32"; "sha" ];
      sample = None;
      plan_cache = None;
      cache_onepass = false;
    }
  in
  let render pool =
    E.clear_caches ();
    let ps = E.prepare ~pool settings in
    ( Format.asprintf "%a" E.pp_fig3 (E.fig3 ps),
      Format.asprintf "%a" E.pp_fig6 (E.base_runs ~pool settings ps) )
  in
  let f3_serial, f6_serial = render Pool.serial in
  let f3_par, f6_par = render (Pool.create ~num_domains:4) in
  Alcotest.(check string) "fig3 byte-identical at -j1 and -j4" f3_serial f3_par;
  Alcotest.(check string) "fig6 byte-identical at -j1 and -j4" f6_serial f6_par

let () =
  Alcotest.run "pc_funcsim_diff"
    [
      ( "diff",
        [
          QCheck_alcotest.to_alcotest qcheck_diff;
          Alcotest.test_case "every workload: engine = reference" `Slow
            test_workloads;
          Alcotest.test_case "step-by-step equality" `Quick test_step_equality;
          QCheck_alcotest.to_alcotest qcheck_collector;
        ] );
      ( "boundaries",
        [
          Alcotest.test_case "budget cuts and resume" `Quick test_budget_resume;
          Alcotest.test_case "budget zero" `Quick test_budget_zero;
          Alcotest.test_case "chunk shapes" `Quick test_chunk_shapes;
          Alcotest.test_case "pages_touched high-water" `Quick
            test_pages_touched;
          Alcotest.test_case "statics freshness" `Quick test_statics_fresh;
          Alcotest.test_case "unwritten pages read zero" `Quick
            test_unwritten_pages_read_zero;
        ] );
      ( "figures",
        [
          Alcotest.test_case "fig3/fig6 identical at -j1 and -j4" `Slow
            test_fig_pool_identity;
        ] );
    ]
