(* Tests for pc_uarch: the trace-driven out-of-order timing model must
   respond correctly to every resource the paper's experiments vary. *)

module I = Pc_isa.Instr
module Asm = Pc_isa.Asm
module Config = Pc_uarch.Config
module Sim = Pc_uarch.Sim
module Predictor = Pc_branch.Predictor

let loop_program ~name ~iters body =
  (* r20 = counter; body must not touch r20/r21 *)
  Asm.assemble ~name
    ([ Asm.Ins (I.Li (20, Int64.of_int iters)); Asm.Label "top" ]
    @ List.map (fun i -> Asm.Ins i) body
    @ [
        Asm.Ins (I.Alui (I.Add, 20, 20, -1));
        Asm.Ins (I.Br (I.Gt_z, 20, I.Label "top"));
        Asm.Ins I.Halt;
      ])

let independent_alu_body n =
  List.init n (fun i -> I.Alu (I.Add, 1 + (i mod 8), 10, 11))

let dependent_alu_body n = List.init n (fun _ -> I.Alu (I.Add, 1, 1, 10))

let ipc ?(max_instrs = 200_000) cfg program = (Sim.run ~max_instrs cfg program).Sim.ipc

let wide_config =
  (* widths alone do not add functional units; scale those too *)
  let c = Config.with_rob_lsq ~rob:64 ~lsq:32 (Config.with_widths 4 Config.base) in
  { c with Config.int_alu_units = 8; int_mul_units = 2; mem_ports = 4 }

let test_ipc_bounded_by_width () =
  let p = loop_program ~name:"ind" ~iters:2000 (independent_alu_body 16) in
  let r1 = ipc Config.base p in
  Alcotest.(check bool) "width-1 IPC <= 1" true (r1 <= 1.0);
  Alcotest.(check bool) "width-1 IPC sane" true (r1 > 0.5)

let test_dependencies_limit_ilp () =
  let ind = loop_program ~name:"ind" ~iters:2000 (independent_alu_body 16) in
  let dep = loop_program ~name:"dep" ~iters:2000 (dependent_alu_body 16) in
  let ipc_ind = ipc wide_config ind and ipc_dep = ipc wide_config dep in
  Alcotest.(check bool) "independent code much faster on a wide machine" true
    (ipc_ind > 1.8 *. ipc_dep);
  (* serial chain of 1-cycle adds: IPC close to 1 *)
  Alcotest.(check bool) "dependent chain near 1 IPC" true
    (ipc_dep > 0.7 && ipc_dep < 1.3)

let test_width_scales_independent_code () =
  let p = loop_program ~name:"ind" ~iters:2000 (independent_alu_body 16) in
  let narrow = ipc Config.base p in
  let wide = ipc wide_config p in
  Alcotest.(check bool) "wider machine speeds up" true (wide > 1.5 *. narrow)

let test_in_order_never_faster () =
  List.iter
    (fun body ->
      let p = loop_program ~name:"t" ~iters:1000 body in
      let ooo = ipc wide_config p in
      let ino = ipc (Config.with_in_order true wide_config) p in
      Alcotest.(check bool) "in-order <= out-of-order (tolerance)" true
        (ino <= ooo +. 0.05))
    [
      independent_alu_body 12;
      dependent_alu_body 12;
      [ I.Mul (1, 10, 11); I.Alu (I.Add, 2, 12, 13); I.Alu (I.Add, 3, 12, 13) ];
    ]

let test_ooo_hides_load_latency () =
  (* A load miss followed by independent work: OoO overlaps, in-order
     stalls.  Use a big-stride walk so loads miss. *)
  let body =
    [ I.Load (1, 21, 0); I.Alu (I.Add, 2, 1, 1); I.Alui (I.Add, 21, 21, 2048) ]
    @ independent_alu_body 10
  in
  let prog =
    Asm.assemble ~name:"missy"
      ([
         Asm.Ins (I.Li (20, 2000L));
         Asm.Ins (I.Li (21, Int64.of_int Pc_isa.Program.data_base));
         Asm.Label "top";
       ]
      @ List.map (fun i -> Asm.Ins i) body
      @ [
          Asm.Ins (I.Alui (I.Add, 20, 20, -1));
          Asm.Ins (I.Br (I.Gt_z, 20, I.Label "top"));
          Asm.Ins I.Halt;
        ])
  in
  let ooo = ipc wide_config prog in
  let ino = ipc (Config.with_in_order true wide_config) prog in
  Alcotest.(check bool) "OoO hides some miss latency" true (ooo > ino *. 1.15)

let test_bigger_rob_helps_memory_parallelism () =
  let body =
    [ I.Load (1, 21, 0); I.Alui (I.Add, 21, 21, 2048) ] @ independent_alu_body 12
  in
  let prog =
    Asm.assemble ~name:"rob"
      ([
         Asm.Ins (I.Li (20, 2000L));
         Asm.Ins (I.Li (21, Int64.of_int Pc_isa.Program.data_base));
         Asm.Label "top";
       ]
      @ List.map (fun i -> Asm.Ins i) body
      @ [
          Asm.Ins (I.Alui (I.Add, 20, 20, -1));
          Asm.Ins (I.Br (I.Gt_z, 20, I.Label "top"));
          Asm.Ins I.Halt;
        ])
  in
  let small =
    ipc (Config.with_rob_lsq ~rob:8 ~lsq:4 (Config.with_widths 4 Config.base)) prog
  in
  let large =
    ipc (Config.with_rob_lsq ~rob:128 ~lsq:64 (Config.with_widths 4 Config.base)) prog
  in
  Alcotest.(check bool) "larger window is faster" true (large > small *. 1.1)

let test_mispredictions_cost_cycles () =
  (* data-dependent unpredictable branch driven by an LCG *)
  let body =
    [
      I.Li (9, 6364136223846793005L);
      I.Mul (8, 8, 9);
      I.Alui (I.Add, 8, 8, 1442695040888963407);
      I.Alui (I.Srl, 1, 8, 40);
      I.Alui (I.And, 1, 1, 1);
      I.Br (I.Ne_z, 1, I.Label "skip");
    ]
  in
  let prog =
    Asm.assemble ~name:"br"
      ([ Asm.Ins (I.Li (20, 3000L)); Asm.Ins (I.Li (8, 12345L)); Asm.Label "top" ]
      @ List.map (fun i -> Asm.Ins i) body
      @ [
          Asm.Label "skip";
          Asm.Ins (I.Alui (I.Add, 20, 20, -1));
          Asm.Ins (I.Br (I.Gt_z, 20, I.Label "top"));
          Asm.Ins I.Halt;
        ])
  in
  let real = Sim.run (Config.with_widths 2 Config.base) prog in
  let oracle =
    Sim.run
      (Config.with_bpred Predictor.Perfect (Config.with_widths 2 Config.base))
      prog
  in
  Alcotest.(check bool) "random branch mispredicts a lot" true
    (Sim.mispredict_rate real > 0.2);
  Alcotest.(check bool) "perfect prediction is faster" true
    (oracle.Sim.ipc > real.Sim.ipc *. 1.1)

let test_dcache_size_matters () =
  (* L1 sensitivity on a ring that fits the L2: misses per instruction
     must differ; then a >L2 ring must also cost cycles *)
  let prog =
    Asm.assemble ~name:"walk"
      [
        Asm.Ins (I.Li (20, 40_000L));
        Asm.Ins (I.Li (21, Int64.of_int Pc_isa.Program.data_base));
        Asm.Ins (I.Li (22, Int64.of_int (Pc_isa.Program.data_base + 131072)));
        Asm.Label "top";
        Asm.Ins (I.Load (1, 21, 0));
        Asm.Ins (I.Alui (I.Add, 21, 21, 32));
        Asm.Ins (I.Alu (I.Cmp_lt, 2, 21, 22));
        Asm.Ins (I.Br (I.Ne_z, 2, I.Label "keep"));
        Asm.Ins (I.Li (21, Int64.of_int Pc_isa.Program.data_base));
        Asm.Label "keep";
        Asm.Ins (I.Alui (I.Add, 20, 20, -1));
        Asm.Ins (I.Br (I.Gt_z, 20, I.Label "top"));
        Asm.Ins I.Halt;
      ]
  in
  (* the 128KB ring misses every level in any L1 size; compare against a
     small ring that stays resident *)
  let resident =
    Asm.assemble ~name:"resident"
      [
        Asm.Ins (I.Li (20, 40_000L));
        Asm.Ins (I.Li (21, Int64.of_int Pc_isa.Program.data_base));
        Asm.Ins (I.Li (22, Int64.of_int (Pc_isa.Program.data_base + 2048)));
        Asm.Label "top";
        Asm.Ins (I.Load (1, 21, 0));
        Asm.Ins (I.Alu (I.Add, 2, 1, 1));
        Asm.Ins (I.Alui (I.Add, 21, 21, 32));
        Asm.Ins (I.Alu (I.Cmp_lt, 2, 21, 22));
        Asm.Ins (I.Br (I.Ne_z, 2, I.Label "keep"));
        Asm.Ins (I.Li (21, Int64.of_int Pc_isa.Program.data_base));
        Asm.Label "keep";
        Asm.Ins (I.Alui (I.Add, 20, 20, -1));
        Asm.Ins (I.Br (I.Gt_z, 20, I.Label "top"));
        Asm.Ins I.Halt;
      ]
  in
  let missing = Sim.run Config.base prog in
  let fitting = Sim.run Config.base resident in
  Alcotest.(check bool) "big ring misses" true (Sim.l1d_mpi missing > 0.05);
  Alcotest.(check bool) "small ring hits" true (Sim.l1d_mpi fitting < 0.01);
  Alcotest.(check bool) "memory misses cost cycles" true
    (fitting.Sim.ipc > missing.Sim.ipc *. 1.5)

let test_lsq_limits_memory_throughput () =
  (* a loop of independent loads: a tiny LSQ throttles it *)
  let body = List.init 8 (fun k -> I.Load (1 + k, 29, 8 * k)) in
  let p = loop_program ~name:"lsq" ~iters:2000 body in
  let wide k = Config.with_rob_lsq ~rob:64 ~lsq:k (Config.with_widths 4 Config.base) in
  let small = ipc { (wide 2) with Config.mem_ports = 4 } p in
  let large = ipc { (wide 32) with Config.mem_ports = 4 } p in
  Alcotest.(check bool) "bigger LSQ is at least as fast" true (large >= small)

let test_mem_ports_limit_loads () =
  let body = List.init 8 (fun k -> I.Load (1 + k, 29, 8 * k)) in
  let p = loop_program ~name:"ports" ~iters:2000 body in
  let cfg ports =
    { (Config.with_rob_lsq ~rob:64 ~lsq:32 (Config.with_widths 4 Config.base)) with
      Config.mem_ports = ports }
  in
  let one = ipc (cfg 1) p and four = ipc (cfg 4) p in
  Alcotest.(check bool) "more ports, more load throughput" true (four > one *. 1.3)

let test_commit_width_bounds_ipc () =
  let body = List.init 16 (fun k -> I.Alu (I.Add, 1 + (k mod 12), 10, 11)) in
  let p = loop_program ~name:"commit" ~iters:2000 body in
  let base = Config.with_rob_lsq ~rob:64 ~lsq:32 (Config.with_widths 4 Config.base) in
  let base = { base with Config.int_alu_units = 8 } in
  let narrow = ipc { base with Config.commit_width = 1 } p in
  Alcotest.(check bool) "commit width 1 caps IPC at 1" true (narrow <= 1.0 +. 1e-6);
  let wide = ipc { base with Config.commit_width = 8 } p in
  Alcotest.(check bool) "wider commit lifts the cap" true (wide > 1.5)

let test_div_occupies_unit () =
  let divs = loop_program ~name:"divs" ~iters:500 (List.init 8 (fun _ -> I.Div (1, 10, 11))) in
  let adds = loop_program ~name:"adds" ~iters:500 (List.init 8 (fun _ -> I.Alu (I.Add, 1, 10, 11))) in
  let r_div = ipc wide_config divs and r_add = ipc wide_config adds in
  Alcotest.(check bool) "divides throttle issue" true (r_add > 3.0 *. r_div)

let test_stats_accounting () =
  let p = loop_program ~name:"acct" ~iters:100 [ I.Load (1, 29, 0); I.Store (2, 29, 8) ] in
  let r = Sim.run Config.base p in
  Alcotest.(check int) "instrs" (1 + (100 * 4) + 1) r.Sim.instrs;
  Alcotest.(check int) "branches" 100 r.Sim.branches;
  Alcotest.(check int) "loads counted"
    100
    r.Sim.class_counts.(I.class_index I.C_load);
  Alcotest.(check int) "stores counted" 100 r.Sim.class_counts.(I.class_index I.C_store);
  Alcotest.(check int) "l1d accesses = loads + stores" 200 r.Sim.l1d_accesses;
  Alcotest.(check bool) "cycles positive" true (r.Sim.cycles > 0);
  Alcotest.(check (float 1e-9)) "ipc consistent"
    (float_of_int r.Sim.instrs /. float_of_int r.Sim.cycles)
    r.Sim.ipc

let test_icache_misses_slow_fetch () =
  (* a huge straight-line program misses a tiny I-cache every line *)
  let body = List.init 6000 (fun i -> Asm.Ins (I.Alu (I.Add, 1 + (i mod 8), 10, 11))) in
  let prog = Asm.assemble ~name:"bigcode" (body @ [ Asm.Ins I.Halt ]) in
  let tiny_icache =
    let c = Config.base in
    {
      c with
      Config.icache =
        {
          c.Config.icache with
          Pc_caches.Hierarchy.l1 =
            Pc_caches.Cache.config ~size_bytes:256 ~assoc:1 ~line_bytes:32;
          l2 = None;
        };
      name = "tiny-icache";
    }
  in
  let slow = ipc tiny_icache prog in
  let fast = ipc Config.base prog in
  Alcotest.(check bool) "i-cache misses hurt" true (fast > slow *. 1.3)

let qcheck_ipc_positive_and_bounded =
  QCheck.Test.make ~name:"IPC positive and below total width for any program" ~count:30
    QCheck.(pair (int_range 1 60) (int_range 2 2000))
    (fun (nbody, iters) ->
      let body = List.init nbody (fun i -> I.Alu (I.Add, 1 + (i mod 12), 10, 11)) in
      let p = loop_program ~name:"q" ~iters body in
      let r = Sim.run ~max_instrs:100_000 Config.base p in
      r.Sim.ipc > 0.0 && r.Sim.ipc <= float_of_int Config.base.Config.issue_width +. 0.001)

let qcheck_deterministic =
  QCheck.Test.make ~name:"timing simulation is deterministic" ~count:20
    QCheck.(int_range 1 40)
    (fun nbody ->
      let body = List.init nbody (fun i -> I.Alu (I.Add, 1 + (i mod 12), 10, 11)) in
      let p = loop_program ~name:"q" ~iters:500 body in
      let r1 = Sim.run Config.base p and r2 = Sim.run Config.base p in
      r1.Sim.cycles = r2.Sim.cycles && r1.Sim.instrs = r2.Sim.instrs)

(* --- known answers: loops whose cycles per iteration have a closed form --- *)

let known_answer_cases =
  let wide = Config.with_widths 4 Config.base in
  let mul_latency = Config.base.Config.latencies.(I.class_index I.C_int_mul) in
  [
    ( "dependent muls run at the multiply latency",
      Config.base,
      List.init 64 (fun _ -> I.Mul (1, 1, 10)),
      float_of_int (mul_latency * 64) );
    ( "independent muls share one pipelined multiplier",
      wide,
      List.init 64 (fun i -> I.Mul (1 + (i mod 8), 10, 11)),
      64.0 );
    (* the loop's add and branch also take the two ALUs *)
    ( "independent adds bound by the ALU count",
      wide,
      independent_alu_body 64,
      (64.0 +. 2.0) /. 2.0 );
    ( "independent adds bound by the width",
      { wide with Config.int_alu_units = 8 },
      independent_alu_body 64,
      (64.0 +. 2.0) /. 4.0 );
  ]

let test_known_answer (_, cfg, body, expected) () =
  let iters = 2000 in
  let r = Sim.run ~max_instrs:1_000_000 cfg (loop_program ~name:"ka" ~iters body) in
  let per_iter = float_of_int r.Sim.cycles /. float_of_int iters in
  Alcotest.(check bool)
    (Printf.sprintf "%.2f cycles/iteration within 1%% of %.2f" per_iter expected)
    true
    (Float.abs (per_iter -. expected) <= 0.01 *. expected);
  Alcotest.(check int) "only the loop exit mispredicts" 1 r.Sim.mispredictions

(* A predictable loop pays for one redirect at most: its only
   misprediction is the exit, so against a perfect predictor the base
   GAp run costs at most one penalty plus a front-end refill (and the
   cycle the branch resolves in).  The fetch cycles charged to that
   redirect are what it delays in-order dispatch by, however far fetch
   ran ahead: the same penalty, refill and resolve cycle, plus any wait
   of the branch for an issue slot or ALU behind the older instructions
   in the ROB: at most one cycle for every [min issue_width
   int_alu_units] of them.
   Under [Perfect] nothing mispredicts and no fetch cycle is charged to
   a redirect. *)
let predictable_loop_cases =
  List.map (fun (name, cfg, body, _) -> (name, cfg, body)) known_answer_cases
  @ [ ("one add", Config.base, [ I.Alu (I.Add, 1, 1, 10) ]) ]

let test_predictable_loop (_, (cfg : Config.t), body) () =
  let p = loop_program ~name:"ka" ~iters:2000 body in
  let run cfg = Sim.run ~max_instrs:1_000_000 cfg p in
  let perfect = run (Config.with_bpred Predictor.Perfect cfg) in
  let gap = run cfg in
  Alcotest.(check int) "no misprediction under Perfect" 0 perfect.Sim.mispredictions;
  Alcotest.(check int) "no redirect stall under Perfect" 0
    perfect.Sim.fetch_stall_mispredict_cycles;
  let extra = gap.Sim.cycles - perfect.Sim.cycles in
  let bound = cfg.Config.mispredict_penalty + cfg.Config.frontend_depth + 1 in
  Alcotest.(check bool)
    (Printf.sprintf "GAp costs %d cycles over Perfect, within [0, %d]" extra bound)
    true
    (extra >= 0 && extra <= bound);
  let stall = gap.Sim.fetch_stall_mispredict_cycles in
  let rate = Int.min cfg.Config.issue_width cfg.Config.int_alu_units in
  let stall_bound = bound + ((cfg.Config.rob_size - 1 + rate - 1) / rate) in
  Alcotest.(check int) "one misprediction under GAp" 1 gap.Sim.mispredictions;
  Alcotest.(check bool)
    (Printf.sprintf "%d redirect stall cycles, within [0, %d]" stall stall_bound)
    true
    (stall >= 0 && stall <= stall_bound)

(* [Sim.of_counters] is the one builder of a result outside [finish]:
   fed a finished result's own counters, it must give that result back,
   field for field. *)
let test_of_counters_rebuilds () =
  let configs =
    Config.base
    :: List.map
         (fun (d : Perfclone.Experiments.design_change) -> d.Perfclone.Experiments.config)
         (Perfclone.Experiments.design_changes ())
  in
  List.iter
    (fun name ->
      let p = Pc_workloads.Registry.(compile (find name)) in
      List.iter
        (fun (cfg : Config.t) ->
          let r = Sim.run ~max_instrs:100_000 cfg p in
          let rebuilt =
            Sim.of_counters ~config_name:r.Sim.config_name ~instrs:r.Sim.instrs
              ~cycles:r.Sim.cycles (fun read -> read r)
          in
          if rebuilt <> r then
            Alcotest.failf "%s under %s: rebuilt result differs" name cfg.Config.name)
        configs)
    [ "crc32"; "qsort"; "sha"; "fft"; "dijkstra" ]

(* The timing model's cache and predictor counters are registered with
   the model, not on its first run: a tool that never runs it still
   lists all twelve, at 0.  This group runs first, before any
   [Sim.run] in this process. *)
let test_counters_listed_before_any_run () =
  let counters = (Pc_obs.Metrics.snapshot ()).Pc_obs.Metrics.counters in
  List.iter
    (fun name ->
      Alcotest.(check (option int)) name (Some 0) (List.assoc_opt name counters))
    (List.concat_map
       (fun cache ->
         List.map
           (fun c -> Printf.sprintf "uarch.%s.%s" cache c)
           [ "l1.accesses"; "l1.misses"; "l2.accesses"; "l2.misses"; "mem.accesses" ])
       [ "icache"; "dcache" ]
    @ [ "uarch.bpred.lookups"; "uarch.bpred.mispredicts" ])

let () =
  Alcotest.run "pc_uarch"
    [
      ( "metrics",
        [
          Alcotest.test_case "timing counters listed before any run" `Quick
            test_counters_listed_before_any_run;
        ] );
      ( "resources",
        [
          Alcotest.test_case "IPC bounded by width" `Quick test_ipc_bounded_by_width;
          Alcotest.test_case "dependencies limit ILP" `Quick test_dependencies_limit_ilp;
          Alcotest.test_case "width scales independent code" `Quick
            test_width_scales_independent_code;
          Alcotest.test_case "in-order never faster" `Quick test_in_order_never_faster;
          Alcotest.test_case "OoO hides load latency" `Quick test_ooo_hides_load_latency;
          Alcotest.test_case "bigger ROB exposes memory parallelism" `Quick
            test_bigger_rob_helps_memory_parallelism;
          Alcotest.test_case "divides occupy their unit" `Quick test_div_occupies_unit;
          Alcotest.test_case "LSQ limits memory throughput" `Quick
            test_lsq_limits_memory_throughput;
          Alcotest.test_case "memory ports limit loads" `Quick test_mem_ports_limit_loads;
          Alcotest.test_case "commit width bounds IPC" `Quick test_commit_width_bounds_ipc;
        ] );
      ( "memory+branch",
        [
          Alcotest.test_case "mispredictions cost cycles" `Quick
            test_mispredictions_cost_cycles;
          Alcotest.test_case "D-cache size matters" `Quick test_dcache_size_matters;
          Alcotest.test_case "I-cache misses slow fetch" `Quick
            test_icache_misses_slow_fetch;
        ] );
      ( "known-answer",
        List.map
          (fun ((name, _, _, _) as case) ->
            Alcotest.test_case name `Quick (test_known_answer case))
          known_answer_cases );
      ( "one-redirect",
        List.map
          (fun ((name, _, _) as case) ->
            Alcotest.test_case name `Quick (test_predictable_loop case))
          predictable_loop_cases );
      ( "accounting",
        [
          Alcotest.test_case "statistics" `Quick test_stats_accounting;
          QCheck_alcotest.to_alcotest qcheck_ipc_positive_and_bounded;
          QCheck_alcotest.to_alcotest qcheck_deterministic;
          Alcotest.test_case "a result rebuilt from its counters" `Quick
            test_of_counters_rebuilds;
        ] );
    ]
