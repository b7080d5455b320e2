module I = Pc_isa.Instr
module Config = Pc_uarch.Config
module Sim = Pc_uarch.Sim

type estimate = {
  ipc : float;
  base_cycles : float;
  branch_cycles : float;
  memory_cycles : float;
}

(* Build the estimate from the counters of a timing run.  Sim.run
   outputs are used only for their event counts — the formula below
   never looks at [cycles]. *)
let of_counters (cfg : Config.t) (r : Sim.result) =
  let n = float_of_int (max 1 r.Sim.instrs) in
  let count ci = float_of_int r.Sim.class_counts.(I.class_index ci) in
  (* Effective dispatch rate: machine width derated by the long-latency
     operation mix (each divide/multiply occupies its unit). *)
  let width = float_of_int cfg.Config.issue_width in
  let lat ci = float_of_int cfg.Config.latencies.(I.class_index ci) in
  let serial_work =
    (count I.C_int_div *. lat I.C_int_div /. float_of_int cfg.Config.int_mul_units)
    +. (count I.C_fp_div *. lat I.C_fp_div /. float_of_int cfg.Config.fp_mul_units)
  in
  let base_cycles = (n /. width) +. serial_work in
  (* Branch intervals: each misprediction drains the frontend. *)
  let penalty =
    float_of_int (cfg.Config.frontend_depth + cfg.Config.mispredict_penalty + 1)
  in
  let branch_cycles = float_of_int r.Sim.mispredictions *. penalty in
  (* Memory intervals: L2 hits expose (l2 latency) cycles, memory misses
     expose the memory latency; an out-of-order window overlaps
     independent misses (simple MLP derating by the LSQ depth). *)
  let h = cfg.Config.dcache in
  let l2_lat = float_of_int h.Pc_caches.Hierarchy.l2_latency in
  let mem_lat = float_of_int h.Pc_caches.Hierarchy.mem_latency in
  let mlp =
    if cfg.Config.in_order then 1.0
    else max 1.0 (sqrt (float_of_int cfg.Config.lsq_size) /. 1.5)
  in
  let l2_hits = float_of_int (r.Sim.l1d_misses - (r.Sim.mem_accesses - r.Sim.l1i_misses)) in
  let l2_hits = max 0.0 l2_hits in
  let mem_misses = float_of_int (max 0 r.Sim.mem_accesses) in
  let memory_cycles = ((l2_hits *. l2_lat) +. (mem_misses *. mem_lat)) /. mlp in
  let cycles = base_cycles +. branch_cycles +. memory_cycles in
  { ipc = n /. cycles; base_cycles; branch_cycles; memory_cycles }

(* The miss events come from a full timing run with the caller's
   configuration: only its counters are read, but the run costs as much
   as a detailed simulation. *)
let of_program ?(max_instrs = 2_000_000) cfg program =
  let r = Sim.run ~max_instrs cfg program in
  of_counters cfg r

let of_profile ?seed ?instrs cfg profile =
  let r = Statsim.estimate ?seed ?instrs cfg profile in
  of_counters cfg r
