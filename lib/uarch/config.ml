module I = Pc_isa.Instr
module Cache = Pc_caches.Cache
module Hierarchy = Pc_caches.Hierarchy

type t = {
  name : string;
  fetch_width : int;
  decode_width : int;
  issue_width : int;
  commit_width : int;
  rob_size : int;
  lsq_size : int;
  in_order : bool;
  int_alu_units : int;
  int_mul_units : int;
  fp_alu_units : int;
  fp_mul_units : int;
  mem_ports : int;
  frontend_depth : int;
  mispredict_penalty : int;
  bpred : Pc_branch.Predictor.config;
  icache : Hierarchy.config;
  dcache : Hierarchy.config;
  latencies : int array;
}

(* Execution latencies per class, SimpleScalar-like.  The load entry is
   the extra pipeline latency on top of the cache access time. *)
let default_latencies =
  let a = Array.make I.class_count 1 in
  let set c v = a.(I.class_index c) <- v in
  set I.C_int_alu 1;
  set I.C_int_mul 3;
  set I.C_int_div 12;
  set I.C_fp_alu 2;
  set I.C_fp_mul 4;
  set I.C_fp_div 12;
  set I.C_load 0 (* cache access latency dominates *);
  set I.C_store 1;
  set I.C_branch 1;
  set I.C_jump 1;
  set I.C_other 1;
  a

let l2_config = Cache.config ~size_bytes:(64 * 1024) ~assoc:4 ~line_bytes:64

let l1_16k = Cache.config ~size_bytes:(16 * 1024) ~assoc:2 ~line_bytes:32

let hierarchy l1 =
  {
    Hierarchy.l1;
    l1_latency = 1;
    l2 = Some l2_config;
    l2_latency = 6;
    mem_latency = 40;
  }

let base =
  {
    name = "base";
    fetch_width = 1;
    decode_width = 1;
    issue_width = 1;
    commit_width = 2;
    rob_size = 16;
    lsq_size = 8;
    in_order = false;
    int_alu_units = 2;
    int_mul_units = 1;
    fp_alu_units = 1;
    fp_mul_units = 1;
    mem_ports = 2;
    frontend_depth = 3;
    mispredict_penalty = 3;
    bpred = Pc_branch.Predictor.base_gap;
    icache = hierarchy l1_16k;
    dcache = hierarchy l1_16k;
    latencies = default_latencies;
  }

let with_rob_lsq ~rob ~lsq t =
  { t with rob_size = rob; lsq_size = lsq; name = Printf.sprintf "%s+rob%d" t.name rob }

let with_l1d_config l1 t =
  {
    t with
    dcache = { t.dcache with Hierarchy.l1 };
    name = Printf.sprintf "%s+d$%s" t.name (Cache.config_name l1);
  }

let with_l1d_size size t =
  let l1 = t.dcache.Hierarchy.l1 in
  with_l1d_config
    (Cache.config ~size_bytes:size ~assoc:l1.Cache.assoc
       ~line_bytes:l1.Cache.line_bytes)
    t

let with_widths w t =
  {
    t with
    fetch_width = w;
    decode_width = w;
    issue_width = w;
    commit_width = 2 * w;
    name = Printf.sprintf "%s+w%d" t.name w;
  }

let with_bpred bpred t =
  {
    t with
    bpred;
    name = Printf.sprintf "%s+bp:%s" t.name (Pc_branch.Predictor.config_name bpred);
  }

let with_in_order in_order t =
  { t with in_order; name = (if in_order then t.name ^ "+inorder" else t.name) }
