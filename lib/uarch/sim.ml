module I = Pc_isa.Instr
module Machine = Pc_funcsim.Machine
module Hierarchy = Pc_caches.Hierarchy
module Predictor = Pc_branch.Predictor

(* Cycle arithmetic uses [Int.max]: [Stdlib.max] is polymorphic, and
   without flambda each use is a C call to the generic comparison. *)

type result = {
  config_name : string;
  instrs : int;
  cycles : int;
  ipc : float;
  class_counts : int array;
  branches : int;
  mispredictions : int;
  l1i_accesses : int;
  l1i_misses : int;
  l1d_accesses : int;
  l1d_misses : int;
  l2_accesses : int;
  l2_misses : int;
  mem_accesses : int;
  fetch_stall_icache_cycles : int;
  fetch_stall_mispredict_cycles : int;
}

(* In-order bandwidth tracker: at most [width] events per cycle, cycles
   taken in non-decreasing order. *)
module Slot = struct
  type t = { width : int; mutable cycle : int; mutable used : int }

  let create width = { width; cycle = -1; used = 0 }

  let take t earliest =
    if earliest > t.cycle then begin
      t.cycle <- earliest;
      t.used <- 1;
      earliest
    end
    else if t.used < t.width then begin
      t.used <- t.used + 1;
      t.cycle
    end
    else begin
      t.cycle <- t.cycle + 1;
      t.used <- 1;
      t.cycle
    end
end

(* Out-of-order bandwidth tracker: at most [width] events per cycle, any
   cycle order.  Backed by a tagged circular table; in-flight cycles span
   far less than the window. *)
module Cycle_table = struct
  let window = 1 lsl 15

  type t = { width : int; tags : int array; counts : int array }

  let create width = { width; tags = Array.make window (-1); counts = Array.make window 0 }

  let rec take t cycle =
    let idx = cycle land (window - 1) in
    if t.tags.(idx) <> cycle then begin
      t.tags.(idx) <- cycle;
      t.counts.(idx) <- 1;
      cycle
    end
    else if t.counts.(idx) < t.width then begin
      t.counts.(idx) <- t.counts.(idx) + 1;
      cycle
    end
    else take t (cycle + 1)
end

(* A pool of identical functional units.  Pipelined units accept a new
   operation every cycle ([occupancy] 1); divides occupy the unit for the
   whole latency. *)
module Fu_pool = struct
  type t = { free_at : int array }

  let create n = { free_at = Array.make (Int.max n 1) 0 }

  let acquire t ~earliest ~occupancy =
    let best = ref 0 in
    for u = 1 to Array.length t.free_at - 1 do
      if t.free_at.(u) < t.free_at.(!best) then best := u
    done;
    let start = Int.max earliest t.free_at.(!best) in
    t.free_at.(!best) <- start + occupancy;
    start
end

let c_instrs = Pc_obs.Metrics.counter "uarch.instrs"
let c_cycles = Pc_obs.Metrics.counter "uarch.cycles"
let c_stall_icache = Pc_obs.Metrics.counter "uarch.fetch_stall.icache_cycles"
let c_stall_mispredict = Pc_obs.Metrics.counter "uarch.fetch_stall.mispredict_cycles"

(* Registered with the rest so every report of a tool that links the
   timing model lists them, at 0 when no run used it. *)
let hierarchy_counters prefix =
  List.map
    (fun (suffix, read) -> (Pc_obs.Metrics.counter (prefix ^ suffix), read))
    [
      (".l1.accesses", Hierarchy.l1_accesses);
      (".l1.misses", Hierarchy.l1_misses);
      (".l2.accesses", Hierarchy.l2_accesses);
      (".l2.misses", Hierarchy.l2_misses);
      (".mem.accesses", Hierarchy.mem_accesses);
    ]

let c_icache = hierarchy_counters "uarch.icache"
let c_dcache = hierarchy_counters "uarch.dcache"
let c_bpred_lookups = Pc_obs.Metrics.counter "uarch.bpred.lookups"
let c_bpred_mispredicts = Pc_obs.Metrics.counter "uarch.bpred.mispredicts"

(* The whole scheduling state of one simulated core, so a retired
   stream can be fed incrementally (instruction by instruction, from
   any producer — a live functional machine, a packed replay trace, a
   statistical-simulation walk, or a multi-tenant arbiter interleaving
   several streams).  [run] below is exactly [create] + [feed_batch]
   over one batched functional run + [finish]. *)
type state = {
  st_cfg : Config.t;
  icache : Hierarchy.t;
  dcache : Hierarchy.t;
  bpred : Predictor.t;
  fetch_slot : Slot.t;
  dispatch_slot : Slot.t;
  commit_slot : Slot.t;
  issue_table : Cycle_table.t;
  int_alu : Fu_pool.t;
  int_mul : Fu_pool.t;
  fp_alu : Fu_pool.t;
  fp_mul : Fu_pool.t;
  mem_port : Fu_pool.t;
  (* Completion cycle of the last writer of each shared register id.
     r0 (id 0) stays 0: it is architecturally constant. *)
  reg_ready : int array;
  (* Ring buffers of commit cycles for ROB / LSQ occupancy. *)
  rob : int array;
  lsq : int array;
  st_class_counts : int array;
  icache_hit_latency : int;
  mutable index : int;
  mutable mem_index : int;
  mutable fetch_ready : int;
  mutable last_issue : int;
  mutable last_commit : int;
  mutable stall_icache : int;
  mutable stall_mispredict : int;
}

let create ?icache ?dcache (cfg : Config.t) =
  {
    st_cfg = cfg;
    icache =
      (match icache with Some h -> h | None -> Hierarchy.create cfg.icache);
    dcache =
      (match dcache with Some h -> h | None -> Hierarchy.create cfg.dcache);
    bpred = Predictor.create cfg.bpred;
    fetch_slot = Slot.create cfg.fetch_width;
    dispatch_slot = Slot.create cfg.decode_width;
    commit_slot = Slot.create cfg.commit_width;
    issue_table = Cycle_table.create cfg.issue_width;
    int_alu = Fu_pool.create cfg.int_alu_units;
    int_mul = Fu_pool.create cfg.int_mul_units;
    fp_alu = Fu_pool.create cfg.fp_alu_units;
    fp_mul = Fu_pool.create cfg.fp_mul_units;
    mem_port = Fu_pool.create cfg.mem_ports;
    reg_ready = Array.make 64 0;
    rob = Array.make cfg.rob_size 0;
    lsq = Array.make (Int.max cfg.lsq_size 1) 0;
    st_class_counts = Array.make I.class_count 0;
    icache_hit_latency = cfg.icache.Hierarchy.l1_latency;
    index = 0;
    mem_index = 0;
    fetch_ready = 0;
    last_issue = 0;
    last_commit = 0;
    stall_icache = 0;
    stall_mispredict = 0;
  }

(* The latest ready cycle of the registers in [reads], at least [acc].
   Top level rather than a closure over [st], which would allocate on
   every instruction. *)
let rec reads_ready reg_ready acc = function
  | [] -> acc
  | id :: rest -> reads_ready reg_ready (Int.max acc reg_ready.(id)) rest

let step st ~pc ~cls ~reads ~write ~addr ~taken =
  let cfg = st.st_cfg in
  let i = st.index in
  st.index <- i + 1;
  let ci = I.class_index cls in
  st.st_class_counts.(ci) <- st.st_class_counts.(ci) + 1;
  (* --- fetch --- *)
  let f0 = Slot.take st.fetch_slot st.fetch_ready in
  let ilat = Hierarchy.access st.icache (4 * pc) in
  if ilat > st.icache_hit_latency then
    st.stall_icache <- st.stall_icache + (ilat - st.icache_hit_latency);
  let fc = f0 + (ilat - st.icache_hit_latency) in
  if fc > st.fetch_ready then st.fetch_ready <- fc;
  (* --- dispatch --- *)
  let rob_free = st.rob.(i mod cfg.rob_size) in
  let is_mem = cls = I.C_load || cls = I.C_store in
  let lsq_free =
    if is_mem then st.lsq.(st.mem_index mod Array.length st.lsq) else 0
  in
  let d =
    Slot.take st.dispatch_slot
      (Int.max (fc + cfg.frontend_depth) (Int.max rob_free lsq_free))
  in
  (* --- register readiness --- *)
  let ready = reads_ready st.reg_ready d reads in
  let ready = if cfg.in_order then Int.max ready st.last_issue else ready in
  (* --- issue: bandwidth then functional unit --- *)
  let issue0 = Cycle_table.take st.issue_table ready in
  let lat = cfg.latencies.(ci) in
  let issue =
    match cls with
    | I.C_int_alu | I.C_branch | I.C_jump | I.C_other ->
      Fu_pool.acquire st.int_alu ~earliest:issue0 ~occupancy:1
    | I.C_int_mul -> Fu_pool.acquire st.int_mul ~earliest:issue0 ~occupancy:1
    | I.C_int_div ->
      Fu_pool.acquire st.int_mul ~earliest:issue0 ~occupancy:lat
    | I.C_fp_alu -> Fu_pool.acquire st.fp_alu ~earliest:issue0 ~occupancy:1
    | I.C_fp_mul -> Fu_pool.acquire st.fp_mul ~earliest:issue0 ~occupancy:1
    | I.C_fp_div -> Fu_pool.acquire st.fp_mul ~earliest:issue0 ~occupancy:lat
    | I.C_load | I.C_store -> Fu_pool.acquire st.mem_port ~earliest:issue0 ~occupancy:1
  in
  if cfg.in_order && issue > st.last_issue then st.last_issue <- issue;
  (* --- complete --- *)
  let complete =
    match cls with
    | I.C_load -> issue + Hierarchy.access st.dcache addr + lat
    | I.C_store ->
      (* Update tag state and counters; the store buffer hides the
         latency from the pipeline. *)
      ignore (Hierarchy.access st.dcache addr);
      issue + lat
    | _ -> issue + lat
  in
  (* --- writeback: wake up dependents --- *)
  (match write with
  | -1 -> ()
  | 0 -> () (* r0 is constant *)
  | id -> st.reg_ready.(id) <- complete);
  (* --- branch resolution --- *)
  (match cls with
  | I.C_branch ->
    let correct = Predictor.observe st.bpred ~pc ~taken in
    if not correct then begin
      let redirect = complete + cfg.mispredict_penalty in
      if redirect > st.fetch_ready then begin
        (* The ROB does not back-pressure fetch, so [fetch_ready] can
           lag far behind dispatch.  Dispatch is in order, so without
           the redirect the next instruction's fetch could not matter
           before this branch's dispatch less the front-end depth: only
           the delay past that point is the redirect's. *)
        let unredirected = Int.max st.fetch_ready (d - cfg.frontend_depth) in
        st.stall_mispredict <- st.stall_mispredict + (redirect - unredirected);
        st.fetch_ready <- redirect
      end
    end
  | _ -> ());
  (* --- commit --- *)
  let m = Slot.take st.commit_slot (Int.max (complete + 1) st.last_commit) in
  st.last_commit <- m;
  st.rob.(i mod cfg.rob_size) <- m;
  if is_mem then begin
    st.lsq.(st.mem_index mod Array.length st.lsq) <- m;
    st.mem_index <- st.mem_index + 1
  end

let feed_batch st (statics : Machine.statics) (batch : Machine.batch) =
  let classes = statics.Machine.s_classes in
  let reads = statics.Machine.s_read_lists in
  let writes = statics.Machine.s_write_ids in
  for j = 0 to batch.Machine.len - 1 do
    let pc = batch.Machine.b_pc.(j) in
    step st ~pc ~cls:classes.(pc) ~reads:reads.(pc) ~write:writes.(pc)
      ~addr:batch.Machine.b_addr.(j) ~taken:batch.Machine.b_taken.(j)
  done

let committed_cycle st = st.last_commit

let finish st =
  let cfg = st.st_cfg in
  let instrs = st.index in
  let cycles = Int.max st.last_commit 1 in
  Pc_obs.Metrics.add c_instrs instrs;
  Pc_obs.Metrics.add c_cycles cycles;
  Pc_obs.Metrics.add c_stall_icache st.stall_icache;
  Pc_obs.Metrics.add c_stall_mispredict st.stall_mispredict;
  List.iter (fun (c, read) -> Pc_obs.Metrics.add c (read st.icache)) c_icache;
  List.iter (fun (c, read) -> Pc_obs.Metrics.add c (read st.dcache)) c_dcache;
  Pc_obs.Metrics.add c_bpred_lookups (Predictor.lookups st.bpred);
  Pc_obs.Metrics.add c_bpred_mispredicts (Predictor.mispredictions st.bpred);
  {
    config_name = cfg.name;
    instrs;
    cycles;
    ipc = float_of_int instrs /. float_of_int cycles;
    class_counts = st.st_class_counts;
    branches = Predictor.lookups st.bpred;
    mispredictions = Predictor.mispredictions st.bpred;
    l1i_accesses = Hierarchy.l1_accesses st.icache;
    l1i_misses = Hierarchy.l1_misses st.icache;
    l1d_accesses = Hierarchy.l1_accesses st.dcache;
    l1d_misses = Hierarchy.l1_misses st.dcache;
    l2_accesses = Hierarchy.l2_accesses st.icache + Hierarchy.l2_accesses st.dcache;
    l2_misses = Hierarchy.l2_misses st.icache + Hierarchy.l2_misses st.dcache;
    mem_accesses = Hierarchy.mem_accesses st.icache + Hierarchy.mem_accesses st.dcache;
    fetch_stall_icache_cycles = st.stall_icache;
    fetch_stall_mispredict_cycles = st.stall_mispredict;
  }

let of_counters ~config_name ~instrs ~cycles count =
  {
    config_name;
    instrs;
    cycles;
    ipc = float_of_int instrs /. float_of_int cycles;
    class_counts = Array.init I.class_count (fun i -> count (fun r -> r.class_counts.(i)));
    branches = count (fun r -> r.branches);
    mispredictions = count (fun r -> r.mispredictions);
    l1i_accesses = count (fun r -> r.l1i_accesses);
    l1i_misses = count (fun r -> r.l1i_misses);
    l1d_accesses = count (fun r -> r.l1d_accesses);
    l1d_misses = count (fun r -> r.l1d_misses);
    l2_accesses = count (fun r -> r.l2_accesses);
    l2_misses = count (fun r -> r.l2_misses);
    mem_accesses = count (fun r -> r.mem_accesses);
    fetch_stall_icache_cycles = count (fun r -> r.fetch_stall_icache_cycles);
    fetch_stall_mispredict_cycles = count (fun r -> r.fetch_stall_mispredict_cycles);
  }

let run ?(max_instrs = 10_000_000) cfg program =
  let st = create cfg in
  let machine = Machine.load program in
  ignore
    (Machine.run_batched ~max_instrs machine
       (feed_batch st (Machine.statics machine)));
  finish st

let mispredict_rate r =
  if r.branches = 0 then 0.0
  else float_of_int r.mispredictions /. float_of_int r.branches

let l1d_mpi r =
  if r.instrs = 0 then 0.0 else float_of_int r.l1d_misses /. float_of_int r.instrs
