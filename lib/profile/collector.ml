module I = Pc_isa.Instr
module Machine = Pc_funcsim.Machine

(* --- per-static-instruction accumulators --- *)

type mem_acc = {
  mutable m_refs : int;
  mutable m_last_addr : int;
  mutable m_min_addr : int;
  mutable m_max_addr : int;
  mutable m_prev_stride : int;  (* min_int before two accesses happened *)
  mutable m_pending : int;  (* repeats of [m_prev_stride] not yet in [m_strides] *)
  m_run_starts : (int, int) Hashtbl.t;  (* stride -> number of runs of it *)
  mutable m_cur_run_start : int;  (* address where the current run began *)
  mutable m_cur_run_len : int;  (* accesses since the run began *)
  m_row_strides : (int, int) Hashtbl.t;  (* run-start-to-run-start distance *)
  (* 64-access window-span accumulation *)
  mutable m_batch_n : int;
  mutable m_batch_min : int;
  mutable m_batch_max : int;
  mutable m_span_sum : int;
  mutable m_batches : int;
  m_strides : (int, int) Hashtbl.t;  (* stride -> count, keys in first-seen order *)
}

type branch_acc = {
  mutable b_execs : int;
  mutable b_takens : int;
  mutable b_transitions : int;
  mutable b_last : bool;
  mutable b_seen : bool;
}

(* --- per-SFG-node accumulators --- *)

type node_acc = {
  n_pred : int;  (* predecessor block's start pc, -1 at entry *)
  n_start : int;
  n_index : int;
  mutable n_count : int;
  mutable n_size : int;  (* 0 until the first instance ends *)
  n_mix : int array;
  n_deps : int array;  (* one slot per dep bucket *)
  mutable n_mem_pcs : int array;  (* static pcs of memory ops, in block order *)
  mutable n_branch_pc : int;  (* terminating conditional branch's pc, or -1 *)
  n_succs : (int, edge) Hashtbl.t;  (* successor's start pc -> edge *)
  mutable n_last : edge;  (* the edge taken last, a one-entry cache *)
}

and edge = { e_start : int; e_to : node_acc; mutable e_count : int }

(* Bucket of every distance up to the last bound, so a dependency costs
   one lookup; longer distances go to the overflow bucket. *)
let dep_overflow = Array.length Profile.dep_bounds

let dep_table =
  let bounds = Profile.dep_bounds in
  Array.init (bounds.(dep_overflow - 1) + 1) (fun d ->
      let rec go i = if i >= dep_overflow || d <= bounds.(i) then i else go (i + 1) in
      go 0)

(* Count each register read of [ids] into its distance's bucket.
   Top-level, so the per-instruction call allocates no closure. *)
let rec count_deps deps last_writer now = function
  | [] -> ()
  | id :: rest ->
    let w = last_writer.(id) in
    if id <> 0 && w >= 0 then begin
      let d = now - w in
      let b = if d < Array.length dep_table then dep_table.(d) else dep_overflow in
      deps.(b) <- deps.(b) + 1
    end;
    count_deps deps last_writer now rest

let bump tbl key n =
  let c = try Hashtbl.find tbl key with Not_found -> 0 in
  Hashtbl.replace tbl key (c + n)

let new_mem_acc () =
  {
    m_refs = 0;
    m_last_addr = min_int;
    m_min_addr = max_int;
    m_max_addr = min_int;
    m_prev_stride = min_int;
    m_pending = 0;
    m_run_starts = Hashtbl.create 4;
    m_cur_run_start = min_int;
    m_cur_run_len = 0;
    m_row_strides = Hashtbl.create 4;
    m_batch_n = 0;
    m_batch_min = max_int;
    m_batch_max = min_int;
    m_span_sum = 0;
    m_batches = 0;
    m_strides = Hashtbl.create 4;
  }

(* Add the pending repeats of the previous stride to its count, whose
   key is already in [m_strides]. *)
let flush_stride a =
  if a.m_pending > 0 then begin
    bump a.m_strides a.m_prev_stride a.m_pending;
    a.m_pending <- 0
  end

let mem_ref a addr =
  if a.m_last_addr <> min_int then begin
    let stride = addr - a.m_last_addr in
    if stride = a.m_prev_stride then begin
      a.m_pending <- a.m_pending + 1;
      a.m_cur_run_len <- a.m_cur_run_len + 1
    end
    else begin
      (* a new run of this stride starts when the stride changes *)
      flush_stride a;
      bump a.m_strides stride 1;
      bump a.m_run_starts stride 1;
      (* Second-level ("row") stride: start-to-start distance between
         genuine runs.  A stride change after a single access is the
         tail of a jump, not a run boundary — skip it so 2-D patterns
         (walk, jump, walk, jump, ...) are not diluted. *)
      if a.m_cur_run_start = min_int then begin
        a.m_cur_run_start <- addr;
        a.m_cur_run_len <- 1
      end
      else if a.m_cur_run_len >= 2 then begin
        bump a.m_row_strides (addr - a.m_cur_run_start) 1;
        a.m_cur_run_start <- addr;
        a.m_cur_run_len <- 1
      end
      else a.m_cur_run_len <- a.m_cur_run_len + 1;
      a.m_prev_stride <- stride
    end
  end;
  a.m_refs <- a.m_refs + 1;
  a.m_last_addr <- addr;
  if addr < a.m_min_addr then a.m_min_addr <- addr;
  if addr > a.m_max_addr then a.m_max_addr <- addr;
  (* 64-access window span *)
  if addr < a.m_batch_min then a.m_batch_min <- addr;
  if addr > a.m_batch_max then a.m_batch_max <- addr;
  a.m_batch_n <- a.m_batch_n + 1;
  if a.m_batch_n >= 64 then begin
    a.m_span_sum <- a.m_span_sum + (a.m_batch_max - a.m_batch_min + 8);
    a.m_batches <- a.m_batches + 1;
    a.m_batch_n <- 0;
    a.m_batch_min <- max_int;
    a.m_batch_max <- min_int
  end

let branch_ref b taken =
  b.b_execs <- b.b_execs + 1;
  if taken then b.b_takens <- b.b_takens + 1;
  if b.b_seen && b.b_last <> taken then b.b_transitions <- b.b_transitions + 1;
  b.b_last <- taken;
  b.b_seen <- true

(* Each count's share of the total, all zeros when nothing was counted. *)
let fractions counts =
  let total = Array.fold_left ( + ) 0 counts in
  Array.map
    (fun c -> if total = 0 then 0.0 else float_of_int c /. float_of_int total)
    counts

(* A node's cache starts on an edge no block start matches. *)
let new_node ~pred ~start ~index =
  let rec n =
    {
      n_pred = pred;
      n_start = start;
      n_index = index;
      n_count = 0;
      n_size = 0;
      n_mix = Array.make I.class_count 0;
      n_deps = Array.make (dep_overflow + 1) 0;
      n_mem_pcs = [||];
      n_branch_pc = -1;
      n_succs = Hashtbl.create 4;
      n_last = { e_start = -1; e_to = n; e_count = 0 };
    }
  in
  n

let profile ?(start = 0) ?(max_instrs = 10_000_000) program =
  let machine = Machine.load program in
  (* Skip the pre-window prefix functionally: machines resume across
     [run_batched] calls, so the profiling pass below observes exactly
     the dynamic slice [start, start + max_instrs). *)
  if start > 0 then
    ignore (Machine.run_batched ~max_instrs:start machine ignore);
  (* Per-pc tables, built for this call only. *)
  let statics = Machine.statics machine in
  let read_lists = statics.Machine.s_read_lists
  and write_ids = statics.Machine.s_write_ids in
  let code_len = Array.length program.Pc_isa.Program.code in
  let cls = Array.map I.class_index statics.Machine.s_classes in
  let ends = Array.map I.is_control program.Pc_isa.Program.code in
  let ci_load = I.class_index I.C_load
  and ci_store = I.class_index I.C_store
  and ci_branch = I.class_index I.C_branch in
  let is_mem c = c = ci_load || c = ci_store in
  (* Accumulators indexed by pc, each made at its op's first execution. *)
  let mem_accs = Array.make code_len None and branch_accs = Array.make code_len None in
  let mem_acc pc =
    match mem_accs.(pc) with
    | Some a -> a
    | None ->
      let a = new_mem_acc () in
      mem_accs.(pc) <- Some a;
      a
  in
  let branch_acc pc =
    match branch_accs.(pc) with
    | Some b -> b
    | None ->
      let b = { b_execs = 0; b_takens = 0; b_transitions = 0; b_last = false; b_seen = false } in
      branch_accs.(pc) <- Some b;
      b
  in
  (* SFG nodes.  A block's start pc fixes its contents (every
     non-control instruction falls through to [pc + 1] and a control
     instruction ends the block), so the node [(previous start, start)]
     is known when a block begins and each instruction counts straight
     into it.  [root] precedes the entry block; its edges are not
     output. *)
  let root = new_node ~pred:(-2) ~start:(-1) ~index:(-1) in
  let node_tbl : (int, node_acc) Hashtbl.t = Hashtbl.create 1024 in
  let node_order = ref [] in
  let node_count = ref 0 in
  let edge_miss p pc =
    let e =
      match Hashtbl.find_opt p.n_succs pc with
      | Some e -> e
      | None ->
        let key = ((p.n_start + 1) * code_len) + pc in
        let n =
          match Hashtbl.find_opt node_tbl key with
          | Some n -> n
          | None ->
            let n = new_node ~pred:p.n_start ~start:pc ~index:!node_count in
            incr node_count;
            Hashtbl.add node_tbl key n;
            node_order := n :: !node_order;
            n
        in
        let e = { e_start = pc; e_to = n; e_count = 0 } in
        Hashtbl.add p.n_succs pc e;
        e
    in
    p.n_last <- e;
    e
  in
  (* The first instance's end fixes a node's size, memory pcs and
     branch pc, even when the budget cut it short. *)
  let end_block n last_pc =
    if n.n_size = 0 then begin
      n.n_size <- last_pc - n.n_start + 1;
      n.n_mem_pcs <-
        Array.of_list
          (List.filter (fun pc -> is_mem cls.(pc)) (List.init n.n_size (( + ) n.n_start)));
      if cls.(last_pc) = ci_branch then n.n_branch_pc <- last_pc
    end
  in
  let last_writer = Array.make 64 min_int in
  let retired = ref 0 in
  let node = ref root and in_block = ref false and last_pc = ref (-1) in
  let instrs =
    Machine.run_batched ~max_instrs machine (fun batch ->
        let pcs = batch.Machine.b_pc in
        for j = 0 to batch.Machine.len - 1 do
          let pc = pcs.(j) in
          if not !in_block then begin
            let p = !node in
            let e = if p.n_last.e_start = pc then p.n_last else edge_miss p pc in
            e.e_count <- e.e_count + 1;
            e.e_to.n_count <- e.e_to.n_count + 1;
            node := e.e_to;
            in_block := true
          end;
          let n = !node in
          let c = cls.(pc) in
          n.n_mix.(c) <- n.n_mix.(c) + 1;
          (* Register dependency distances. *)
          let now = !retired + j in
          count_deps n.n_deps last_writer now read_lists.(pc);
          (match write_ids.(pc) with
          | -1 | 0 -> ()
          | id -> last_writer.(id) <- now);
          (* [addr] is meaningful only for loads and stores and [taken]
             only for branches: the batch contract leaves them stale on
             every other row. *)
          if c = ci_branch then branch_ref (branch_acc pc) batch.Machine.b_taken.(j)
          else if is_mem c then mem_ref (mem_acc pc) batch.Machine.b_addr.(j);
          if ends.(pc) then begin
            end_block n pc;
            in_block := false
          end
        done;
        retired := !retired + batch.Machine.len;
        last_pc := pcs.(batch.Machine.len - 1))
  in
  if !in_block then end_block !node !last_pc;
  Array.iter (function Some a -> flush_stride a | None -> ()) mem_accs;
  (* --- summarise static memory instructions --- *)
  let mem_summary pc =
    let a = Option.get mem_accs.(pc) in
    let stride, stride_count =
      Hashtbl.fold
        (fun s c ((_, best_c) as best) -> if c > best_c then (s, c) else best)
        a.m_strides (0, 0)
    in
    (* With one reference there are no stride samples; treat as scalar. *)
    let stride = if stride_count = 0 then 0 else stride in
    let footprint = a.m_max_addr - a.m_min_addr + 8 in
    (* Average run length of the dominant stride: how many consecutive
       accesses it sustains before breaking. *)
    let stream_length =
      if stride = 0 then 1
      else
        let runs = try Hashtbl.find a.m_run_starts stride with Not_found -> 1 in
        max 1 (stride_count / max 1 runs) + 1
    in
    let window_span =
      if a.m_batches > 0 then a.m_span_sum / a.m_batches else footprint
    in
    (* Dominant row stride, kept only when it covers a majority of run
       transitions (regular 2-D walks). *)
    let row_stride =
      let best, best_c, total =
        Hashtbl.fold
          (fun r c (br, bc, t) -> if c > bc then (r, c, t + c) else (br, bc, t + c))
          a.m_row_strides (0, 0, 0)
      in
      if total >= 4 && best_c * 2 > total then best else 0
    in
    {
      Profile.static_pc = pc;
      is_store = cls.(pc) = ci_store;
      stride;
      stream_length;
      footprint;
      window_span;
      region = a.m_min_addr;
      row_stride;
      refs = a.m_refs;
      single_stride_refs = stride_count + 1;
      (* the first reference of a static op trivially "matches": it
         starts the stream *)
    }
  in
  let nodes_in_order = Array.of_list (List.rev !node_order) in
  let nodes =
    Array.map
      (fun (n : node_acc) ->
        let mem_ops = Array.map mem_summary n.n_mem_pcs in
        let branch =
          if n.n_branch_pc < 0 then None
          else
            match branch_accs.(n.n_branch_pc) with
            | None -> None
            | Some a ->
              Some
                {
                  Profile.execs = a.b_execs;
                  taken_rate = float_of_int a.b_takens /. float_of_int (max 1 a.b_execs);
                  transition_rate =
                    float_of_int a.b_transitions /. float_of_int (max 1 a.b_execs);
                }
        in
        let succ_total = Hashtbl.fold (fun _ e acc -> acc + e.e_count) n.n_succs 0 in
        let successors =
          if succ_total = 0 then [||]
          else
            Array.of_list
              (Hashtbl.fold
                 (fun _ e acc ->
                   (e.e_to.n_index, float_of_int e.e_count /. float_of_int succ_total)
                   :: acc)
                 n.n_succs [])
        in
        (* Sort successors by node id for deterministic output. *)
        Array.sort (fun (a, _) (b, _) -> compare a b) successors;
        {
          Profile.id = n.n_index;
          pred_start = n.n_pred;
          start = n.n_start;
          count = n.n_count;
          size = n.n_size;
          mix = fractions n.n_mix;
          dep_fractions = fractions n.n_deps;
          mem_ops;
          branch;
          successors;
        })
      nodes_in_order
  in
  (* --- whole-program aggregates --- *)
  let global_mix = Array.make I.class_count 0 in
  let block_sizes_total = ref 0 and block_count = ref 0 in
  Array.iter
    (fun n ->
      Array.iteri (fun c k -> global_mix.(c) <- global_mix.(c) + k) n.n_mix;
      block_sizes_total := !block_sizes_total + (n.n_count * n.n_size);
      block_count := !block_count + n.n_count)
    nodes_in_order;
  let total_refs = ref 0 and covered_refs = ref 0 in
  let stream_classes = Hashtbl.create 64 in
  Array.iteri
    (fun pc a ->
      if Option.is_some a then begin
        let m = mem_summary pc in
        total_refs := !total_refs + m.Profile.refs;
        covered_refs := !covered_refs + min m.Profile.refs m.Profile.single_stride_refs;
        Hashtbl.replace stream_classes (m.Profile.stride, m.Profile.stream_length) ()
      end)
    mem_accs;
  {
    Profile.name = program.Pc_isa.Program.name;
    instr_count = instrs;
    nodes;
    global_mix = fractions global_mix;
    avg_block_size =
      (if !block_count = 0 then 0.0
       else float_of_int !block_sizes_total /. float_of_int !block_count);
    single_stride_fraction =
      (if !total_refs = 0 then 1.0
       else float_of_int !covered_refs /. float_of_int !total_refs);
    unique_streams = Hashtbl.length stream_classes;
  }
