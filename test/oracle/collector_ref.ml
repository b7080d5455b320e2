(* The workload profiler as it stood before its per-instruction body
   moved onto per-pc tables: every retired instruction builds its block
   as a list of (pc, class) pairs and looks its memory and branch
   accumulators up in hashtables keyed by pc.  Kept verbatim as the
   reference that [Pc_profile.Collector] must match byte for byte. *)

module Profile = Pc_profile.Profile
module I = Pc_isa.Instr
module Machine = Pc_funcsim.Machine

(* --- per-static-instruction accumulators --- *)

type mem_acc = {
  m_pc : int;
  m_store : bool;
  mutable m_refs : int;
  mutable m_last_addr : int;
  mutable m_min_addr : int;
  mutable m_max_addr : int;
  mutable m_prev_stride : int;  (* min_int before two accesses happened *)
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
  m_strides : (int, int) Hashtbl.t;
}

type branch_acc = {
  b_pc : int;
  mutable b_execs : int;
  mutable b_takens : int;
  mutable b_transitions : int;
  mutable b_last : bool;
  mutable b_seen : bool;
}

(* --- per-SFG-node accumulators --- *)

type node_acc = {
  n_key : int * int; (* (pred block start, block start) *)
  n_index : int;
  mutable n_count : int;
  n_size : int;
  n_mix : int array;
  n_deps : int array; (* one slot per dep bucket *)
  n_mem_pcs : int array; (* static pcs of memory ops, in block order *)
  n_branch_pc : int; (* terminating conditional branch's pc, or -1 *)
  n_succs : (int * int, int ref) Hashtbl.t;
}

let dep_bucket =
  let bounds = Profile.dep_bounds in
  fun d ->
    let n = Array.length bounds in
    let rec go i = if i >= n then n else if d <= bounds.(i) then i else go (i + 1) in
    go 0

(* A dynamic basic block under construction. *)
type building = {
  bb_start : int;
  mutable bb_instrs : (int * I.iclass) list; (* reversed (pc, class) *)
  mutable bb_mem_pcs : int list; (* reversed *)
  mutable bb_deps : int list; (* reversed bucket indices *)
  mutable bb_branch_pc : int;
}

let profile ?(start = 0) ?(max_instrs = 10_000_000) program =
  let machine = Machine.load program in
  (* Skip the pre-window prefix functionally: machines resume across
     [run_batched] calls, so the profiling pass below observes exactly
     the dynamic slice [start, start + max_instrs). *)
  if start > 0 then
    ignore (Machine.run_batched ~max_instrs:start machine ignore);
  let statics = Machine.statics machine in
  let classes = statics.Machine.s_classes
  and read_lists = statics.Machine.s_read_lists
  and write_ids = statics.Machine.s_write_ids in
  let mem_tbl : (int, mem_acc) Hashtbl.t = Hashtbl.create 256 in
  let branch_tbl : (int, branch_acc) Hashtbl.t = Hashtbl.create 256 in
  let node_tbl : (int * int, node_acc) Hashtbl.t = Hashtbl.create 1024 in
  let node_order : node_acc list ref = ref [] in
  let node_count = ref 0 in
  let global_mix = Array.make I.class_count 0 in
  let last_writer = Array.make 64 min_int in
  let instr_index = ref 0 in
  let prev_block = ref (-1) in
  let prev_node_key = ref None in
  let block_sizes_total = ref 0 in
  let block_count = ref 0 in
  let current = ref None in
  let finish_block b =
    let key = (!prev_block, b.bb_start) in
    let node =
      match Hashtbl.find_opt node_tbl key with
      | Some n -> n
      | None ->
        let size = List.length b.bb_instrs in
        let n =
          {
            n_key = key;
            n_index = !node_count;
            n_count = 0;
            n_size = size;
            n_mix = Array.make I.class_count 0;
            n_deps = Array.make (Array.length Profile.dep_bounds + 1) 0;
            n_mem_pcs = Array.of_list (List.rev b.bb_mem_pcs);
            n_branch_pc = b.bb_branch_pc;
            n_succs = Hashtbl.create 4;
          }
        in
        incr node_count;
        Hashtbl.add node_tbl key n;
        node_order := n :: !node_order;
        n
    in
    node.n_count <- node.n_count + 1;
    List.iter
      (fun (_, cls) ->
        let ci = I.class_index cls in
        node.n_mix.(ci) <- node.n_mix.(ci) + 1)
      b.bb_instrs;
    List.iter
      (fun bucket -> node.n_deps.(bucket) <- node.n_deps.(bucket) + 1)
      b.bb_deps;
    (* Record the SFG edge from the previous node instance. *)
    (match !prev_node_key with
    | Some pkey -> (
      match Hashtbl.find_opt node_tbl pkey with
      | Some pnode ->
        let cell =
          match Hashtbl.find_opt pnode.n_succs key with
          | Some c -> c
          | None ->
            let c = ref 0 in
            Hashtbl.add pnode.n_succs key c;
            c
        in
        incr cell
      | None -> ())
    | None -> ());
    prev_node_key := Some key;
    prev_block := b.bb_start;
    block_sizes_total := !block_sizes_total + node.n_size;
    incr block_count
  in
  (* One retired row.  [addr] is read only for loads and stores and
     [taken] only for branches: the batch contract leaves them stale on
     every other row. *)
  let retire pc addr taken =
    let b =
      match !current with
      | Some b -> b
      | None ->
        let b =
          {
            bb_start = pc;
            bb_instrs = [];
            bb_mem_pcs = [];
            bb_deps = [];
            bb_branch_pc = -1;
          }
        in
        current := Some b;
        b
    in
    let cls = classes.(pc) in
    b.bb_instrs <- (pc, cls) :: b.bb_instrs;
    global_mix.(I.class_index cls) <- global_mix.(I.class_index cls) + 1;
    (* Register dependency distances. *)
    List.iter
      (fun id ->
        if id <> 0 then begin
          let w = last_writer.(id) in
          if w >= 0 then b.bb_deps <- dep_bucket (!instr_index - w) :: b.bb_deps
        end)
      read_lists.(pc);
    (match write_ids.(pc) with
    | -1 | 0 -> ()
    | id -> last_writer.(id) <- !instr_index);
    incr instr_index;
    (* Memory behaviour. *)
    if cls = I.C_load || cls = I.C_store then begin
      b.bb_mem_pcs <- pc :: b.bb_mem_pcs;
      let acc =
        match Hashtbl.find_opt mem_tbl pc with
        | Some a -> a
        | None ->
          let a =
            {
              m_pc = pc;
              m_store = cls = I.C_store;
              m_refs = 0;
              m_last_addr = min_int;
              m_min_addr = max_int;
              m_max_addr = min_int;
              m_prev_stride = min_int;
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
          in
          Hashtbl.add mem_tbl pc a;
          a
      in
      if acc.m_last_addr <> min_int then begin
        let stride = addr - acc.m_last_addr in
        let cell = try Hashtbl.find acc.m_strides stride with Not_found -> 0 in
        Hashtbl.replace acc.m_strides stride (cell + 1);
        (* a new run of this stride starts when the stride changes *)
        if stride <> acc.m_prev_stride then begin
          let runs = try Hashtbl.find acc.m_run_starts stride with Not_found -> 0 in
          Hashtbl.replace acc.m_run_starts stride (runs + 1);
          (* Second-level ("row") stride: start-to-start distance between
             genuine runs.  A stride change after a single access is the
             tail of a jump, not a run boundary — skip it so 2-D patterns
             (walk, jump, walk, jump, ...) are not diluted. *)
          if acc.m_cur_run_start = min_int then begin
            acc.m_cur_run_start <- addr;
            acc.m_cur_run_len <- 1
          end
          else if acc.m_cur_run_len >= 2 then begin
            let row = addr - acc.m_cur_run_start in
            let cell = try Hashtbl.find acc.m_row_strides row with Not_found -> 0 in
            Hashtbl.replace acc.m_row_strides row (cell + 1);
            acc.m_cur_run_start <- addr;
            acc.m_cur_run_len <- 1
          end
          else acc.m_cur_run_len <- acc.m_cur_run_len + 1
        end
        else acc.m_cur_run_len <- acc.m_cur_run_len + 1;
        acc.m_prev_stride <- stride
      end;
      acc.m_refs <- acc.m_refs + 1;
      acc.m_last_addr <- addr;
      if addr < acc.m_min_addr then acc.m_min_addr <- addr;
      if addr > acc.m_max_addr then acc.m_max_addr <- addr;
      (* 64-access window span *)
      if addr < acc.m_batch_min then acc.m_batch_min <- addr;
      if addr > acc.m_batch_max then acc.m_batch_max <- addr;
      acc.m_batch_n <- acc.m_batch_n + 1;
      if acc.m_batch_n >= 64 then begin
        acc.m_span_sum <- acc.m_span_sum + (acc.m_batch_max - acc.m_batch_min + 8);
        acc.m_batches <- acc.m_batches + 1;
        acc.m_batch_n <- 0;
        acc.m_batch_min <- max_int;
        acc.m_batch_max <- min_int
      end
    end;
    (* Branch behaviour. *)
    if cls = I.C_branch then begin
      b.bb_branch_pc <- pc;
      let acc =
        match Hashtbl.find_opt branch_tbl pc with
        | Some a -> a
        | None ->
          let a =
            {
              b_pc = pc;
              b_execs = 0;
              b_takens = 0;
              b_transitions = 0;
              b_last = false;
              b_seen = false;
            }
          in
          Hashtbl.add branch_tbl pc a;
          a
      in
      acc.b_execs <- acc.b_execs + 1;
      if taken then acc.b_takens <- acc.b_takens + 1;
      if acc.b_seen && acc.b_last <> taken then
        acc.b_transitions <- acc.b_transitions + 1;
      acc.b_last <- taken;
      acc.b_seen <- true
    end;
    (* Block boundary. *)
    if I.is_control program.Pc_isa.Program.code.(pc) then begin
      finish_block b;
      current := None
    end
  in
  let instrs =
    Machine.run_batched ~max_instrs machine (fun batch ->
        for j = 0 to batch.Machine.len - 1 do
          retire batch.Machine.b_pc.(j) batch.Machine.b_addr.(j)
            batch.Machine.b_taken.(j)
        done)
  in
  (match !current with Some b -> finish_block b | None -> ());
  (* --- summarise static memory instructions --- *)
  let mem_summary pc =
    let a = Hashtbl.find mem_tbl pc in
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
      is_store = a.m_store;
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
        let mix_total = Array.fold_left ( + ) 0 n.n_mix in
        let mix =
          Array.map
            (fun c ->
              if mix_total = 0 then 0.0 else float_of_int c /. float_of_int mix_total)
            n.n_mix
        in
        let dep_total = Array.fold_left ( + ) 0 n.n_deps in
        let dep_fractions =
          Array.map
            (fun c ->
              if dep_total = 0 then 0.0 else float_of_int c /. float_of_int dep_total)
            n.n_deps
        in
        let mem_ops = Array.map mem_summary n.n_mem_pcs in
        let branch =
          if n.n_branch_pc < 0 then None
          else
            match Hashtbl.find_opt branch_tbl n.n_branch_pc with
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
        let succ_total =
          Hashtbl.fold (fun _ c acc -> acc + !c) n.n_succs 0
        in
        let successors =
          if succ_total = 0 then [||]
          else
            Array.of_list
              (Hashtbl.fold
                 (fun key c acc ->
                   match Hashtbl.find_opt node_tbl key with
                   | Some succ ->
                     (succ.n_index, float_of_int !c /. float_of_int succ_total) :: acc
                   | None -> acc)
                 n.n_succs [])
        in
        (* Sort successors by node id for deterministic output. *)
        Array.sort (fun (a, _) (b, _) -> compare a b) successors;
        {
          Profile.id = n.n_index;
          pred_start = fst n.n_key;
          start = snd n.n_key;
          count = n.n_count;
          size = n.n_size;
          mix;
          dep_fractions;
          mem_ops;
          branch;
          successors;
        })
      nodes_in_order
  in
  (* --- whole-program aggregates --- *)
  let total_refs = ref 0 and covered_refs = ref 0 in
  let stream_classes = Hashtbl.create 64 in
  Hashtbl.iter
    (fun pc _ ->
      let m = mem_summary pc in
      total_refs := !total_refs + m.Profile.refs;
      covered_refs := !covered_refs + min m.Profile.refs m.Profile.single_stride_refs;
      Hashtbl.replace stream_classes (m.Profile.stride, m.Profile.stream_length) ())
    mem_tbl;
  let mix_total = Array.fold_left ( + ) 0 global_mix in
  {
    Profile.name = program.Pc_isa.Program.name;
    instr_count = instrs;
    nodes;
    global_mix =
      Array.map
        (fun c ->
          if mix_total = 0 then 0.0 else float_of_int c /. float_of_int mix_total)
        global_mix;
    avg_block_size =
      (if !block_count = 0 then 0.0
       else float_of_int !block_sizes_total /. float_of_int !block_count);
    single_stride_fraction =
      (if !total_refs = 0 then 1.0
       else float_of_int !covered_refs /. float_of_int !total_refs);
    unique_streams = Hashtbl.length stream_classes;
  }

(* --- differential check --- *)

let saved_bytes prof =
  let path = Filename.temp_file "collector_ref" ".profile" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Out_channel.with_open_bin path (fun oc -> Profile.save oc prof);
  In_channel.with_open_bin path In_channel.input_all

let outcome f =
  match f () with
  | prof -> Ok (saved_bytes prof, Marshal.to_string prof [])
  | exception Machine.Fault m -> Error m

let mismatch ?start ?max_instrs program =
  let want = outcome (fun () -> profile ?start ?max_instrs program)
  and got =
    outcome (fun () -> Pc_profile.Collector.profile ?start ?max_instrs program)
  in
  match (want, got) with
  | Ok (s, m), Ok (s', m') ->
    if s <> s' then Some "Profile.save bytes differ"
    else if m <> m' then Some "Marshal bytes differ"
    else None
  | Error e, Error e' ->
    if e = e' then None else Some (Printf.sprintf "faults differ: %S vs %S" e e')
  | Error e, Ok _ -> Some ("only the reference faults: " ^ e)
  | Ok _, Error e -> Some ("only the collector faults: " ^ e)
