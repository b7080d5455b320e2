open Pc_kc.Ast
module Profile = Pc_profile.Profile
module Rng = Pc_util.Rng
module I = Pc_isa.Instr

let int_pool = [| "t0"; "t1"; "t2"; "t3"; "t4"; "t5"; "t6"; "t7" |]
let fp_pool = [| "x0"; "x1"; "x2"; "x3"; "x4"; "x5" |]

type state = {
  rng : Rng.t;
  mutable next_int : int;
  mutable next_fp : int;
  mutable stream_slots : int array; (* ops placed per stream *)
}

let alloc_int st =
  let v = int_pool.(st.next_int) in
  st.next_int <- (st.next_int + 1) mod Array.length int_pool;
  v

let alloc_fp st =
  let v = fp_pool.(st.next_fp) in
  st.next_fp <- (st.next_fp + 1) mod Array.length fp_pool;
  v

(* A source: a pool variable at an approximate dependency distance.  The
   rotation means "distance d" maps to the variable written d allocations
   ago.  A node whose fractions sum to zero takes the last bucket, as
   [Profile.sample_distance] does. *)
let int_src st (node : Profile.node) =
  let cdf =
    let acc = ref 0.0 in
    Array.map (fun f -> acc := !acc +. f; !acc) node.Profile.dep_fractions
  in
  let last = Array.length cdf - 1 in
  let d = 1 + (if cdf.(last) > 0.0 then Rng.sample_cdf st.rng cdf else last) in
  let idx = (st.next_int - (d mod Array.length int_pool) + (2 * Array.length int_pool))
            mod Array.length int_pool in
  int_pool.(idx)

let fp_src st =
  fp_pool.(Rng.int st.rng (Array.length fp_pool))

let stream_name k = Printf.sprintf "stream_%d" k
let index_name k = Printf.sprintf "idx_%d" k

let store_stmt k idx_expr value = st (stream_name k) idx_expr value

(* One computational statement for a class (mirrors Synth.gen_instr). *)
let gen_stmt gs (node : Profile.node) cls streams geoms mem_queue =
  match cls with
  | I.C_int_alu ->
    let a = int_src gs node and b = int_src gs node in
    let d = alloc_int gs in
    let op = match Rng.int gs.rng 4 with
      | 0 -> Add | 1 -> Sub | 2 -> Bxor | _ -> Bor
    in
    set d (Bin (op, v a, v b))
  | I.C_int_mul ->
    let a = int_src gs node and b = int_src gs node in
    set (alloc_int gs) (v a *: v b)
  | I.C_int_div ->
    let a = int_src gs node and b = int_src gs node in
    set (alloc_int gs) (v a /: (v b |: i 1))
  | I.C_fp_alu ->
    let a = fp_src gs and b = fp_src gs in
    set (alloc_fp gs) (v a +: v b)
  | I.C_fp_mul ->
    let a = fp_src gs and b = fp_src gs in
    set (alloc_fp gs) (v a *: v b)
  | I.C_fp_div ->
    let a = fp_src gs and b = fp_src gs in
    set (alloc_fp gs) (v a /: (v b +: f 1.0))
  | I.C_load | I.C_store -> (
    match Queue.take_opt mem_queue with
    | Some (m : Profile.mem_op) ->
      let k = Synth.assign_stream streams m in
      let slot = gs.stream_slots.(k) in
      gs.stream_slots.(k) <- slot + 1;
      let _, size_words, spread_words = geoms.(k) in
      let off = spread_words * slot mod max 1 size_words in
      let idx_expr =
        if off = 0 then v (index_name k)
        else (v (index_name k) +: i off) %: i (max 1 size_words)
      in
      if m.Profile.is_store then store_stmt k idx_expr (v (int_src gs node))
      else set (alloc_int gs) (ld (stream_name k) idx_expr)
    | None ->
      let a = int_src gs node and b = int_src gs node in
      set (alloc_int gs) (v a +: v b))
  | I.C_branch | I.C_jump | I.C_other ->
    let a = int_src gs node and b = int_src gs node in
    set (alloc_int gs) (Bin (Bxor, v a, v b))

(* Terminating "branch": an if with empty branches driven by the modulo
   counter, so the direction follows the profiled rates. *)
let gen_branch (node : Profile.node) =
  match node.Profile.branch with
  | None -> []
  | Some b -> (
    match Synth.branch_counter b with
    | Synth.Fixed taken -> [ if_ (i (if taken then 1 else 0)) [] [] ]
    | Synth.Alternate -> [ if_ ((v "it" &: i 1) =: i 0) [] [] ]
    | Synth.Modulo { period; taken_slots } ->
      [ if_ ((v "it" &: i (period - 1)) <: i taken_slots) [] [] ])

let generate ?(seed = 1) ?(target_dynamic = 100_000) (profile : Profile.t) =
  let rng = Rng.create seed in
  let n_nodes = Array.length profile.Profile.nodes in
  if n_nodes = 0 then invalid_arg "Portable.generate: empty profile";
  let target_blocks = min 400 (max 40 (2 * n_nodes)) in
  let streams = Synth.stream_pool ~max_streams:8 profile in
  let block_ids = Synth.walk_sfg rng profile target_blocks in
  (* stream geometry in ELEMENTS (8-byte words): (stride, size, spread) *)
  let op_counts = Array.make (Array.length streams) 0 in
  Array.iter
    (fun id ->
      Array.iter
        (fun (m : Profile.mem_op) ->
          let k = Synth.assign_stream streams m in
          op_counts.(k) <- op_counts.(k) + 1)
        profile.Profile.nodes.(id).Profile.mem_ops)
    block_ids;
  let geoms =
    Array.mapi
      (fun k (s : Synth.stream_info) ->
        let c = max 1 op_counts.(k) in
        let size_words = max 4 (min 65_536 (s.Synth.footprint / 8)) in
        let span_words = max 1 (min size_words (s.Synth.active_span / 8)) in
        let spread_words = max 1 (span_words / c) in
        let stride_words =
          if s.Synth.stride = 0 then 0
          else max 1 (abs s.Synth.stride / 8) * (if s.Synth.stride < 0 then -1 else 1)
        in
        (stride_words, size_words, spread_words))
      streams
  in
  let st = { rng; next_int = 0; next_fp = 0; stream_slots = Array.make (Array.length streams) 0 } in
  (* body statements *)
  let body = ref [] in
  let emit s = body := s :: !body in
  Array.iter
    (fun node_id ->
      let node = profile.Profile.nodes.(node_id) in
      let mem_queue = Queue.create () in
      Array.iter (fun m -> Queue.add m mem_queue) node.Profile.mem_ops;
      let n_mem = Array.length node.Profile.mem_ops in
      let body_slots = max 1 (node.Profile.size - 1) in
      let mem_every = max 1 (body_slots / max 1 n_mem) in
      for slot = 0 to body_slots - 1 do
        let cls =
          if n_mem > 0 && slot mod mem_every = 0 && not (Queue.is_empty mem_queue) then
            I.C_load
          else Synth.draw_class st.rng node.Profile.mix
        in
        emit (gen_stmt st node cls streams geoms mem_queue)
      done;
      List.iter emit (gen_branch node))
    block_ids;
  (* stream index maintenance *)
  Array.iteri
    (fun k (stride_words, size_words, _) ->
      if stride_words <> 0 then begin
        emit (set (index_name k) (v (index_name k) +: i stride_words));
        if stride_words > 0 then
          emit
            (if_ (v (index_name k) >=: i size_words)
               [ set (index_name k) (i 0) ]
               [])
        else
          emit
            (if_ (v (index_name k) <: i 0)
               [ set (index_name k) (i (size_words - 1)) ]
               [])
      end)
    geoms;
  let body = List.rev !body in
  (* rough per-iteration cost: one statement ~ 4 instructions *)
  let body_cost = 4 * List.length body in
  let iterations = max 2 (target_dynamic / max 1 body_cost) in
  let globals =
    Array.to_list
      (Array.mapi (fun k (_, size_words, _) -> garr (stream_name k) size_words) geoms)
  in
  let locals =
    [ ("it", I) ]
    @ Array.to_list (Array.mapi (fun k _ -> (index_name k, I)) geoms)
    @ Array.to_list (Array.map (fun n -> (n, I)) int_pool)
    @ Array.to_list (Array.map (fun n -> (n, F)) fp_pool)
  in
  let init =
    (* negative-stride indices start at the top *)
    Array.to_list geoms
    |> List.mapi (fun k (stride_words, size_words, _) ->
           if stride_words < 0 then set (index_name k) (i (size_words - 1))
           else set (index_name k) (i 0))
  in
  {
    globals;
    funs =
      [
        fn "main" ~locals
          (init
          @ [ for_ "it" (i 0) (i iterations) body ]
          @ [ ret (v (List.hd (Array.to_list int_pool))) ]);
      ];
  }

let generate_compiled ?seed ?target_dynamic profile =
  let prog = generate ?seed ?target_dynamic profile in
  Pc_kc.Compile.compile ~name:(profile.Profile.name ^ "-portable-clone") prog
