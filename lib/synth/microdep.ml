module I = Pc_isa.Instr
module Reg = Pc_isa.Reg
module Asm = Pc_isa.Asm
module Program = Pc_isa.Program
module Profile = Pc_profile.Profile
module Rng = Pc_util.Rng
module Config = Pc_uarch.Config
module Machine = Pc_funcsim.Machine
module Hierarchy = Pc_caches.Hierarchy
module Predictor = Pc_branch.Predictor

type targets = { l1d_miss_rate : float; mispredict_rate : float }

(* Both targets depend only on retire order: the D-cache sees the loads
   and stores, the predictor the conditional branches.  So one
   functional pass over fresh copies of the timing model's D-side
   hierarchy and predictor reads exactly what a [Sim.run] would (with
   its default 10M-instruction budget), without scheduling anything. *)
let measure_targets ?(max_instrs = 10_000_000) (cfg : Config.t) program =
  let dcache = Hierarchy.create cfg.Config.dcache in
  let bpred = Predictor.create cfg.Config.bpred in
  let m = Machine.load program in
  let classes = (Machine.statics m).Machine.s_classes in
  ignore
    (Machine.run_batched ~max_instrs m (fun b ->
         for j = 0 to b.Machine.len - 1 do
           let pc = b.Machine.b_pc.(j) in
           match classes.(pc) with
           | I.C_load | I.C_store -> ignore (Hierarchy.access dcache b.Machine.b_addr.(j))
           | I.C_branch ->
             ignore (Predictor.observe bpred ~pc ~taken:b.Machine.b_taken.(j))
           | _ -> ()
         done));
  let accesses = Hierarchy.l1_accesses dcache in
  {
    l1d_miss_rate =
      (if accesses = 0 then 0.0
       else float_of_int (Hierarchy.l1_misses dcache) /. float_of_int accesses);
    mispredict_rate = Predictor.misprediction_rate bpred;
  }

(* Synth's register layout, with r14 the missing-stream pointer, r15
   the hitting-stream pointer and r16 the LCG state. *)
let int_pool = Synth.int_pool
let fp_pool = Synth.fp_pool
let miss_ptr = 14
let hit_ptr = 15
let lcg_reg = 16
let iter_reg = Synth.iter_reg
let bound_reg = Synth.bound_reg
let scratch = Synth.scratch

(* The missing stream walks this many bytes before resetting: far larger
   than the reference 16 KB L1 with 32 B lines, so every access misses. *)
let miss_region_iters = 4096
let miss_stride = 32

let generate ?(seed = 1) ?(target_dynamic = 100_000) ~(profile : Profile.t) ~targets () =
  let rng = Rng.create seed in
  let deps = Profile.dep_distribution profile in
  let mix = profile.Profile.global_mix in
  let frac c = mix.(I.class_index c) in
  let block_size =
    max 4 (min 32 (int_of_float (Float.round profile.Profile.avg_block_size)))
  in
  let n_blocks = 64 in
  let mem_frac = frac I.C_load +. frac I.C_store in
  let store_share =
    let m = frac I.C_load +. frac I.C_store in
    if m = 0.0 then 0.0 else frac I.C_store /. m
  in
  let mem_per_block =
    int_of_float (Float.round (mem_frac *. float_of_int block_size))
  in
  (* Dataflow helpers: round-robin destinations, recent-ring sources. *)
  let recent = Synth.Recent.create () in
  let push_dest = Synth.Recent.push recent in
  let next_int = ref 0 and next_fp = ref 0 in
  let alloc_int () =
    let r = int_pool.(!next_int) in
    next_int := (!next_int + 1) mod Array.length int_pool;
    r
  in
  let alloc_fp () =
    let r = fp_pool.(!next_fp) in
    next_fp := (!next_fp + 1) mod Array.length fp_pool;
    r
  in
  (* The fallback register is drawn only when the ring has none. *)
  let find_src ~is_fp =
    let r =
      Synth.Recent.find recent ~is_fp ~distance:(Profile.sample_distance rng deps)
    in
    if r >= 0 then r
    else
      let pool = if is_fp then fp_pool else int_pool in
      pool.(Rng.int rng (Array.length pool))
  in
  let items = ref [] in
  let emit i = items := Asm.Ins i :: !items in
  let emit_label l = items := Asm.Label l :: !items in
  (* preamble *)
  List.iter emit Synth.pool_preamble;
  let miss_base = Program.data_base in
  let hit_base =
    Program.data_base + (miss_stride * miss_region_iters) + 4096
  in
  emit (I.Li (miss_ptr, Int64.of_int miss_base));
  emit (I.Li (hit_ptr, Int64.of_int hit_base));
  emit (I.Li (lcg_reg, Int64.of_int (seed lor 1)));
  emit (I.Li (iter_reg, 0L));
  emit (I.Li (bound_reg, 1L));
  emit_label "loop_top";
  let body = ref 0 in
  (* One LCG step per iteration feeds every block's branch condition. *)
  emit (I.Li (scratch, 6364136223846793005L));
  emit (I.Mul (lcg_reg, lcg_reg, scratch));
  emit (I.Alui (I.Add, lcg_reg, lcg_reg, 1442695040888963407));
  body := !body + 3;
  (* Mem-op schedule: of all memory ops in the loop body, a fraction
     equal to the target miss rate goes to the missing stream. *)
  let total_mem = n_blocks * mem_per_block in
  let missing_ops =
    int_of_float (Float.round (targets.l1d_miss_rate *. float_of_int total_mem))
  in
  let mem_count = ref 0 in
  (* Branch bias: iid directions with the minority probability equal to
     the target misprediction rate (saturating counters settle on the
     majority direction, so mispredict ~ minority rate). *)
  let p_not_taken = max 0.01 (min 0.5 targets.mispredict_rate) in
  let threshold = max 1 (int_of_float (Float.round (p_not_taken *. 256.0))) in
  let int_alu_ops = [| I.Add; I.Sub; I.Xor; I.And; I.Or |] in
  for b = 0 to n_blocks - 1 do
    emit_label (Printf.sprintf "bb_%d" b);
    for slot = 0 to block_size - 2 do
      let is_mem_slot =
        mem_per_block > 0 && slot mod (max 1 ((block_size - 1) / max 1 mem_per_block)) = 0
        && !mem_count < total_mem
      in
      if is_mem_slot then begin
        let misses = !mem_count < missing_ops in
        incr mem_count;
        let ptr = if misses then miss_ptr else hit_ptr in
        (* distinct line per op on the missing stream *)
        let off = if misses then 64 * (!mem_count mod 16) else 8 * (!mem_count mod 8) in
        if Rng.float rng 1.0 < store_share then begin
          let src = find_src ~is_fp:false in
          push_dest (-1);
          emit (I.Store (src, ptr, off))
        end
        else begin
          let d = alloc_int () in
          push_dest d;
          emit (I.Load (d, ptr, off))
        end
      end
      else begin
        match Synth.draw_class rng mix with
        | I.C_int_alu ->
          let op = int_alu_ops.(Rng.int rng (Array.length int_alu_ops)) in
          let a = find_src ~is_fp:false and b' = find_src ~is_fp:false in
          let d = alloc_int () in
          push_dest d;
          emit (I.Alu (op, d, a, b'))
        | I.C_int_mul ->
          let a = find_src ~is_fp:false and b' = find_src ~is_fp:false in
          let d = alloc_int () in
          push_dest d;
          emit (I.Mul (d, a, b'))
        | I.C_int_div ->
          let a = find_src ~is_fp:false and b' = find_src ~is_fp:false in
          let d = alloc_int () in
          push_dest d;
          emit (I.Div (d, a, b'))
        | I.C_fp_alu ->
          let a = find_src ~is_fp:true and b' = find_src ~is_fp:true in
          let d = alloc_fp () in
          push_dest (32 + d);
          emit (I.Falu (I.Fadd, d, a, b'))
        | I.C_fp_mul ->
          let a = find_src ~is_fp:true and b' = find_src ~is_fp:true in
          let d = alloc_fp () in
          push_dest (32 + d);
          emit (I.Fmul (d, a, b'))
        | I.C_fp_div ->
          let a = find_src ~is_fp:true and b' = find_src ~is_fp:true in
          let d = alloc_fp () in
          push_dest (32 + d);
          emit (I.Fdiv (d, a, b'))
        | _ ->
          let d = alloc_int () in
          push_dest d;
          emit (I.Alu (I.Add, d, find_src ~is_fp:false, find_src ~is_fp:false))
      end
    done;
    (* pseudo-random branch direction from the LCG state *)
    let shift = 16 + (b mod 32) in
    emit (I.Alui (I.Srl, scratch, lcg_reg, shift));
    emit (I.Alui (I.And, scratch, scratch, 255));
    emit (I.Alui (I.Cmp_lt, scratch, scratch, threshold));
    (* not-taken with probability p_not_taken: branch when scratch = 0 *)
    emit (I.Br (I.Eq_z, scratch, I.Label (Printf.sprintf "bb_end_%d" b)));
    emit_label (Printf.sprintf "bb_end_%d" b);
    body := !body + block_size + 3
  done;
  (* advance and reset the missing stream *)
  emit (I.Alui (I.Add, miss_ptr, miss_ptr, miss_stride));
  emit (I.Alui (I.And, scratch, iter_reg, miss_region_iters - 1));
  emit (I.Br (I.Ne_z, scratch, I.Label "no_reset"));
  emit (I.Li (miss_ptr, Int64.of_int miss_base));
  emit_label "no_reset";
  emit (I.Alui (I.Add, iter_reg, iter_reg, 1));
  emit (I.Alu (I.Cmp_lt, scratch, iter_reg, bound_reg));
  emit (I.Br (I.Ne_z, scratch, I.Label "loop_top"));
  emit I.Halt;
  body := !body + 7;
  let iterations = max 1 (target_dynamic / max 1 !body) in
  let data_bytes = hit_base - Program.data_base + 4096 in
  Synth.assemble_loop ~name:(profile.Profile.name ^ "-microdep") ~data_bytes ~iterations
    !items
