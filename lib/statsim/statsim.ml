module Profile = Pc_profile.Profile
module I = Pc_isa.Instr
module Rng = Pc_util.Rng
module Synth = Pc_synth.Synth
module Sample = Pc_sample.Sample
module Sim = Pc_uarch.Sim
module Config = Pc_uarch.Config

(* Per-stream walker state for synthetic addresses.  This is the trace
   generator's own address model, not the clone's geometry (the clone
   shards a stream's footprint across its ops and can walk it in 2-D
   rows): a walker starts at its stream's region, steps |stride| bytes
   once every four ops it serves, wraps after footprint / |stride| steps
   (at most 4096), and spreads the ops it serves 8 bytes apart over the
   stream's active span / 8. *)
type walker = {
  w_stride : int;
  w_length : int;
  w_spread : int;
  w_base : int;
  mutable w_pos : int; (* steps taken since last wrap *)
  mutable w_slots : int; (* ops served this round-robin cycle *)
}

let round8_up n = (n + 7) / 8 * 8

(* --- trace generator ---

   All synthesis state lives in one record so a single RNG stream can
   drive several generation phases (sampled estimation) exactly as it
   drives one continuous trace: walkers, branch counters and the
   register-dependency ring carry over between [synth] calls. *)

type gen = {
  g_rng : Rng.t;
  g_nodes : Profile.node array;
  g_node_cdf : float array;
  g_walkers : walker array;
  g_mem_streams : int array array; (* per node, per memory op: its stream *)
  g_counters : Synth.counter array; (* per node; unused without a branch *)
  g_branch_counts : int array; (* per node: its branch's executions so far *)
  g_recent : Synth.Recent.t; (* synthetic destination ids, 1..25 *)
  g_next_reg : int ref;
  g_reads1 : int list array; (* [[r]] at r *)
  g_reads2 : int list array array; (* [[a; b]] at a, b *)
}

let make_gen ~seed (profile : Profile.t) =
  let rng = Rng.create seed in
  let nodes = profile.Profile.nodes in
  if Array.length nodes = 0 then invalid_arg "Statsim: empty profile";
  if Array.for_all (fun (n : Profile.node) -> n.Profile.count <= 0) nodes then
    invalid_arg "Statsim: no profile node has a positive execution count";
  let streams = Synth.stream_pool ~max_streams:12 profile in
  let walkers =
    Array.map
      (fun (s : Synth.stream_info) ->
        let stride = s.Synth.stride in
        let length =
          if stride = 0 then 1
          else max 2 (min 4096 (s.Synth.footprint / max 8 (abs stride)))
        in
        let spread = round8_up (max 8 (s.Synth.active_span / 8)) in
        {
          w_stride = stride;
          w_length = length;
          w_spread = spread;
          w_base = (if s.Synth.region >= 0 && s.Synth.region < max_int then s.Synth.region / 8 * 8 else Pc_isa.Program.data_base);
          w_pos = 0;
          w_slots = 0;
        })
      streams
  in
  (* [Sim.step] takes its reads as a list, and [src] draws integer
     registers (below 32): lists interned once per generator leave no
     cons per instruction. *)
  let reads1 = Array.init 32 (fun r -> [ r ]) in
  {
    g_rng = rng;
    g_nodes = nodes;
    g_node_cdf = Profile.node_cdf profile;
    g_walkers = walkers;
    g_mem_streams =
      Array.map
        (fun (n : Profile.node) -> Array.map (Synth.assign_stream streams) n.Profile.mem_ops)
        nodes;
    g_counters =
      Array.map
        (fun (n : Profile.node) ->
          Option.fold ~none:(Synth.Fixed false) ~some:Synth.branch_counter n.Profile.branch)
        nodes;
    g_branch_counts = Array.make (Array.length nodes) 0;
    g_recent = Synth.Recent.create ();
    g_next_reg = ref 1;
    g_reads1 = reads1;
    g_reads2 = Array.init 32 (fun a -> Array.map (fun tail -> a :: tail) reads1);
  }

let alloc_reg g =
  let r = !(g.g_next_reg) in
  g.g_next_reg := if !(g.g_next_reg) >= 25 then 1 else !(g.g_next_reg) + 1;
  r

(* The fallback register is drawn only when the ring has none. *)
let src g fractions =
  let d = Profile.sample_distance g.g_rng fractions in
  let r = Synth.Recent.find g.g_recent ~is_fp:false ~distance:d in
  if r >= 0 then r else 1 + Rng.int g.g_rng 24

let reads1 g fractions = g.g_reads1.(src g fractions)

(* The second read is drawn first: every statsim output was recorded
   with that draw order. *)
let reads2 g fractions =
  let b = src g fractions in
  let a = src g fractions in
  g.g_reads2.(a).(b)

(* SFG walking. *)
let pick_start g = Rng.sample_cdf g.g_rng g.g_node_cdf

let pick_successor g (node : Profile.node) =
  let succs = node.Profile.successors in
  let n = Array.length succs in
  if n = 0 then pick_start g
  else begin
    let u = Rng.float g.g_rng 1.0 in
    let acc = ref 0.0 and found = ref (-1) and i = ref 0 in
    while !found < 0 && !i < n do
      acc := !acc +. snd succs.(!i);
      if !acc >= u then found := !i;
      incr i
    done;
    fst succs.(if !found < 0 then n - 1 else !found)
  end

(* Walk the SFG from [start], stepping [sim] through abstract retired
   instructions until [budget] have been produced.  Node bodies always
   complete, so a few extra instructions past [budget] may come from the
   final node.  Every estimate depends on the RNG draw order: each
   instruction draws its class, then its register reads, then its
   destination. *)
let synth g ~start ~budget sim =
  let emitted = ref 0 in
  let current = ref start in
  while !emitted < budget do
    let node = g.g_nodes.(!current) in
    let mem_ops = node.Profile.mem_ops in
    let n_mem = Array.length mem_ops in
    let body_slots = max 1 (node.Profile.size - 1) in
    let mem_every = if n_mem = 0 then max_int else max 1 (body_slots / n_mem) in
    let mem_taken = ref 0 in
    for slot = 0 to body_slots - 1 do
      let pc = node.Profile.start + slot in
      let use_mem = !mem_taken < n_mem && slot mod mem_every = 0 in
      if use_mem then begin
        let m = mem_ops.(!mem_taken) in
        let k = g.g_mem_streams.(!current).(!mem_taken) in
        incr mem_taken;
        let w = g.g_walkers.(k) in
        (* advance the walker once per full op rotation *)
        let slot_id = w.w_slots in
        w.w_slots <- w.w_slots + 1;
        let addr = w.w_base + (w.w_pos * abs w.w_stride) + (8 * (slot_id mod (max 1 (w.w_spread / 8)))) in
        if w.w_stride <> 0 && w.w_slots mod 4 = 0 then begin
          w.w_pos <- w.w_pos + 1;
          if w.w_pos >= w.w_length then w.w_pos <- 0
        end;
        if m.Profile.is_store then
          Sim.step sim ~pc ~cls:I.C_store
            ~reads:(reads1 g node.Profile.dep_fractions)
            ~write:(-1) ~addr ~taken:false
        else begin
          let d = alloc_reg g in
          Synth.Recent.push g.g_recent d;
          Sim.step sim ~pc ~cls:I.C_load ~reads:[] ~write:d ~addr ~taken:false
        end
      end
      else begin
        let cls = Synth.draw_class g.g_rng node.Profile.mix in
        let reads = reads2 g node.Profile.dep_fractions in
        let d = alloc_reg g in
        Synth.Recent.push g.g_recent d;
        let write =
          if I.class_index cls >= 3 && I.class_index cls <= 5 then 32 + (d mod 25) + 1
          else d
        in
        Sim.step sim ~pc ~cls ~reads ~write ~addr:(-1) ~taken:false
      end;
      incr emitted
    done;
    (* terminator *)
    let pc = node.Profile.start + body_slots in
    (match node.Profile.branch with
    | Some _ ->
      let count = g.g_branch_counts.(!current) in
      g.g_branch_counts.(!current) <- count + 1;
      let taken =
        match g.g_counters.(!current) with
        | Synth.Fixed taken -> taken
        | Synth.Alternate -> count mod 2 = 0
        | Synth.Modulo { period; taken_slots } -> count mod period < taken_slots
      in
      Sim.step sim ~pc ~cls:I.C_branch
        ~reads:(reads1 g node.Profile.dep_fractions)
        ~write:(-1) ~addr:(-1) ~taken
    | None ->
      Sim.step sim ~pc ~cls:I.C_jump ~reads:[] ~write:(-1) ~addr:(-1) ~taken:false);
    incr emitted;
    current := pick_successor g node
  done

let estimate ?(seed = 1) ?(instrs = 100_000) cfg (profile : Profile.t) =
  let g = make_gen ~seed profile in
  let sim = Sim.create cfg in
  synth g ~start:(pick_start g) ~budget:instrs sim;
  Sim.finish sim

(* --- sampled estimation ---

   A sampling plan already localises the program's phases; instead of
   one long stationary walk, generate one short trace per phase, seeded
   at the profile node that dominates the phase's measurement window,
   and recombine the per-phase results population-weighted exactly like
   the detailed sampled projection (a phase's whole walk is its window:
   there is no warmup).  The generator state (RNG stream, walkers,
   branch counters, dependency ring) carries across phases so the whole
   estimate stays deterministic in [seed]. *)

(* Most-executed measurement-window pc of a representative (warmup
   excluded); ties break towards the smaller pc so the choice is
   independent of counting order. *)
let dominant_window_pc (rep : Sample.rep) =
  let counts : (int, int ref) Hashtbl.t = Hashtbl.create 256 in
  for i = rep.Sample.warmup to Array.length rep.Sample.trace - 1 do
    let pc = Sample.packed_pc rep.Sample.trace.(i) in
    match Hashtbl.find_opt counts pc with
    | Some r -> incr r
    | None -> Hashtbl.add counts pc (ref 1)
  done;
  let best_pc = ref (-1) and best_count = ref 0 in
  Hashtbl.iter
    (fun pc r ->
      if !r > !best_count || (!r = !best_count && (!best_pc < 0 || pc < !best_pc))
      then begin
        best_pc := pc;
        best_count := !r
      end)
    counts;
  !best_pc

(* Profile node covering a static pc ([start, start + size)); among
   covering nodes the hottest wins, ties to the smallest id.  Falls back
   to the profile's hottest node when the pc maps to no node. *)
let node_for_pc (profile : Profile.t) pc =
  let best = ref (-1) and best_count = ref (-1) in
  Array.iteri
    (fun i (n : Profile.node) ->
      let covers = pc >= n.Profile.start && pc < n.Profile.start + n.Profile.size in
      if covers && n.Profile.count > !best_count then begin
        best := i;
        best_count := n.Profile.count
      end)
    profile.Profile.nodes;
  if !best >= 0 then !best
  else begin
    let hottest = ref 0 in
    Array.iteri
      (fun i (n : Profile.node) ->
        if n.Profile.count > profile.Profile.nodes.(!hottest).Profile.count then
          hottest := i)
      profile.Profile.nodes;
    !hottest
  end

let estimate_sampled ?(seed = 1) ?(instrs = 100_000) ~(plan : Sample.plan) cfg
    (profile : Profile.t) =
  let g = make_gen ~seed profile in
  let total_w =
    max 1 (Array.fold_left (fun acc (r : Sample.rep) -> acc + r.Sample.weight) 0 plan.Sample.reps)
  in
  let phases =
    Array.map
      (fun (rep : Sample.rep) ->
        let budget =
          max 1_000
            (int_of_float
               (Float.round
                  (float_of_int instrs *. float_of_int rep.Sample.weight
                 /. float_of_int total_w)))
        in
        let start = node_for_pc profile (dominant_window_pc rep) in
        let sim = Sim.create cfg in
        synth g ~start ~budget sim;
        let r = Sim.finish sim in
        ( rep.Sample.weight,
          Sample.window ~instrs:r.Sim.instrs ~boundary:0 ~commit:r.Sim.cycles,
          r ))
      plan.Sample.reps
  in
  Sample.recombine ~config_name:cfg.Config.name
    ~total_instrs:plan.Sample.total_instrs phases
