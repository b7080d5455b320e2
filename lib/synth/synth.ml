module I = Pc_isa.Instr
module Reg = Pc_isa.Reg
module Asm = Pc_isa.Asm
module Program = Pc_isa.Program
module Profile = Pc_profile.Profile
module Rng = Pc_util.Rng

type options = {
  seed : int;
  target_blocks : int;
  target_dynamic : int;
  max_streams : int;
  block_scale : float;
  dep_jitter : float;
  stride_bias : float;
  period_min : int;
  period_max : int;
}

(* The tunable-knob fields (block_scale .. period_max) must stay
   byte-compatible at their defaults: with block_scale 1.0, dep_jitter
   0.0, stride_bias 0.0 and the historical [2, 256] period bounds the
   generator draws exactly the same RNG stream and emits exactly the
   same clone as before the knobs existed — pc_tune relies on candidate
   0 (the defaults) reproducing the untuned clone. *)
let default_options =
  {
    seed = 1;
    target_blocks = 0;
    target_dynamic = 100_000;
    max_streams = 12;
    block_scale = 1.0;
    dep_jitter = 0.0;
    stride_bias = 0.0;
    period_min = 2;
    period_max = 256;
  }

(* Register layout of generated clones (disjoint roles, no stack):
   r1..r13   integer dataflow pool        f1..f13  FP dataflow pool
   r14..r25  stream pointers (up to 12)
   r26 iteration counter   r27 loop bound   r28 branch/loop scratch *)
let int_pool = Array.init 13 (fun i -> i + 1)
let fp_pool = Array.init 13 (fun i -> i + 1)
let stream_reg k = 14 + k
let iter_reg = 26
let bound_reg = 27
let scratch = 28

let pool_preamble =
  Array.to_list (Array.mapi (fun i r -> I.Li (r, Int64.of_int (i + 3))) int_pool)
  @ Array.to_list
      (Array.mapi (fun i r -> I.Fli (r, 1.0 +. (0.5 *. float_of_int i))) fp_pool)

(* [items] are in reverse emission order, with the loop bound emitted as
   the placeholder [Li (bound_reg, 1L)] before the body size was known. *)
let assemble_loop ~name ~data_bytes ~iterations items =
  let items =
    List.rev_map
      (fun item ->
        match item with
        | Asm.Ins (I.Li (r, 1L)) when r = bound_reg ->
          Asm.Ins (I.Li (bound_reg, Int64.of_int iterations))
        | other -> other)
      items
  in
  Asm.assemble ~name ~data:[] ~data_bytes items

type stream_info = {
  stride : int;
  length : int;
  weight : int;
  footprint : int;
  active_span : int;  (* short-term working set of the stream's ops *)
  region : int;  (* lowest original address of the stream's data *)
  row_stride : int;  (* second-level stride between runs (0 = none) *)
}

let round_pow2 n =
  let n = max 1 n in
  let rec go p = if p >= n then p else go (p * 2) in
  let p = go 1 in
  (* choose the nearer power of two *)
  if p > 1 && p - n > n - (p / 2) then p / 2 else p

let round8_up n = (n + 7) / 8 * 8

(* Cluster the profile's per-static-instruction streams into at most
   [max_streams] pooled streams, keeping the highest-weight strides.  A
   stream's footprint is the largest member footprint: static ops that
   share a stride usually walk the same data structure. *)
let plan_streams ?(stride_bias = 0.0) ~max_streams (profile : Profile.t) =
  let by_pc = Hashtbl.create 64 in
  Array.iter
    (fun (n : Profile.node) ->
      Array.iter
        (fun (m : Profile.mem_op) ->
          if not (Hashtbl.mem by_pc m.Profile.static_pc) then
            Hashtbl.add by_pc m.Profile.static_pc m)
        n.Profile.mem_ops)
    profile.Profile.nodes;
  (* Footprint class: powers of four, so a 320-byte re-walked array and
     a 12 KB matrix that share a stride still become distinct streams
     with distinct reuse behaviour. *)
  let fp_class fp =
    let rec go c = if c >= fp then c else go (4 * c) in
    go 8
  in
  let stride_tbl = Hashtbl.create 16 in
  Hashtbl.iter
    (fun _ (m : Profile.mem_op) ->
      let op_fp = max 8 m.Profile.footprint in
      let region_bucket = m.Profile.region / max 1024 (fp_class op_fp / 4) in
      let key = (m.Profile.stride, fp_class op_fp, region_bucket) in
      let w, len_sum, fp, span_sum, reg, (row_w, row) =
        try Hashtbl.find stride_tbl key with Not_found -> (0, 0, 8, 0, max_int, (0, 0))
      in
      let op_span = max 8 m.Profile.window_span in
      let row_best =
        if m.Profile.row_stride <> 0 && m.Profile.refs > row_w then
          (m.Profile.refs, m.Profile.row_stride)
        else (row_w, row)
      in
      Hashtbl.replace stride_tbl key
        ( w + m.Profile.refs,
          len_sum + (m.Profile.stream_length * m.Profile.refs),
          max fp op_fp,
          span_sum + (op_span * m.Profile.refs),
          min reg m.Profile.region,
          row_best ))
    by_pc;
  let all =
    Hashtbl.fold
      (fun (stride, _, _) (w, len_sum, fp, span_sum, reg, (_, row)) acc ->
        let length = if w = 0 then 1 else len_sum / w in
        (* reference-weighted average span: rare ops with huge windows
           (e.g. one access per call site) must not blow up the stream *)
        let active_span = max 8 (if w = 0 then 8 else span_sum / w) in
        {
          stride;
          length;
          weight = w;
          footprint = fp;
          active_span;
          region = reg;
          row_stride = row;
        }
        :: acc)
      stride_tbl []
  in
  (* stride_bias <> 0 reweights the pool-selection order by
     |stride|^bias: positive bias favours long-stride (row-walking)
     streams, negative favours unit-stride ones.  At 0.0 the historical
     pure-weight order is used verbatim, so untuned clones are
     byte-identical. *)
  let sorted =
    if stride_bias = 0.0 then
      List.sort (fun a b -> compare b.weight a.weight) all
    else
      let eff s =
        float_of_int s.weight
        *. (float_of_int (max 8 (abs s.stride)) ** stride_bias)
      in
      List.sort
        (fun a b ->
          match compare (eff b) (eff a) with
          | 0 -> compare b.weight a.weight
          | c -> c)
        all
  in
  let chosen = List.filteri (fun i _ -> i < max_streams) sorted in
  Array.of_list
    (List.map
       (fun s ->
         let length = if s.stride = 0 then 1 else max 2 (min 4096 s.length) in
         { s with length })
       chosen)

(* A profile without memory ops still gets one stream, so every
   generator can index the pool. *)
let stream_pool ?stride_bias ~max_streams profile =
  match plan_streams ?stride_bias ~max_streams profile with
  | [||] ->
    [|
      {
        stride = 8;
        length = 2;
        weight = 0;
        footprint = 64;
        active_span = 64;
        region = Program.data_base;
        row_stride = 0;
      };
    |]
  | streams -> streams

(* Index of the stream best matching an op's (stride, footprint):
   stride distance dominates, footprint ratio breaks ties. *)
let assign_stream streams (m : Profile.mem_op) =
  let op_fp = max 8 m.Profile.footprint in
  let score (s : stream_info) =
    let stride_d = float_of_int (abs (s.stride - m.Profile.stride)) in
    let fp_ratio =
      let a = float_of_int (max s.footprint op_fp)
      and b = float_of_int (min s.footprint op_fp) in
      a /. b
    in
    stride_d +. fp_ratio
  in
  let best = ref 0 in
  let best_d = ref infinity in
  Array.iteri
    (fun k s ->
      let d = score s in
      if d < !best_d then begin
        best_d := d;
        best := k
      end)
    streams;
  !best

(* --- SFG walk: steps 1 and 6-9 --- *)

let walk_sfg rng (profile : Profile.t) target_blocks =
  let nodes = profile.Profile.nodes in
  let n = Array.length nodes in
  if n = 0 then [||]
  else begin
    let total_count =
      Array.fold_left (fun acc nd -> acc + nd.Profile.count) 0 nodes
    in
    (* Scale occurrences so they sum to roughly the block target. *)
    let remaining =
      Array.map
        (fun nd ->
          max 1
            (int_of_float
               (Float.round
                  (float_of_int target_blocks
                  *. float_of_int nd.Profile.count
                  /. float_of_int (max 1 total_count)))))
        nodes
    in
    let total_remaining = ref (Array.fold_left ( + ) 0 remaining) in
    let blocks = ref [] in
    let emitted = ref 0 in
    let sample_start () =
      (* CDF over remaining occurrences (step 1). *)
      let total = float_of_int !total_remaining in
      let u = Rng.float rng 1.0 in
      let acc = ref 0.0 in
      let result = ref (-1) in
      (try
         Array.iteri
           (fun i r ->
             acc := !acc +. (float_of_int r /. total);
             if !result < 0 && !acc >= u then begin
               result := i;
               raise Exit
             end)
           remaining
       with Exit -> ());
      if !result >= 0 then !result
      else
        (* numeric fallback: first node with remaining occurrences *)
        let rec find i = if remaining.(i) > 0 then i else find (i + 1) in
        find 0
    in
    let emit i =
      blocks := i :: !blocks;
      incr emitted;
      remaining.(i) <- remaining.(i) - 1;
      decr total_remaining
    in
    while !emitted < target_blocks && !total_remaining > 0 do
      let cur = ref (sample_start ()) in
      let continue = ref true in
      while !continue && !emitted < target_blocks && !total_remaining > 0 do
        emit !cur;
        (* Step 8: follow an outgoing edge with remaining occurrences. *)
        let succs =
          Array.to_list nodes.(!cur).Profile.successors
          |> List.filter (fun (id, _) -> remaining.(id) > 0)
        in
        match succs with
        | [] -> continue := false (* step 8: no outgoing edges -> restart *)
        | succs ->
          let total_p = List.fold_left (fun acc (_, p) -> acc +. p) 0.0 succs in
          let u = Rng.float rng total_p in
          let rec pick acc = function
            | [ (id, _) ] -> id
            | (id, p) :: rest -> if acc +. p >= u then id else pick (acc +. p) rest
            | [] -> assert false
          in
          cur := pick 0.0 succs
      done
    done;
    Array.of_list (List.rev !blocks)
  end

(* --- class draw: step 2 --- *)

let comp_classes =
  [| I.C_int_alu; I.C_int_mul; I.C_int_div; I.C_fp_alu; I.C_fp_mul; I.C_fp_div |]

(* A linear scan, not [Rng.sample_cdf]'s binary search: a parsed mix may
   hold negative or NaN entries, and there the two pick different
   classes.  Written with loops over refs, so a draw allocates
   nothing. *)
let draw_class rng mix =
  let total = ref 0.0 in
  for i = 0 to Array.length comp_classes - 1 do
    total := !total +. mix.(I.class_index comp_classes.(i))
  done;
  if !total <= 0.0 then I.C_int_alu
  else begin
    let u = Rng.float rng !total in
    let acc = ref 0.0 and found = ref (-1) and i = ref 0 in
    while !found < 0 && !i < Array.length comp_classes do
      acc := !acc +. mix.(I.class_index comp_classes.(!i));
      if !acc >= u then found := !i;
      incr i
    done;
    if !found < 0 then I.C_int_alu else comp_classes.(!found)
  end

(* --- dependency-distance register assignment: steps 3 and 10 --- *)

module Recent = struct
  let size = 64

  type t = { dests : int array; mutable count : int }

  let create () = { dests = Array.make size (-1); count = 0 }

  let push t dest =
    t.dests.(t.count land (size - 1)) <- dest;
    t.count <- t.count + 1

  let at t d =
    if d < 1 || d > Int.min t.count (size - 1) then -1
    else t.dests.((t.count - d) land (size - 1))

  let matches ~is_fp id = id >= 0 && if is_fp then id >= 32 else id < 32

  let find t ~is_fp ~distance =
    let found = ref (-1) and delta = ref 0 in
    while !found < 0 && !delta <= 8 do
      let a = at t (distance - !delta) and b = at t (distance + !delta) in
      if matches ~is_fp a then found := a
      else if matches ~is_fp b then found := b;
      incr delta
    done;
    if !found >= 32 then !found - 32 else !found
end

(* --- the modulo branch counter of Portable and Statsim: step 5 --- *)

type counter =
  | Fixed of bool
  | Alternate
  | Modulo of { period : int; taken_slots : int }

let branch_counter (b : Profile.branch_behaviour) =
  let t = b.Profile.transition_rate and tr = b.Profile.taken_rate in
  if t <= 0.02 then Fixed (tr >= 0.5)
  else if t >= 0.9 then Alternate
  else begin
    let period =
      let raw = int_of_float (Float.round (2.0 /. t)) in
      let rec pow2 x = if x >= raw then x else pow2 (2 * x) in
      max 2 (min 256 (pow2 2))
    in
    let taken_slots =
      max 1 (min (period - 1) (int_of_float (Float.round (tr *. float_of_int period))))
    in
    Modulo { period; taken_slots }
  end

(* --- the generator --- *)

type gen_state = {
  rng : Rng.t;
  recent : Recent.t;
  jitter : float; (* dependency-distance jitter probability (0 = off) *)
  mutable next_int : int; (* round-robin index into int_pool *)
  mutable next_fp : int;
  mutable stream_op_counts : int array; (* per stream: ops placed so far *)
}

(* With probability [st.jitter], displace a sampled dependency distance
   by up to ±2 slots.  At jitter 0.0 (the default) this draws nothing
   from the RNG, keeping untuned streams byte-identical. *)
let jitter_distance st d =
  if st.jitter <= 0.0 then d
  else if Rng.float st.rng 1.0 < st.jitter then max 1 (d - 2 + Rng.int st.rng 5)
  else d

(* Realised stream geometry: each synthetic op on a stream owns a shard
   of the stream's footprint, walked with the effective stride and reset
   every [g_length] iterations, so the aggregate clone footprint matches
   the profiled one even when the loop iterates far fewer times than the
   original ran. *)
type geom = {
  g_stride : int;  (* effective per-iteration stride (bytes, signed) *)
  g_length : int;  (* iterations before the pointer wraps back *)
  g_spread : int;  (* byte spacing between ops sharing the stream *)
  g_init : int;  (* initial pointer value *)
  g_row_mask : int;  (* 0 = plain 1-D walk; else 2-D: jump every mask+1 iters *)
  g_row_jump : int;  (* extra displacement applied at each row boundary *)
}

let alloc_int st =
  let r = int_pool.(st.next_int) in
  st.next_int <- (st.next_int + 1) mod Array.length int_pool;
  r

let alloc_fp st =
  let r = fp_pool.(st.next_fp) in
  st.next_fp <- (st.next_fp + 1) mod Array.length fp_pool;
  r

(* The fallback register is drawn for every source, found or not, after
   the distance and its jitter. *)
let src st node_deps ~is_fp =
  let d = jitter_distance st (Profile.sample_distance st.rng node_deps) in
  let pool = if is_fp then fp_pool else int_pool in
  let fallback = pool.(Rng.int st.rng (Array.length pool)) in
  let r = Recent.find st.recent ~is_fp ~distance:d in
  if r >= 0 then r else fallback

let int_src st node_deps = src st node_deps ~is_fp:false
let fp_src st node_deps = src st node_deps ~is_fp:true

let int_alu_ops = [| I.Add; I.Sub; I.Xor; I.And; I.Or |]

(* Generate one computational instruction of the given class (step 2-4). *)
let gen_instr st (node : Profile.node) cls streams geoms mem_queue =
  let deps = node.Profile.dep_fractions in
  match cls with
  | I.C_int_alu ->
    let op = int_alu_ops.(Rng.int st.rng (Array.length int_alu_ops)) in
    let a = int_src st deps and b = int_src st deps in
    let d = alloc_int st in
    Recent.push st.recent d;
    I.Alu (op, d, a, b)
  | I.C_int_mul ->
    let a = int_src st deps and b = int_src st deps in
    let d = alloc_int st in
    Recent.push st.recent d;
    I.Mul (d, a, b)
  | I.C_int_div ->
    let a = int_src st deps and b = int_src st deps in
    let d = alloc_int st in
    Recent.push st.recent d;
    I.Div (d, a, b)
  | I.C_fp_alu ->
    let a = fp_src st deps and b = fp_src st deps in
    let d = alloc_fp st in
    Recent.push st.recent (32 + d);
    I.Falu ((if Rng.bool st.rng then I.Fadd else I.Fsub), d, a, b)
  | I.C_fp_mul ->
    let a = fp_src st deps and b = fp_src st deps in
    let d = alloc_fp st in
    Recent.push st.recent (32 + d);
    I.Fmul (d, a, b)
  | I.C_fp_div ->
    let a = fp_src st deps and b = fp_src st deps in
    let d = alloc_fp st in
    Recent.push st.recent (32 + d);
    I.Fdiv (d, a, b)
  | I.C_load | I.C_store -> (
    (* Take the next profiled memory op of this block (step 4). *)
    match Queue.take_opt mem_queue with
    | Some (m : Profile.mem_op) ->
      let k = assign_stream streams m in
      let slot = st.stream_op_counts.(k) in
      st.stream_op_counts.(k) <- slot + 1;
      let off = geoms.(k).g_spread * slot in
      if m.Profile.is_store then begin
        let src = int_src st deps in
        Recent.push st.recent (-1);
        I.Store (src, stream_reg k, off)
      end
      else begin
        let d = alloc_int st in
        Recent.push st.recent d;
        I.Load (d, stream_reg k, off)
      end
    | None ->
      (* mix sampled a memory class but the block's op list is empty *)
      let d = alloc_int st in
      Recent.push st.recent d;
      I.Alu (I.Add, d, int_src st deps, int_src st deps))
  | I.C_branch | I.C_jump | I.C_other ->
    let d = alloc_int st in
    Recent.push st.recent d;
    I.Alu (I.Xor, d, int_src st deps, int_src st deps)

(* The terminating branch of a synthetic block (step 5).  Returns the
   instructions; the branch always targets [next_label].  [period_lo] /
   [period_hi] quantise the realised period (both powers of two). *)
let gen_branch st (node : Profile.node) ~period_lo ~period_hi ~next_label =
  match node.Profile.branch with
  | None ->
    (* Original block ended in an unconditional transfer. *)
    [ I.Jmp (I.Label next_label) ]
  | Some b ->
    let t = b.Profile.transition_rate in
    let tr = b.Profile.taken_rate in
    if t <= 0.02 then
      (* Strongly biased: a fixed direction, no counter needed. *)
      if tr >= 0.5 then [ I.Br (I.Eq_z, Reg.zero, I.Label next_label) ]
      else [ I.Br (I.Ne_z, Reg.zero, I.Label next_label) ]
    else if t >= 0.9 then
      (* Toggles nearly every execution: alternate on the counter. *)
      [
        I.Alui (I.And, scratch, iter_reg, 1);
        I.Br (I.Ne_z, scratch, I.Label next_label);
      ]
    else begin
      (* Period P ~ 2/t (power of two so the modulo is one AND), taken
         for the first T slots of each period. *)
      let p =
        max period_lo
          (min period_hi (round_pow2 (int_of_float (Float.round (2.0 /. t)))))
      in
      let taken_slots =
        min (p - 1) (int_of_float (Float.round (tr *. float_of_int p)))
      in
      if taken_slots <= 0 then
        (* The profiled taken rate rounds to zero slots at this period
           (tr < 1/(2P), or exactly never taken): clamping it up to one
           slot used to clone the branch as taken once per period.  An
           always-not-taken test is the faithful rendition — execution
           still falls through to the next block. *)
        [ I.Br (I.Ne_z, Reg.zero, I.Label next_label) ]
      else begin
        Recent.push st.recent (-1);
        Recent.push st.recent (-1);
        [
          I.Alui (I.And, scratch, iter_reg, p - 1);
          I.Alui (I.Cmp_lt, scratch, scratch, taken_slots);
          I.Br (I.Ne_z, scratch, I.Label next_label);
        ]
      end
    end

let is_pow2 n = n > 0 && n land (n - 1) = 0

let validate_options o =
  if o.max_streams < 1 || o.max_streams > 12 then
    invalid_arg "Synth.generate: max_streams must be in [1, 12]";
  if not (o.block_scale > 0.0 && Float.is_finite o.block_scale) then
    invalid_arg "Synth.generate: block_scale must be positive and finite";
  if not (o.dep_jitter >= 0.0 && o.dep_jitter <= 1.0) then
    invalid_arg "Synth.generate: dep_jitter must be in [0, 1]";
  if not (Float.is_finite o.stride_bias) then
    invalid_arg "Synth.generate: stride_bias must be finite";
  if
    (not (is_pow2 o.period_min))
    || (not (is_pow2 o.period_max))
    || o.period_min < 2 || o.period_max > 1024
    || o.period_min > o.period_max
  then
    invalid_arg
      "Synth.generate: period bounds must be powers of two with 2 <= min <= \
       max <= 1024"

let generate ?(options = default_options) (profile : Profile.t) =
  validate_options options;
  let rng = Rng.create options.seed in
  let n_nodes = Array.length profile.Profile.nodes in
  if n_nodes = 0 then invalid_arg "Synth.generate: empty profile";
  let target_blocks =
    let base =
      if options.target_blocks > 0 then options.target_blocks
      else min 400 (max 40 (2 * n_nodes))
    in
    if options.block_scale = 1.0 then base
    else
      max 4 (int_of_float (Float.round (options.block_scale *. float_of_int base)))
  in
  let streams =
    stream_pool ~stride_bias:options.stride_bias
      ~max_streams:options.max_streams profile
  in
  let block_ids = walk_sfg rng profile target_blocks in
  let st =
    {
      rng;
      recent = Recent.create ();
      jitter = options.dep_jitter;
      next_int = 0;
      next_fp = 0;
      stream_op_counts = Array.make (Array.length streams) 0;
    }
  in
  (* Realise each stream's geometry: per-op shards partition the
     profiled footprint so the clone covers it within the loop's
     iterations. *)
  let op_counts = Array.make (Array.length streams) 0 in
  Array.iter
    (fun id ->
      Array.iter
        (fun (m : Profile.mem_op) ->
          let k = assign_stream streams m in
          op_counts.(k) <- op_counts.(k) + 1)
        profile.Profile.nodes.(id).Profile.mem_ops)
    block_ids;
  let max_addr = ref Program.data_base in
  let geoms =
    Array.mapi
      (fun k (strm : stream_info) ->
        let c = max 1 op_counts.(k) in
        (* Anchor the stream at the original data structure's address:
           reproducing the source layout preserves cache set conflicts
           between structures (a microarchitecture-independent program
           property — the addresses come from the binary, not the
           cache). *)
        let base =
          if strm.region >= 0 && strm.region < max_int then strm.region / 8 * 8
          else Program.data_base
        in
        let track top = if top > !max_addr then max_addr := top in
        if strm.stride = 0 then begin
          (* Zero dominant stride: repeated or table-style accesses.  Ops
             are spread across the profiled footprint so a randomly
             indexed table occupies its true working set. *)
          let spread =
            if strm.footprint <= 16 then 0 else round8_up (strm.footprint / c)
          in
          track (base + (spread * c) + 72);
          {
            g_stride = 0;
            g_length = 1;
            g_spread = spread;
            g_init = base;
            g_row_mask = 0;
            g_row_jump = 0;
          }
        end
        else begin
          (* Shared walker with run-spread phases: the op instances of a
             stream are spaced across one profiled *run* footprint, so
             the clone touches the same per-window working set as the
             original, while the walker drifts through the whole
             profiled footprint and wraps (covering capacity behaviour).
             The profiled stride is kept exactly; it is only coarsened
             for footprints beyond the 4096-iteration walk cap. *)
          (* A 2-D walk when the profiled row stride is regular and the
             rows are larger than the element stride: walk the run, then
             jump to the next row, wrapping at the footprint. *)
          let row = strm.row_stride in
          let is_2d =
            row > abs strm.stride && strm.length >= 2 && strm.length <= 512
            && row * 2 <= strm.footprint
          in
          if is_2d then begin
            let l2 =
              let rec pow2 x = if x >= strm.length then x else pow2 (2 * x) in
              max 2 (min 1024 (pow2 2))
            in
            let eff = abs strm.stride in
            let run_span = max 8 (min strm.active_span strm.footprint) in
            let spread = round8_up (max 8 (run_span / c)) in
            (* after l2 element steps, land at the next row start *)
            let g_row_jump = row - (eff * l2) in
            let rows = max 2 (strm.footprint / row) in
            let length = min 8192 (l2 * rows) in
            let span = strm.footprint + run_span + (spread * c) + 64 in
            track (base + span + 64);
            {
              g_stride = eff;
              g_length = length;
              g_spread = spread;
              g_init = base;
              g_row_mask = l2 - 1;
              g_row_jump;
            }
          end
          else begin
            let len_raw = strm.footprint / max 8 (abs strm.stride) in
            let length = max 2 (min len_raw 4096) in
            let eff = max (abs strm.stride) (round8_up (strm.footprint / length)) in
            let run_span = max 8 (min strm.active_span strm.footprint) in
            let spread = round8_up (max 8 (run_span / c)) in
            let span = (eff * (length - 1)) + (spread * c) + 64 in
            track (base + span + 64);
            let g_init = if strm.stride >= 0 then base else base + (eff * (length - 1)) in
            {
              g_stride = (if strm.stride >= 0 then eff else -eff);
              g_length = length;
              g_spread = spread;
              g_init;
              g_row_mask = 0;
              g_row_jump = 0;
            }
          end
        end)
      streams
  in
  let data_bytes = max 8 (!max_addr - Program.data_base) in
  (* --- emit code --- *)
  let items = ref [] in
  let emit instr = items := Asm.Ins instr :: !items in
  let emit_label l = items := Asm.Label l :: !items in
  (* preamble: pools, stream pointers, loop counter *)
  List.iter emit pool_preamble;
  Array.iteri (fun k _ -> emit (I.Li (stream_reg k, Int64.of_int geoms.(k).g_init))) streams;
  emit (I.Li (iter_reg, 0L));
  emit (I.Li (bound_reg, 1L)) (* set by [assemble_loop] once the body size is known *);
  emit_label "loop_top";
  (* synthetic basic blocks *)
  let body_instrs = ref 0 in
  Array.iteri
    (fun bi node_id ->
      let node = profile.Profile.nodes.(node_id) in
      let next_label =
        if bi + 1 < Array.length block_ids then Printf.sprintf "bb_%d" (bi + 1)
        else "loop_end"
      in
      emit_label (Printf.sprintf "bb_%d" bi);
      let mem_queue = Queue.create () in
      Array.iter (fun m -> Queue.add m mem_queue) node.Profile.mem_ops;
      let n_mem = Array.length node.Profile.mem_ops in
      let body_slots = max 0 (node.Profile.size - 1) in
      (* Interleave memory ops evenly among the other instructions.  A
         block with no body slot places none of them. *)
      let mem_positions = Array.make body_slots false in
      if n_mem > 0 && body_slots > 0 then begin
        let step = float_of_int body_slots /. float_of_int n_mem in
        for j = 0 to n_mem - 1 do
          let pos = min (body_slots - 1) (int_of_float (float_of_int j *. step)) in
          (* advance past already-claimed slots *)
          let rec place p =
            if p >= body_slots then ()
            else if mem_positions.(p) then place (p + 1)
            else mem_positions.(p) <- true
          in
          place pos
        done
      end;
      for slot = 0 to body_slots - 1 do
        let cls =
          if mem_positions.(slot) then I.C_load else draw_class st.rng node.Profile.mix
        in
        emit (gen_instr st node cls streams geoms mem_queue)
      done;
      (* any leftover memory ops (when size under-counts) are dropped *)
      Queue.clear mem_queue;
      List.iter emit
        (gen_branch st node ~period_lo:options.period_min
           ~period_hi:options.period_max ~next_label);
      body_instrs := !body_instrs + node.Profile.size)
    block_ids;
  emit_label "loop_end";
  (* stream advance / reset (step 11): wrap the pointer exactly at the
     end of its walk so each stream's footprint and re-walk period match
     the profile.  The wrap branches are rarely taken (the reset code
     lives in trampolines after the loop) so maintenance code does not
     bias the clone's taken rate. *)
  Array.iteri
    (fun k (g : geom) ->
      if g.g_stride <> 0 then begin
        emit (I.Alui (I.Add, stream_reg k, stream_reg k, g.g_stride));
        if g.g_row_mask > 0 then begin
          (* 2-D stream: at row boundaries, jump to the next row start *)
          emit (I.Alui (I.And, scratch, iter_reg, g.g_row_mask));
          emit (I.Br (I.Eq_z, scratch, I.Label (Printf.sprintf "do_row_%d" k)));
          emit_label (Printf.sprintf "after_row_%d" k);
          body_instrs := !body_instrs + 2
        end;
        let limit =
          if g.g_row_mask > 0 then
            (* wrap once the walk leaves the footprint *)
            g.g_init + (g.g_stride * (g.g_row_mask + 1))
            + (g.g_row_jump + (g.g_stride * (g.g_row_mask + 1)))
              * (g.g_length / (g.g_row_mask + 1))
          else g.g_init + (g.g_stride * g.g_length)
        in
        if g.g_stride > 0 then begin
          emit (I.Alui (I.Cmp_lt, scratch, stream_reg k, limit));
          emit (I.Br (I.Eq_z, scratch, I.Label (Printf.sprintf "do_reset_%d" k)))
        end
        else begin
          emit (I.Alui (I.Cmp_le, scratch, stream_reg k, limit));
          emit (I.Br (I.Ne_z, scratch, I.Label (Printf.sprintf "do_reset_%d" k)))
        end;
        emit_label (Printf.sprintf "after_reset_%d" k);
        body_instrs := !body_instrs + 3
      end)
    geoms;
  (* loop control: count down so the back-edge condition reads one
     register and the exit is the rarely-taken direction *)
  emit (I.Alui (I.Add, iter_reg, iter_reg, 1));
  emit (I.Alu (I.Cmp_lt, scratch, iter_reg, bound_reg));
  emit (I.Br (I.Ne_z, scratch, I.Label "loop_top"));
  emit I.Halt;
  (* reset / row-jump trampolines (cold) *)
  Array.iteri
    (fun k (g : geom) ->
      if g.g_stride <> 0 then begin
        emit_label (Printf.sprintf "do_reset_%d" k);
        emit (I.Li (stream_reg k, Int64.of_int g.g_init));
        emit (I.Jmp (I.Label (Printf.sprintf "after_reset_%d" k)));
        if g.g_row_mask > 0 then begin
          emit_label (Printf.sprintf "do_row_%d" k);
          emit (I.Alui (I.Add, stream_reg k, stream_reg k, g.g_row_jump));
          emit (I.Jmp (I.Label (Printf.sprintf "after_row_%d" k)))
        end
      end)
    geoms;
  body_instrs := !body_instrs + 3;
  (* Fix the loop bound now that the body size is known: at least the
     requested dynamic length, and enough iterations for the longest
     stream to complete one full footprint walk. *)
  let longest_walk =
    Array.fold_left (fun acc g -> max acc g.g_length) 2 geoms
  in
  let iterations =
    max (max 1 (options.target_dynamic / max 1 !body_instrs)) longest_walk
  in
  assemble_loop ~name:(profile.Profile.name ^ "-clone") ~data_bytes ~iterations !items
