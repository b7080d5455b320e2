module I = Pc_isa.Instr
module Machine = Pc_funcsim.Machine
module Rng = Pc_util.Rng
module Sim = Pc_uarch.Sim
module Predictor = Pc_branch.Predictor
module Config = Pc_uarch.Config
module Study = Pc_caches.Study
module Power = Pc_power.Power
module M = Pc_obs.Metrics

let log_src =
  Logs.Src.create "pc.sample" ~doc:"Sampled-simulation projection warnings"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* --- packed replay events ---

   The timing model reads only (pc, taken, mem_addr) dynamically; class,
   register reads and the written register are static per-pc tables
   (Machine.statics).  One native int per retired instruction therefore
   replays the exact stream [Sim.step] sees:

     bit 0            taken
     bits 1..22       static pc
     bits 23..        mem_addr + 1   (0 = no memory access)

   SRISC addresses stay below the stack base (< 2^23), so the packed
   value fits comfortably in OCaml's 63-bit int. *)

let pc_bits = 22
let pc_mask = (1 lsl pc_bits) - 1

let pack ~pc ~taken ~mem_addr =
  if pc > pc_mask then
    invalid_arg "Pc_sample: static program too large for packed replay traces";
  ((mem_addr + 1) lsl (pc_bits + 1)) lor (pc lsl 1) lor (if taken then 1 else 0)

let packed_pc v = (v lsr 1) land pc_mask
let packed_taken v = v land 1 = 1
let packed_mem_addr v = (v lsr (pc_bits + 1)) - 1

type rep = {
  cluster : int;
  start : int;
  window : int;
  warmup : int;
  weight : int;
  trace : int array;
}

type plan = {
  interval : int;
  total_instrs : int;
  n_intervals : int;
  k : int;
  dims : int;
  coverage : float;
  reps : rep array;
  statics : Machine.statics;
}

(* --- metrics --- *)

let c_plans = M.counter "sample.plans"
let c_intervals = M.counter "sample.intervals"
let c_clusters = M.counter "sample.clusters"
let c_projections = M.counter "sample.projections"
let c_replayed = M.counter "sample.replayed_instrs"
let g_coverage = M.gauge "sample.coverage_bp"

(* --- BBV collection ---

   Per-interval execution-frequency vectors over static instructions,
   randomly projected into [dims] dimensions by hashing the pc
   (SimPoint projects basic-block vectors the same way; counting per
   static instruction rather than per block leader carries the same
   phase signal on SRISC's small programs).  Each vector is normalised
   by the interval length so a short final interval clusters by shape,
   not size. *)

let dim_of_pc dims pc = (pc * 0x9E3779B9) land max_int mod dims

let collect_bbvs ~dims ~interval ~max_instrs program =
  let m = Machine.load program in
  let dim = Array.init (Array.length program.Pc_isa.Program.code) (dim_of_pc dims) in
  let counts = Array.make dims 0 in
  let vectors = ref [] in
  let filled = ref 0 in
  let flush () =
    if !filled > 0 then begin
      let n = float_of_int !filled in
      vectors := Array.map (fun c -> float_of_int c /. n) counts :: !vectors;
      Array.fill counts 0 dims 0;
      filled := 0
    end
  in
  let total =
    Machine.run_batched ~max_instrs m (fun batch ->
        for j = 0 to batch.Machine.len - 1 do
          let d = dim.(batch.Machine.b_pc.(j)) in
          counts.(d) <- counts.(d) + 1;
          incr filled;
          if !filled = interval then flush ()
        done)
  in
  flush ();
  (total, Array.of_list (List.rev !vectors), Machine.statics m)

(* --- seeded k-means with BIC-style k selection --- *)

let sq_dist a b =
  let acc = ref 0.0 in
  for i = 0 to Array.length a - 1 do
    let d = a.(i) -. b.(i) in
    acc := !acc +. (d *. d)
  done;
  !acc

let nearest centroids v =
  let best = ref 0 and best_d = ref (sq_dist centroids.(0) v) in
  for c = 1 to Array.length centroids - 1 do
    let d = sq_dist centroids.(c) v in
    if d < !best_d then begin
      best := c;
      best_d := d
    end
  done;
  (!best, !best_d)

(* k-means++ seeding: each subsequent centroid is drawn with probability
   proportional to its squared distance from the chosen set. *)
let seed_centroids rng k vectors =
  let n = Array.length vectors in
  let centroids = Array.make k vectors.(Rng.int rng n) in
  for c = 1 to k - 1 do
    let d2 = Array.map (fun v -> snd (nearest (Array.sub centroids 0 c) v)) vectors in
    let cdf = Array.make n 0.0 in
    let acc = ref 0.0 in
    Array.iteri
      (fun i d ->
        acc := !acc +. d;
        cdf.(i) <- !acc)
      d2;
    let pick = if !acc > 0.0 then Rng.sample_cdf rng cdf else Rng.int rng n in
    centroids.(c) <- vectors.(pick)
  done;
  Array.map Array.copy centroids

let kmeans rng ~k ~iters vectors =
  let n = Array.length vectors in
  let dims = Array.length vectors.(0) in
  let centroids = seed_centroids rng k vectors in
  let assignment = Array.make n (-1) in
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds < iters do
    incr rounds;
    changed := false;
    Array.iteri
      (fun i v ->
        let c, _ = nearest centroids v in
        if c <> assignment.(i) then begin
          assignment.(i) <- c;
          changed := true
        end)
      vectors;
    (* Recompute centroids; an emptied cluster adopts the point farthest
       from its current centroid (deterministic, no extra draws). *)
    let sums = Array.init k (fun _ -> Array.make dims 0.0) in
    let members = Array.make k 0 in
    Array.iteri
      (fun i v ->
        let c = assignment.(i) in
        members.(c) <- members.(c) + 1;
        Array.iteri (fun d x -> sums.(c).(d) <- sums.(c).(d) +. x) v)
      vectors;
    Array.iteri
      (fun c sum ->
        if members.(c) > 0 then begin
          let inv = 1.0 /. float_of_int members.(c) in
          centroids.(c) <- Array.map (fun x -> x *. inv) sum
        end
        else begin
          let far = ref 0 and far_d = ref neg_infinity in
          Array.iteri
            (fun i v ->
              let d = sq_dist centroids.(assignment.(i)) v in
              if d > !far_d then begin
                far := i;
                far_d := d
              end)
            vectors;
          centroids.(c) <- Array.copy vectors.(!far);
          assignment.(!far) <- c;
          changed := true
        end)
      sums
  done;
  let sse = ref 0.0 in
  Array.iteri
    (fun i v -> sse := !sse +. sq_dist centroids.(assignment.(i)) v)
    vectors;
  (assignment, centroids, !sse)

(* BIC-style model selection (the SimPoint rule): score each k by a
   spherical-Gaussian log-likelihood proxy penalised by parameter count,
   then take the smallest k whose score reaches 90% of the way from the
   worst to the best.  Favouring small k keeps the replay budget low
   while still splitting genuinely distinct phases. *)
let bic_score ~n ~dims ~k sse =
  let nf = float_of_int n in
  let ll = -0.5 *. nf *. log ((sse /. nf) +. 1e-12) in
  let params = float_of_int (k * (dims + 1)) in
  ll -. (0.5 *. params *. log nf)

let choose_clustering rng ~max_k ~restarts vectors =
  let n = Array.length vectors in
  let dims = Array.length vectors.(0) in
  let max_k = max 1 (min max_k n) in
  let candidates =
    Array.init max_k (fun i ->
        let k = i + 1 in
        let best = ref None in
        for _ = 1 to restarts do
          let (_, _, sse) as r = kmeans rng ~k ~iters:50 vectors in
          match !best with
          | Some (_, _, best_sse) when best_sse <= sse -> ()
          | _ -> best := Some r
        done;
        let assignment, centroids, sse = Option.get !best in
        (k, assignment, centroids, bic_score ~n ~dims ~k sse))
  in
  let scores = Array.map (fun (_, _, _, s) -> s) candidates in
  let s_min = Array.fold_left min infinity scores in
  let s_max = Array.fold_left max neg_infinity scores in
  let threshold = s_min +. (0.9 *. (s_max -. s_min)) in
  let chosen = ref (Array.length candidates - 1) in
  (try
     Array.iteri
       (fun i (_, _, _, s) ->
         if s >= threshold then begin
           chosen := i;
           raise Exit
         end)
       candidates
   with Exit -> ());
  let k, assignment, centroids, _ = candidates.(!chosen) in
  (k, assignment, centroids)

(* --- plan construction --- *)

(* Aim for ~32 intervals over the simulation budget (enough for the
   k <= 6 clustering to see real phase structure), but never intervals
   so small that BBVs are all noise (10k floor) or so large that one
   interval swallows the whole run (1M cap). *)
let auto_interval ~max_instrs =
  if max_instrs <= 0 then
    invalid_arg "Pc_sample.auto_interval: max_instrs must be positive";
  min 1_000_000 (max 10_000 (max_instrs / 32))

let interval_length ~interval ~total i =
  min interval (total - (i * interval))

let trace_instrs reps = Array.fold_left (fun acc rep -> acc + Array.length rep.trace) 0 reps
let replayed_instrs plan = trace_instrs plan.reps

let bbv_dims = 32
let max_k = 6
let restarts = 3

let plan ~seed ~interval ~max_instrs program =
  if interval <= 0 then invalid_arg "Pc_sample.plan: interval must be positive";
  let total_instrs, vectors, statics =
    collect_bbvs ~dims:bbv_dims ~interval ~max_instrs program
  in
  if total_instrs = 0 then invalid_arg "Pc_sample.plan: program retired no instructions";
  let n_intervals = Array.length vectors in
  let rng = Rng.create (seed lxor 0x53414d50 (* "SAMP" *)) in
  let k, assignment, centroids = choose_clustering rng ~max_k ~restarts vectors in
  (* Representative per cluster: the member interval nearest its
     centroid; weight is the cluster's dynamic instruction count. *)
  let rep_specs =
    Array.init k (fun c ->
        let best = ref (-1) and best_d = ref infinity in
        let weight = ref 0 in
        Array.iteri
          (fun i v ->
            if assignment.(i) = c then begin
              weight := !weight + interval_length ~interval ~total:total_instrs i;
              let d = sq_dist centroids.(c) v in
              if d < !best_d then begin
                best := i;
                best_d := d
              end
            end)
          vectors;
        let idx = !best in
        let start = idx * interval in
        let window = interval_length ~interval ~total:total_instrs idx in
        (* Warmup: one full interval.  The replayed representative
           starts with cold caches and predictors that the detailed run
           has long since warmed; anything shorter leaves a visible
           cold-start bias (projected CPI systematically high) once L2
           is in play. *)
        let warmup = min interval start in
        (c, start, window, warmup, !weight))
  in
  (* Second functional pass: record the packed replay trace of every
     representative (warmup prefix + measurement window) in one sweep
     that stops where the last representative ends.  A chunk holds the
     dynamic indices [first, first + len); every trace copies the rows
     its [lo, hi) range shares with them, taking the address only from
     loads and stores and the outcome only from branches (the batch
     contract leaves them stale on other rows). *)
  let traces =
    Array.map (fun (_, start, window, warmup, _) ->
        (start - warmup, start + window, Array.make (warmup + window) 0, ref 0))
      rep_specs
  in
  let last_end = Array.fold_left (fun acc (_, hi, _, _) -> max acc hi) 0 traces in
  let classes = statics.Machine.s_classes in
  let m = Machine.load program in
  let base = ref 0 in
  ignore
    (Machine.run_batched ~max_instrs:last_end m (fun batch ->
         let first = !base in
         base := first + batch.Machine.len;
         Array.iter
           (fun (lo, hi, buf, cursor) ->
             for i = max lo first to min hi !base - 1 do
               let j = i - first in
               let pc = batch.Machine.b_pc.(j) in
               let cls = classes.(pc) in
               buf.(!cursor) <-
                 pack ~pc
                   ~taken:(cls = I.C_branch && batch.Machine.b_taken.(j))
                   ~mem_addr:
                     (if cls = I.C_load || cls = I.C_store then
                        batch.Machine.b_addr.(j)
                      else -1);
               incr cursor
             done)
           traces));
  let reps =
    Array.mapi
      (fun r (c, start, window, warmup, weight) ->
        let _, _, trace, cursor = traces.(r) in
        assert (!cursor = Array.length trace);
        { cluster = c; start; window; warmup; weight; trace })
      rep_specs
  in
  let coverage = float_of_int (trace_instrs reps) /. float_of_int total_instrs in
  M.incr c_plans;
  M.add c_intervals n_intervals;
  M.add c_clusters k;
  M.record_max g_coverage (int_of_float (coverage *. 10_000.0));
  (* Deterministic trace marker (plans are memoized per key upstream, so
     each fires once per plan at every pool width). *)
  Pc_obs.Event.instant
    ("sample:plan:" ^ program.Pc_isa.Program.name)
    [
      ("n_intervals", Pc_obs.Event.Int n_intervals);
      ("k", Pc_obs.Event.Int k);
      ("coverage_bp", Pc_obs.Event.Int (int_of_float (coverage *. 10_000.0)));
    ];
  { interval; total_instrs; n_intervals; k; dims = bbv_dims; coverage; reps; statics }

(* --- replay --- *)

let feed_trace sim statics trace ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Array.length trace then
    invalid_arg "Pc_sample.feed_trace";
  let classes = statics.Machine.s_classes in
  let reads = statics.Machine.s_read_lists in
  let writes = statics.Machine.s_write_ids in
  for i = pos to pos + len - 1 do
    let packed = trace.(i) in
    let pc = packed_pc packed in
    Sim.step sim ~pc ~cls:classes.(pc) ~reads:reads.(pc) ~write:writes.(pc)
      ~addr:(packed_mem_addr packed) ~taken:(packed_taken packed)
  done

type window = { instrs : int; cycles : int }

(* The model is causal, so the cycles a window costs are the commit
   clock at its end less the clock at its boundary; a window with any
   instruction costs at least one. *)
let window ~instrs ~boundary ~commit =
  { instrs; cycles = (if instrs > 0 then max (commit - boundary) 1 else 0) }

(* The one code that times a sampled window, in whatever timing state
   the caller steps: a fresh one per representative for [replay_phases],
   a tenant's own for the co-run arbiter. *)
module Walk = struct
  type t = {
    plan : plan;
    mutable rep : int;  (** the representative being walked *)
    mutable pos : int;  (** the next instruction of its trace *)
    mutable boundary : int;  (** the clock at its warmup boundary *)
    windows : window array;
  }

  let create plan =
    let windows = Array.make (Array.length plan.reps) { instrs = 0; cycles = 0 } in
    { plan; rep = 0; pos = 0; boundary = 0; windows }

  let finished w = w.rep >= Array.length w.plan.reps
  let windows w = w.windows
  let warmup rep = min rep.warmup (Array.length rep.trace)

  (* Read the clock at the current representative's warmup boundary, and
     close every representative whose trace is done. *)
  let rec settle w sim =
    if not (finished w) then begin
      let rep = w.plan.reps.(w.rep) in
      let len = Array.length rep.trace in
      let warmup = warmup rep in
      if w.pos = warmup then w.boundary <- Sim.committed_cycle sim;
      if w.pos = len then begin
        w.windows.(w.rep) <-
          window ~instrs:(len - warmup) ~boundary:w.boundary
            ~commit:(Sim.committed_cycle sim);
        w.rep <- w.rep + 1;
        w.pos <- 0;
        settle w sim
      end
    end

  let step w sim ~quota =
    settle w sim;
    if finished w then 0
    else begin
      let rep = w.plan.reps.(w.rep) in
      let len = Array.length rep.trace in
      let stop = if w.pos < warmup rep then warmup rep else len in
      let n = min quota (stop - w.pos) in
      feed_trace sim w.plan.statics rep.trace ~pos:w.pos ~len:n;
      w.pos <- w.pos + n;
      settle w sim;
      n
    end
end

let replay_phases (cfg : Config.t) plan =
  Array.map
    (fun rep ->
      M.add c_replayed (Array.length rep.trace);
      let sim = Sim.create cfg in
      let walk = Walk.create { plan with reps = [| rep |] } in
      while not (Walk.finished walk) do
        ignore (Walk.step walk sim ~quota:max_int)
      done;
      (rep, (Walk.windows walk).(0), Sim.finish sim))
    plan.reps

(* --- projection: timing --- *)

(* A window that retired nothing (or cost no commit cycles) carries no
   CPI signal: dividing by it would inject NaN/inf into every projection
   that sums over phases.  Such phases are skipped with a warning and
   their population is re-attributed pro rata to the surviving phases. *)
let phase_valid w = w.instrs > 0 && w.cycles > 0

let warn_skipped ~what ~config_name ~weight w =
  Log.warn (fun m ->
      m "%s(%s): skipping empty representative (weight %d, measured %d instrs / %d cycles)"
        what config_name weight w.instrs w.cycles)

(* The weighting of every counter projection.  [phases] are
   (population, replayed length, payload) triples; [skip] is called on
   each phase [valid] rejects.  Returns the survivors, in order, with
   their population as a float scaled by the renormalisation factor;
   empty when nothing survives.  With nothing skipped the factor is
   exactly 1.0, so every float is bit-identical to the unguarded fold. *)
let reweigh ~valid ~skip phases =
  let valid, skipped =
    List.partition (fun (_, _, x) -> valid x) (Array.to_list phases)
  in
  List.iter (fun (w, _, x) -> skip w x) skipped;
  let renorm =
    if skipped = [] then 1.0
    else
      let sum l = List.fold_left (fun acc (w, _, _) -> acc + w) 0 l in
      let valid_w = sum valid in
      if valid_w <= 0 then 1.0
      else float_of_int (valid_w + sum skipped) /. float_of_int valid_w
  in
  Array.of_list
    (List.map (fun (w, len, x) -> (float_of_int w *. renorm, len, x)) valid)

(* A whole-program event count: each surviving phase's count scaled by
   its population over its replayed length — an approximation (the
   warmup share of each replay is attributed pro rata), good enough for
   the power model and cross-checks. *)
let scaled runs field =
  let acc =
    Array.fold_left
      (fun acc (wf, len, x) ->
        let ratio = wf /. float_of_int (max 1 len) in
        acc +. (float_of_int (field x) *. ratio))
      0.0 runs
  in
  int_of_float (Float.round acc)

let recombine ~config_name ~total_instrs phases =
  let runs =
    reweigh
      ~valid:(fun (w, _) -> phase_valid w)
      ~skip:(fun weight (w, _) -> warn_skipped ~what:"recombine" ~config_name ~weight w)
      (Array.map (fun (weight, w, (r : Sim.result)) -> (weight, r.Sim.instrs, (w, r))) phases)
  in
  if Array.length runs = 0 then begin
    (* Degenerate: nothing measured anywhere.  Project IPC 1.0 with
       zeroed event counters rather than divide by zero. *)
    Log.warn (fun m ->
        m "recombine(%s): no representative measured any work; projecting IPC 1.0 with zeroed counters"
          config_name);
    M.incr c_projections;
    Sim.of_counters ~config_name ~instrs:total_instrs ~cycles:(max 1 total_instrs)
      (fun _ -> 0)
  end
  else begin
    (* Whole-program cycles: each cluster contributes its population's
       instruction count at its representative's warmup-free CPI. *)
    let cycles_f =
      Array.fold_left
        (fun acc (wf, _, (w, _)) ->
          acc +. (wf *. (float_of_int w.cycles /. float_of_int (max 1 w.instrs))))
        0.0 runs
    in
    let cycles = max 1 (int_of_float (Float.round cycles_f)) in
    M.incr c_projections;
    Sim.of_counters ~config_name ~instrs:total_instrs ~cycles (fun read ->
        scaled runs (fun (_, r) -> read r))
  end

let project_of_phases plan phases =
  if Array.length phases = 0 then
    invalid_arg "Pc_sample.Sample.project_of_phases: empty phase array";
  let _, _, (r : Sim.result) = phases.(0) in
  recombine ~config_name:r.Sim.config_name ~total_instrs:plan.total_instrs
    (Array.map (fun ((rep : rep), w, r) -> (rep.weight, w, r)) phases)

(* The co-run's pricing.  Not [recombine]: that rounds whole-program
   cycles to an integer, which would move every printed slowdown. *)
let weighted_cpi ~config_name plan windows =
  if Array.length windows <> Array.length plan.reps then
    invalid_arg "Pc_sample.Sample.weighted_cpi: one window per representative";
  let valid_w = ref 0 and cycles = ref 0.0 in
  Array.iteri
    (fun i (rep : rep) ->
      let w = windows.(i) in
      if phase_valid w then begin
        valid_w := !valid_w + rep.weight;
        cycles :=
          !cycles
          +. (float_of_int rep.weight *. float_of_int w.cycles /. float_of_int w.instrs)
      end
      else warn_skipped ~what:"weighted_cpi" ~config_name ~weight:rep.weight w)
    plan.reps;
  if !valid_w = 0 then 1.0 else !cycles /. float_of_int !valid_w

(* --- projection: power ---

   Power is energy per cycle, so the whole-run average is the
   cycle-weighted mean of the per-phase averages: each phase contributes
   its projected cycle share (population × representative CPI) at the
   power of its representative's measurement window.  The window view
   restricts [instrs]/[cycles] to the window's and pro-rata scales the
   whole-run event counters into it — never the full-run counters,
   which would double-count the warmup prefix. *)

let window_result w (r : Sim.result) =
  let f = float_of_int w.instrs /. float_of_int (max 1 r.Sim.instrs) in
  Sim.of_counters ~config_name:r.Sim.config_name ~instrs:w.instrs
    ~cycles:(max 1 w.cycles) (fun read ->
      int_of_float (Float.round (float_of_int (read r) *. f)))

let project_power_of_phases (cfg : Config.t) plan phases =
  let valid, skipped =
    List.partition (fun (_, w, _) -> phase_valid w) (Array.to_list phases)
  in
  List.iter
    (fun ((rep : rep), w, _) ->
      warn_skipped ~what:"project_power" ~config_name:cfg.Config.name
        ~weight:rep.weight w)
    skipped;
  match valid with
  | [] ->
    Log.warn (fun m ->
        m "project_power(%s): no representative measured any work; pricing the recombined projection"
          cfg.Config.name);
    Power.total cfg (project_of_phases plan phases)
  | _ ->
    let num = ref 0.0 and den = ref 0.0 in
    List.iter
      (fun ((rep : rep), w, r) ->
        let cpi = float_of_int w.cycles /. float_of_int w.instrs in
        let cyc = float_of_int rep.weight *. cpi in
        let p = Power.total cfg (window_result w r) in
        num := !num +. (cyc *. p);
        den := !den +. cyc)
      valid;
    M.incr c_projections;
    if !den > 0.0 then !num /. !den
    else Power.total cfg (project_of_phases plan phases)

(* --- projection: the 28-cache study --- *)

let feed_addrs trace ~from ~until emit =
  for i = from to until - 1 do
    let addr = packed_mem_addr trace.(i) in
    if addr >= 0 then emit addr
  done

(* Cold-start bounds.  A replayed window starts from caches warmed only
   by its short prefix; for configurations much larger than the prefix's
   reach, re-touched lines miss spuriously and a cold replay
   overestimates misses (upper bound).  Priming the caches with one
   extra pass of the window itself before measuring removes those
   misses but also the genuine compulsory ones (lower bound).  The
   midpoint of the two bounds is the projection — the classic
   cold/warm-bound estimator for sampled cache simulation.  One walk of
   prefix, window, window reads both bounds. *)
let project_mpi ?(onepass = false) plan =
  let n_configs = Array.length Study.configs in
  let proj_misses = Array.make n_configs 0.0 in
  Array.iter
    (fun rep ->
      let len = Array.length rep.trace in
      M.add c_replayed (len + rep.window);
      let g = Study.grid ~onepass in
      let emit = Study.access g in
      feed_addrs rep.trace ~from:0 ~until:rep.warmup emit;
      let prefix = Study.misses g and prefix_refs = Study.accesses g in
      feed_addrs rep.trace ~from:rep.warmup ~until:len emit;
      let primed = Study.misses g in
      feed_addrs rep.trace ~from:rep.warmup ~until:len emit;
      let again = Study.misses g in
      Study.finish g ~measured:(Study.accesses g - prefix_refs);
      let ratio = float_of_int rep.weight /. float_of_int (max 1 rep.window) in
      for i = 0 to n_configs - 1 do
        let cold = primed.(i) - prefix.(i) and warm = again.(i) - primed.(i) in
        let est = 0.5 *. float_of_int (cold + warm) in
        proj_misses.(i) <- proj_misses.(i) +. (est *. ratio)
      done)
    plan.reps;
  M.incr c_projections;
  Array.map (fun misses -> misses /. float_of_int plan.total_instrs) proj_misses

(* --- projection: branch predictors ---

   A predictor sees only the (pc, taken) stream of conditional branches
   in retire order, so one replay of a representative prices every
   predictor without the timing model.  The replayed window is empty
   exactly when the timing model's would be (its instructions are the
   trace past the warmup, and a non-empty window always costs at least
   one cycle), so [reweigh] and [scaled] give each predictor the
   lookups and mispredictions [recombine] projects. *)
let project_bpred configs plan =
  let classes = plan.statics.Machine.s_classes in
  let phases =
    Array.map
      (fun rep ->
        M.add c_replayed (Array.length rep.trace);
        let preds = Array.of_list (List.map Predictor.create configs) in
        Array.iter
          (fun packed ->
            let pc = packed_pc packed in
            if classes.(pc) = I.C_branch then begin
              let taken = packed_taken packed in
              Array.iter (fun p -> ignore (Predictor.observe p ~pc ~taken)) preds
            end)
          rep.trace;
        (rep.weight, Array.length rep.trace, (rep, preds)))
      plan.reps
  in
  let runs =
    reweigh
      ~valid:(fun (rep, _) -> Array.length rep.trace > rep.warmup)
      ~skip:(fun weight (rep, _) ->
        Log.warn (fun m ->
            m "project_bpred: skipping empty representative (weight %d, warmup %d of %d instrs)"
              weight rep.warmup (Array.length rep.trace)))
      phases
  in
  M.incr c_projections;
  Array.init (List.length configs) (fun i ->
      let count field = scaled runs (fun (_, preds) -> field preds.(i)) in
      let lookups = count Predictor.lookups in
      if lookups = 0 then 0.0
      else float_of_int (count Predictor.mispredictions) /. float_of_int lookups)
