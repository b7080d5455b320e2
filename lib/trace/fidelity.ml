module Profile = Pc_profile.Profile
module Json = Pc_util.Json
module M = Pc_obs.Metrics

type characteristics = {
  instr_mix_l1 : float;
  dep_dist_l1 : float;
  stride_agreement : float;
  single_stride_err : float;
  taken_rate_err : float;
  transition_rate_err : float;
  sfg_block_ratio : float;
  avg_block_size_ratio : float;
}

type phase = {
  p_index : int;
  p_orig_start : int;
  p_orig_instrs : int;
  p_clone_start : int;
  p_clone_instrs : int;
  p_c : characteristics;
}

type report = {
  bench : string;
  orig_instrs : int;
  clone_instrs : int;
  c : characteristics;
  phases : phase list;
}

(* Characteristic names as they appear in pc-fidelity/1 rows — one
   source of truth for emit and fitness. *)
let characteristic_fields c =
  [
    ("instr_mix_l1", c.instr_mix_l1);
    ("dep_dist_l1", c.dep_dist_l1);
    ("stride_agreement", c.stride_agreement);
    ("single_stride_err", c.single_stride_err);
    ("taken_rate_err", c.taken_rate_err);
    ("transition_rate_err", c.transition_rate_err);
    ("sfg_block_ratio", c.sfg_block_ratio);
    ("avg_block_size_ratio", c.avg_block_size_ratio);
  ]

(* --- distribution distances over profile aggregates --- *)

let l1 a b =
  let n = max (Array.length a) (Array.length b) in
  let get arr i = if i < Array.length arr then arr.(i) else 0.0 in
  let s = ref 0.0 in
  for i = 0 to n - 1 do
    s := !s +. Float.abs (get a i -. get b i)
  done;
  !s

(* Reference-weighted distribution over dominant strides. *)
let stride_distribution (p : Profile.t) =
  let tbl = Hashtbl.create 64 in
  let total = ref 0.0 in
  Array.iter
    (fun (node : Profile.node) ->
      Array.iter
        (fun (m : Profile.mem_op) ->
          let w = float_of_int m.Profile.refs in
          let prev = Option.value ~default:0.0 (Hashtbl.find_opt tbl m.Profile.stride) in
          Hashtbl.replace tbl m.Profile.stride (prev +. w);
          total := !total +. w)
        node.Profile.mem_ops)
    p.Profile.nodes;
  (tbl, !total)

(* Histogram intersection of the two stride distributions: 1.0 when the
   clone reproduces the original's stride population exactly, 0.0 when
   they are disjoint. *)
let stride_agreement orig clone =
  let o_tbl, o_total = stride_distribution orig in
  let c_tbl, c_total = stride_distribution clone in
  if o_total <= 0.0 || c_total <= 0.0 then
    if o_total <= 0.0 && c_total <= 0.0 then 1.0 else 0.0
  else
    Hashtbl.fold
      (fun stride w acc ->
        match Hashtbl.find_opt c_tbl stride with
        | Some w' -> acc +. Float.min (w /. o_total) (w' /. c_total)
        | None -> acc)
      o_tbl 0.0

let ratio num den =
  if den = 0.0 then if num = 0.0 then 1.0 else Float.infinity
  else num /. den

let compare_profiles ~(original : Profile.t) ~(clone : Profile.t) =
  let branch_rates p = Option.value ~default:(0.0, 0.0) (Profile.branch_rates p) in
  let o_taken, o_trans = branch_rates original in
  let c_taken, c_trans = branch_rates clone in
  {
    instr_mix_l1 = l1 original.Profile.global_mix clone.Profile.global_mix;
    dep_dist_l1 = l1 (Profile.dep_distribution original) (Profile.dep_distribution clone);
    stride_agreement = stride_agreement original clone;
    single_stride_err =
      Float.abs
        (original.Profile.single_stride_fraction
        -. clone.Profile.single_stride_fraction);
    taken_rate_err = Float.abs (o_taken -. c_taken);
    transition_rate_err = Float.abs (o_trans -. c_trans);
    sfg_block_ratio =
      ratio
        (float_of_int (Array.length clone.Profile.nodes))
        (float_of_int (Array.length original.Profile.nodes));
    avg_block_size_ratio =
      ratio clone.Profile.avg_block_size original.Profile.avg_block_size;
  }

(* --- measurement: re-profile a generated clone --- *)

let g_mix = M.gauge "fidelity.instr_mix_l1_bp_max"
let g_dep = M.gauge "fidelity.dep_dist_l1_bp_max"
let g_stride = M.gauge "fidelity.stride_agreement_bp_min"
let c_measured = M.counter "fidelity.benchmarks_measured"

let bp v =
  if Float.is_finite v then int_of_float (Float.round (v *. 10_000.0)) else -1

let measure ?max_instrs ~bench ~(original : Profile.t) clone_program =
  Pc_obs.Span.with_ ~args:[ ("bench", Pc_obs.Event.Str bench) ]
    "fidelity:measure"
  @@ fun () ->
  let clone = Pc_profile.Collector.profile ?max_instrs clone_program in
  let c = compare_profiles ~original ~clone in
  M.incr c_measured;
  M.record_max g_mix (bp c.instr_mix_l1);
  M.record_max g_dep (bp c.dep_dist_l1);
  (* stride agreement gates from below; track the worst (lowest) seen as
     a negated max so the gauge's record_max semantics still apply *)
  M.record_max g_stride (-bp c.stride_agreement);
  Pc_obs.Event.instant
    ("fidelity:" ^ bench)
    [
      ("instr_mix_l1", Pc_obs.Event.Float c.instr_mix_l1);
      ("dep_dist_l1", Pc_obs.Event.Float c.dep_dist_l1);
      ("stride_agreement", Pc_obs.Event.Float c.stride_agreement);
    ];
  {
    bench;
    orig_instrs = original.Profile.instr_count;
    clone_instrs = clone.Profile.instr_count;
    c;
    phases = [];
  }

(* --- per-phase (interval-local) scoring ---

   The global characteristics can hide phase behaviour: a clone that
   averages two program phases scores well globally while matching
   neither.  Slicing both runs and comparing slice by slice exposes
   that.  The original is cut at fixed [interval] boundaries (the same
   boundaries pc_sample uses); the clone — a compressed rendition of
   the whole run — is cut proportionally, so phase p of each covers the
   same fraction of its run. *)

let c_phases = M.counter "fidelity.phases_measured"

(* The explicit "no clone instructions fell in this phase" row: all
   characteristics NaN, rendered as null in pc-fidelity/1. *)
let null_characteristics =
  {
    instr_mix_l1 = Float.nan;
    dep_dist_l1 = Float.nan;
    stride_agreement = Float.nan;
    single_stride_err = Float.nan;
    taken_rate_err = Float.nan;
    transition_rate_err = Float.nan;
    sfg_block_ratio = Float.nan;
    avg_block_size_ratio = Float.nan;
  }

let measure_phases ~interval ~original ~clone report =
  if interval < 1 then
    invalid_arg "Fidelity.measure_phases: interval must be positive";
  Pc_obs.Span.with_
    ~args:
      [
        ("bench", Pc_obs.Event.Str report.bench);
        ("interval", Pc_obs.Event.Int interval);
      ]
    "fidelity:phases"
  @@ fun () ->
  let orig_total = report.orig_instrs and clone_total = report.clone_instrs in
  let n = max 1 ((orig_total + interval - 1) / interval) in
  let phases =
    List.init n (fun p ->
        let o_start = p * interval in
        let o_len = min interval (orig_total - o_start) in
        (* Exact proportional partition of the clone: phase p owns
           [p*total/n, (p+1)*total/n).  When clone_total < n some phases
           own zero instructions — formerly a [max 1] clamp re-measured
           the neighbouring phase's slice there, double-counting it; an
           empty slice now yields an explicit null row instead. *)
        let c_start = p * clone_total / n in
        let c_len = ((p + 1) * clone_total / n) - c_start in
        if c_len = 0 then begin
          M.incr c_phases;
          {
            p_index = p;
            p_orig_start = o_start;
            p_orig_instrs = o_len;
            p_clone_start = c_start;
            p_clone_instrs = 0;
            p_c = null_characteristics;
          }
        end
        else begin
          let po =
            Pc_profile.Collector.profile ~start:o_start ~max_instrs:o_len
              original
          in
          let pc =
            Pc_profile.Collector.profile ~start:c_start ~max_instrs:c_len clone
          in
          M.incr c_phases;
          {
            p_index = p;
            p_orig_start = o_start;
            p_orig_instrs = po.Profile.instr_count;
            p_clone_start = c_start;
            p_clone_instrs = pc.Profile.instr_count;
            p_c = compare_profiles ~original:po ~clone:pc;
          }
        end)
  in
  { report with phases }

(* --- pc-fidelity/1 JSON --- *)

let characteristics_json c =
  List.map (fun (name, v) -> (name, Json.fixed 6 v)) (characteristic_fields c)

let phase_json ph =
  Json.Obj
    ([
       ("phase", Json.int ph.p_index);
       ("orig_start", Json.int ph.p_orig_start);
       ("orig_instrs", Json.int ph.p_orig_instrs);
       ("clone_start", Json.int ph.p_clone_start);
       ("clone_instrs", Json.int ph.p_clone_instrs);
     ]
    @ characteristics_json ph.p_c)

let doc ~seed ~profile_instrs ~clone_dynamic reports =
  let row r =
    (* additive: absent when per-phase scoring didn't run, so reports
       without it stay byte-identical to pre-phase pc-fidelity/1 *)
    let phases =
      if r.phases = [] then []
      else [ ("phases", Json.List (List.map phase_json r.phases)) ]
    in
    Json.Obj
      ([
         ("bench", Json.Str r.bench);
         ("orig_instrs", Json.int r.orig_instrs);
         ("clone_instrs", Json.int r.clone_instrs);
       ]
      @ characteristics_json r.c @ phases)
  in
  Json.Obj
    [
      ("schema", Json.Str "pc-fidelity/1");
      ("seed", Json.int seed);
      ("profile_instrs", Json.int profile_instrs);
      ("clone_dynamic", Json.int clone_dynamic);
      ("benchmarks", Json.List (List.map row reports));
    ]

let json ~seed ~profile_instrs ~clone_dynamic reports =
  Json.encode (doc ~seed ~profile_instrs ~clone_dynamic reports)

let write_json path ~seed ~profile_instrs ~clone_dynamic reports =
  Json.to_file path (doc ~seed ~profile_instrs ~clone_dynamic reports)

(* --- console table --- *)

let pp ppf reports =
  Format.fprintf ppf "%-12s %12s %12s %8s %8s %8s %8s %8s %8s@."
    "bench" "orig-instrs" "clone-instrs" "mix-l1" "dep-l1" "stride"
    "taken" "trans" "blocks";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-12s %12d %12d %8.4f %8.4f %8.4f %8.4f %8.4f %8.3f@."
        r.bench r.orig_instrs r.clone_instrs r.c.instr_mix_l1
        r.c.dep_dist_l1 r.c.stride_agreement r.c.taken_rate_err
        r.c.transition_rate_err r.c.sfg_block_ratio;
      List.iter
        (fun ph ->
          Format.fprintf ppf
            "%-12s %12d %12d %8.4f %8.4f %8.4f %8.4f %8.4f %8.3f@."
            (Printf.sprintf "  phase %d" ph.p_index)
            ph.p_orig_instrs ph.p_clone_instrs ph.p_c.instr_mix_l1
            ph.p_c.dep_dist_l1 ph.p_c.stride_agreement ph.p_c.taken_rate_err
            ph.p_c.transition_rate_err ph.p_c.sfg_block_ratio)
        r.phases)
    reports
