(* pc_trace: Chrome trace export and clone-fidelity reports.

   The load-bearing property is the determinism contract: the set of
   (phase, name, args) events a run emits is identical at every pool
   width — only timestamps and lane assignment may differ — and tracing
   never changes experiment output (covered byte-for-byte in
   test_obs.ml). *)

module M = Pc_obs.Metrics
module Event = Pc_obs.Event
module Span = Pc_obs.Span
module Chrome = Pc_trace.Chrome
module Fidelity = Pc_trace.Fidelity
module Bounds = Pc_report.Bounds
module Json = Pc_util.Json
module Pool = Pc_exec.Pool
module E = Perfclone.Experiments

let small_settings =
  {
    E.seed = 1;
    profile_instrs = 100_000;
    sim_instrs = 150_000;
    clone_dynamic = 30_000;
    benchmarks = [ "crc32"; "sha" ];
    sample = None;
    plan_cache = None;
    cache_onepass = false;
  }

let with_collection f =
  M.set_enabled true;
  Event.set_collecting true;
  Fun.protect
    ~finally:(fun () ->
      Event.set_collecting false;
      Event.reset ();
      Span.reset ();
      M.set_enabled false)
    f

(* --- event layer --- *)

let test_event_off_by_default () =
  Event.reset ();
  Event.instant "ghost" [];
  Alcotest.(check int) "nothing collected while off" 0
    (List.length (Event.drain ()))

let test_event_collection_and_args () =
  with_collection @@ fun () ->
  Event.emit Event.Begin "work" [ ("n", Event.Int 3) ];
  Event.emit Event.End "work" [];
  Event.instant "mark" [ ("which", Event.Str "x") ];
  let evs = Event.drain () in
  Alcotest.(check int) "three events" 3 (List.length evs);
  (match evs with
  | [ b; e; i ] ->
    Alcotest.(check bool) "begin phase" true (b.Event.phase = Event.Begin);
    Alcotest.(check string) "begin name" "work" b.Event.name;
    Alcotest.(check bool) "begin arg" true (b.Event.args = [ ("n", Event.Int 3) ]);
    Alcotest.(check bool) "end phase" true (e.Event.phase = Event.End);
    Alcotest.(check bool) "instant phase" true (i.Event.phase = Event.Instant);
    Alcotest.(check bool) "monotonic within a domain" true
      (b.Event.ts <= e.Event.ts && e.Event.ts <= i.Event.ts)
  | _ -> Alcotest.fail "unexpected event shapes");
  Alcotest.(check int) "drain empties the stream" 0
    (List.length (Event.drain ()))

(* The comparable projection of an event stream: everything but
   timestamps and lane assignment, sorted. *)
let event_set evs =
  List.sort compare
    (List.map (fun (e : Event.t) -> (e.Event.phase, e.Event.name, e.Event.args)) evs)

let run_prepare jobs =
  E.clear_caches ();
  Event.reset ();
  Span.reset ();
  let pool = Pool.create ~num_domains:jobs in
  ignore (E.prepare ~pool small_settings);
  Event.drain ()

let test_event_set_deterministic_across_jobs () =
  with_collection @@ fun () ->
  let serial = run_prepare 1 in
  let parallel = run_prepare 4 in
  Alcotest.(check bool) "events were collected" true (serial <> []);
  Alcotest.(check bool) "span begin events present" true
    (List.exists
       (fun (e : Event.t) ->
         e.Event.phase = Event.Begin && e.Event.name = "pipeline:crc32")
       serial);
  Alcotest.(check bool) "pipeline instants carry deterministic args" true
    (List.exists
       (fun (e : Event.t) ->
         e.Event.phase = Event.Instant
         && e.Event.name = "pipeline:done:crc32"
         && List.mem_assoc "sfg_nodes" e.Event.args)
       serial);
  Alcotest.(check bool) "event set identical at -j1 and -j4" true
    (event_set serial = event_set parallel)

let test_worker_tracks_cover_pool () =
  with_collection @@ fun () ->
  Event.reset ();
  let pool = Pool.create ~num_domains:2 in
  ignore
    (Pool.map pool
       (fun i -> Event.instant "task" [ ("i", Event.Int i) ])
       [ 0; 1; 2; 3; 4; 5; 6; 7 ]);
  let evs = Event.drain () in
  let instants =
    List.filter (fun (e : Event.t) -> e.Event.phase = Event.Instant) evs
  in
  Alcotest.(check int) "all tasks emitted" 8 (List.length instants);
  (* every hand-off draws one arrow: a Flow_start on the spawning domain
     matched by a Flow_end at the claim *)
  let count ph = List.length (List.filter (fun (e : Event.t) -> e.Event.phase = ph) evs) in
  Alcotest.(check int) "one flow start per task" 8 (count Event.Flow_start);
  Alcotest.(check int) "one flow end per task" 8 (count Event.Flow_end);
  List.iter
    (fun (e : Event.t) ->
      if e.Event.track < 0 || e.Event.track > 1 then
        Alcotest.failf "track %d outside pool slots" e.Event.track)
    evs

(* --- Chrome export --- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let json_exn src =
  match Json.parse src with
  | Ok doc -> doc
  | Error msg -> Alcotest.failf "trace JSON failed to parse: %s" msg

let test_chrome_trace_file () =
  let path = Filename.temp_file "pc_trace_test" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let c = M.counter "trace.test.counter" in
  (* period 0: no sampler domain; the final sample still yields counter
     events, so short runs get their counter tracks. *)
  Chrome.with_trace ~period_s:0.0 (Some path) (fun () ->
      M.incr c;
      Span.with_ "outer" (fun () ->
          Span.with_ ~args:[ ("k", Event.Str "v") ] "inner" (fun () -> ());
          Event.instant "marker" [ ("n", Event.Int 7) ]));
  Event.reset ();
  Span.reset ();
  let doc = json_exn (read_file path) in
  let schema =
    Option.bind (Json.member "otherData" doc) (fun o ->
        Option.bind (Json.member "schema" o) Json.to_string)
  in
  Alcotest.(check (option string)) "schema" (Some "pc-trace/1") schema;
  let events =
    match Option.bind (Json.member "traceEvents" doc) Json.to_list with
    | Some l -> l
    | None -> Alcotest.fail "traceEvents missing"
  in
  let phase e = Option.bind (Json.member "ph" e) Json.to_string in
  let name e = Option.bind (Json.member "name" e) Json.to_string in
  let with_phase p = List.filter (fun e -> phase e = Some p) events in
  let names p = List.filter_map name (with_phase p) in
  Alcotest.(check bool) "begin events for both spans" true
    (List.mem "outer" (names "B") && List.mem "inner" (names "B"));
  Alcotest.(check bool) "balanced begin/end" true
    (List.length (with_phase "B") = List.length (with_phase "E"));
  Alcotest.(check bool) "instant present" true (List.mem "marker" (names "i"));
  Alcotest.(check bool) "counter sampled at stop" true
    (List.mem "trace.test.counter" (names "C"));
  Alcotest.(check bool) "thread metadata present" true
    (List.mem "thread_name" (names "M"));
  (* Timestamps are non-negative microseconds from the trace epoch. *)
  List.iter
    (fun e ->
      match Option.bind (Json.member "ts" e) Json.to_float with
      | Some ts when ts >= 0.0 -> ()
      | Some ts -> Alcotest.failf "negative ts %f" ts
      | None -> ())
    events;
  (* Collection state is restored: nothing accumulates after the trace. *)
  Event.instant "after" [];
  Alcotest.(check int) "collection off after with_trace" 0
    (List.length (Event.drain ()))

let test_chrome_trace_none_is_identity () =
  Alcotest.(check int) "with_trace None runs the thunk" 41
    (Chrome.with_trace None (fun () -> 41))

(* --- sampler shutdown race --- *)

let trace_events_of path =
  match Option.bind (Json.member "traceEvents" (json_exn (read_file path))) Json.to_list with
  | Some l -> l
  | None -> Alcotest.fail "traceEvents missing"

let traced_prepare ~jobs ~period_s path =
  E.clear_caches ();
  Event.reset ();
  Span.reset ();
  Chrome.with_trace ~period_s (Some path) (fun () ->
      let pool = Pool.create ~num_domains:jobs in
      ignore (E.prepare ~pool small_settings));
  trace_events_of path

let test_trace_deterministic_with_fast_sampler () =
  (* Regression for the sampler-domain shutdown race: a sample emitted
     between the stop flag and the join could duplicate the final
     sample's rendered timestamp.  At a 1 ms period under -j4 the trace
     must still carry no duplicate (name, ts) counter points — the final
     sample is authoritative — and the span/instant event set must stay
     identical to -j1 (the determinism contract; counter sample *values*
     are timing-dependent and exempt). *)
  let path = Filename.temp_file "pc_trace_race" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let field name conv e = Option.bind (Json.member name e) conv in
  let signature events =
    List.filter_map
      (fun e ->
        match field "ph" Json.to_string e with
        | Some (("B" | "E" | "i") as ph) ->
          Some (ph, field "name" Json.to_string e)
        | _ -> None)
      events
    |> List.sort compare
  in
  let counter_keys events =
    List.filter_map
      (fun e ->
        match field "ph" Json.to_string e with
        | Some "C" ->
          Some (field "name" Json.to_string e, field "ts" Json.to_float e)
        | _ -> None)
      events
  in
  let parallel = traced_prepare ~jobs:4 ~period_s:0.001 path in
  let keys = counter_keys parallel in
  Alcotest.(check bool) "counter samples present" true (keys <> []);
  let sorted = List.sort compare keys in
  let rec dup = function
    | a :: (b :: _ as rest) -> a = b || dup rest
    | _ -> false
  in
  Alcotest.(check bool) "no duplicate (name, ts) counter samples" false
    (dup sorted);
  let serial = traced_prepare ~jobs:1 ~period_s:0.001 path in
  Alcotest.(check bool) "serial counter samples unique too" false
    (dup (List.sort compare (counter_keys serial)));
  Alcotest.(check bool) "event set identical at -j1 and -j4" true
    (signature serial = signature parallel)

(* --- fidelity --- *)

let profile_of name budget =
  let entry = Pc_workloads.Registry.find name in
  let program = Pc_workloads.Registry.compile entry in
  (program, Pc_profile.Collector.profile ~max_instrs:budget program)

let test_fidelity_self_comparison () =
  let _, p = profile_of "crc32" 50_000 in
  let c = Fidelity.compare_profiles ~original:p ~clone:p in
  Alcotest.(check (float 1e-9)) "mix l1" 0.0 c.Fidelity.instr_mix_l1;
  Alcotest.(check (float 1e-9)) "dep l1" 0.0 c.Fidelity.dep_dist_l1;
  Alcotest.(check (float 1e-9)) "stride agreement" 1.0 c.Fidelity.stride_agreement;
  Alcotest.(check (float 1e-9)) "taken err" 0.0 c.Fidelity.taken_rate_err;
  Alcotest.(check (float 1e-9)) "block ratio" 1.0 c.Fidelity.sfg_block_ratio;
  Alcotest.(check (float 1e-9)) "block size ratio" 1.0
    c.Fidelity.avg_block_size_ratio

let test_fidelity_measure_and_json () =
  let program, p = profile_of "crc32" 50_000 in
  let clone =
    Perfclone.Pipeline.clone_program ~seed:1 ~profile_instrs:50_000
      ~target_dynamic:20_000 program
  in
  let r =
    Fidelity.measure ~max_instrs:50_000 ~bench:"crc32" ~original:p
      clone.Perfclone.Pipeline.clone
  in
  Alcotest.(check string) "bench" "crc32" r.Fidelity.bench;
  Alcotest.(check bool) "clone ran" true (r.Fidelity.clone_instrs > 0);
  let finite v = Float.is_finite v in
  let c = r.Fidelity.c in
  Alcotest.(check bool) "all characteristics finite" true
    (List.for_all finite
       [
         c.Fidelity.instr_mix_l1; c.Fidelity.dep_dist_l1;
         c.Fidelity.stride_agreement; c.Fidelity.single_stride_err;
         c.Fidelity.taken_rate_err; c.Fidelity.transition_rate_err;
         c.Fidelity.sfg_block_ratio; c.Fidelity.avg_block_size_ratio;
       ]);
  Alcotest.(check bool) "stride agreement in [0,1]" true
    (c.Fidelity.stride_agreement >= 0.0 && c.Fidelity.stride_agreement <= 1.0);
  let json =
    Fidelity.json ~seed:1 ~profile_instrs:50_000 ~clone_dynamic:20_000 [ r ]
  in
  let doc = json_exn json in
  Alcotest.(check (option string)) "schema" (Some "pc-fidelity/1")
    (Option.bind (Json.member "schema" doc) Json.to_string);
  (match Option.bind (Json.member "benchmarks" doc) Json.to_list with
  | Some [ row ] ->
    Alcotest.(check (option string)) "row bench" (Some "crc32")
      (Option.bind (Json.member "bench" row) Json.to_string);
    List.iter
      (fun field ->
        match Option.bind (Json.member field row) Json.to_float with
        | Some _ -> ()
        | None -> Alcotest.failf "characteristic %s missing from row" field)
      (List.map fst (Fidelity.characteristic_fields c))
  | _ -> Alcotest.fail "expected one benchmark row")

let test_fidelity_per_phase () =
  let program, p = profile_of "crc32" 40_000 in
  let r =
    (* self-clone: the per-phase machinery sliced over identical runs *)
    Fidelity.measure ~max_instrs:40_000 ~bench:"crc32" ~original:p program
  in
  Alcotest.(check int) "no phases before measure_phases" 0
    (List.length r.Fidelity.phases);
  let r =
    Fidelity.measure_phases ~interval:10_000 ~original:program ~clone:program r
  in
  Alcotest.(check int) "ceil(orig/interval) phases" 4
    (List.length r.Fidelity.phases);
  List.iteri
    (fun i (ph : Fidelity.phase) ->
      Alcotest.(check int) "indexed in order" i ph.Fidelity.p_index;
      Alcotest.(check int) "original cut at interval boundaries"
        (i * 10_000) ph.Fidelity.p_orig_start;
      Alcotest.(check bool) "phase profiled instructions" true
        (ph.Fidelity.p_orig_instrs > 0 && ph.Fidelity.p_clone_instrs > 0);
      (* clone == original here, and both are sliced identically, so
         every phase-local comparison is perfect *)
      Alcotest.(check (float 1e-9)) "phase mix l1" 0.0
        ph.Fidelity.p_c.Fidelity.instr_mix_l1;
      Alcotest.(check (float 1e-9)) "phase stride agreement" 1.0
        ph.Fidelity.p_c.Fidelity.stride_agreement)
    r.Fidelity.phases;
  let with_phases =
    Fidelity.json ~seed:1 ~profile_instrs:40_000 ~clone_dynamic:40_000 [ r ]
  in
  let doc = json_exn with_phases in
  (match Option.bind (Json.member "benchmarks" doc) Json.to_list with
  | Some [ row ] -> (
    match Option.bind (Json.member "phases" row) Json.to_list with
    | Some rows -> Alcotest.(check int) "phases serialised" 4 (List.length rows)
    | None -> Alcotest.fail "phases array missing")
  | _ -> Alcotest.fail "expected one benchmark row");
  (* the plain report stays byte-identical: no phases key at all *)
  let without =
    Fidelity.json ~seed:1 ~profile_instrs:40_000 ~clone_dynamic:40_000
      [ { r with Fidelity.phases = [] } ]
  in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "no phases key without measure_phases" false
    (contains without "phases")

(* Boundary regression: when the clone re-profiles to fewer dynamic
   instructions than there are phases, the exact partition must leave
   some phases empty (p_clone_instrs = 0, all-NaN characteristics →
   null in JSON) rather than re-measuring a neighbour's slice.  The old
   [max 1] slice clamp made adjacent phases overlap on the same clone
   instruction. *)
let test_fidelity_phase_boundaries () =
  let _, p = profile_of "crc32" 40_000 in
  let tiny =
    Pc_isa.Parser.parse_string ~name:"tiny" "li r1, 1\nhalt\n"
  in
  let r = Fidelity.measure ~max_instrs:40_000 ~bench:"crc32" ~original:p tiny in
  Alcotest.(check int) "tiny clone re-profile" 2 r.Fidelity.clone_instrs;
  let r = Fidelity.measure_phases ~interval:10_000 ~original:tiny ~clone:tiny r in
  Alcotest.(check int) "ceil(orig/interval) phases" 4
    (List.length r.Fidelity.phases);
  let covered = ref 0 in
  List.fold_left
    (fun prev_end (ph : Fidelity.phase) ->
      Alcotest.(check int) "slices never overlap" prev_end
        ph.Fidelity.p_clone_start;
      covered := !covered + ph.Fidelity.p_clone_instrs;
      if ph.Fidelity.p_clone_instrs = 0 then
        Alcotest.(check bool) "empty slice reports NaN characteristics" true
          (Float.is_nan ph.Fidelity.p_c.Fidelity.instr_mix_l1
          && Float.is_nan ph.Fidelity.p_c.Fidelity.stride_agreement);
      ph.Fidelity.p_clone_start + ph.Fidelity.p_clone_instrs)
    0 r.Fidelity.phases
  |> Alcotest.(check int) "partition ends at clone length" 2;
  Alcotest.(check int) "every clone instruction measured exactly once" 2
    !covered;
  Alcotest.(check bool) "some phases are empty" true
    (List.exists
       (fun (ph : Fidelity.phase) -> ph.Fidelity.p_clone_instrs = 0)
       r.Fidelity.phases);
  (* empty slices serialise as null, and the document still parses *)
  let doc =
    json_exn
      (Fidelity.json ~seed:1 ~profile_instrs:40_000 ~clone_dynamic:2 [ r ])
  in
  match Option.bind (Json.member "benchmarks" doc) Json.to_list with
  | Some [ row ] -> (
    match Option.bind (Json.member "phases" row) Json.to_list with
    | Some rows ->
      let nulls =
        List.filter
          (fun ph -> Json.member "instr_mix_l1" ph = Some Json.Null)
          rows
      in
      Alcotest.(check bool) "null rows serialised" true (nulls <> [])
    | None -> Alcotest.fail "phases array missing")
  | _ -> Alcotest.fail "expected one benchmark row"

(* Byte pin for pc-fidelity/1: a hand-built report with a phases row,
   an infinite global characteristic and an all-NaN (empty) phase. *)
let test_fidelity_json_golden () =
  let chars mix ratio =
    {
      Fidelity.instr_mix_l1 = mix;
      dep_dist_l1 = 0.125;
      stride_agreement = 1.0;
      single_stride_err = 0.0;
      taken_rate_err = 1e-7;
      transition_rate_err = 1.0 /. 3.0;
      sfg_block_ratio = ratio;
      avg_block_size_ratio = 2.0 /. 3.0;
    }
  in
  let phase p_index p_clone_instrs p_c =
    {
      Fidelity.p_index;
      p_orig_start = p_index * 10_000;
      p_orig_instrs = 10_000;
      p_clone_start = p_index;
      p_clone_instrs;
      p_c;
    }
  in
  let r =
    {
      Fidelity.bench = "crc\"32";
      orig_instrs = 20_000;
      clone_instrs = 1;
      c = chars 0.25 Float.infinity;
      phases =
        [ phase 0 1 (chars (-0.5) 1.5); phase 1 0 (chars Float.nan Float.nan) ];
    }
  in
  Alcotest.(check string) "pc-fidelity/1 bytes"
    "{\"schema\":\"pc-fidelity/1\",\"seed\":3,\"profile_instrs\":20000,\"clone_dynamic\":1,\"benchmarks\":[{\"bench\":\"crc\\\"32\",\"orig_instrs\":20000,\"clone_instrs\":1,\"instr_mix_l1\":0.250000,\"dep_dist_l1\":0.125000,\"stride_agreement\":1.000000,\"single_stride_err\":0.000000,\"taken_rate_err\":0.000000,\"transition_rate_err\":0.333333,\"sfg_block_ratio\":null,\"avg_block_size_ratio\":0.666667,\"phases\":[{\"phase\":0,\"orig_start\":0,\"orig_instrs\":10000,\"clone_start\":0,\"clone_instrs\":1,\"instr_mix_l1\":-0.500000,\"dep_dist_l1\":0.125000,\"stride_agreement\":1.000000,\"single_stride_err\":0.000000,\"taken_rate_err\":0.000000,\"transition_rate_err\":0.333333,\"sfg_block_ratio\":1.500000,\"avg_block_size_ratio\":0.666667},{\"phase\":1,\"orig_start\":10000,\"orig_instrs\":10000,\"clone_start\":1,\"clone_instrs\":0,\"instr_mix_l1\":null,\"dep_dist_l1\":0.125000,\"stride_agreement\":1.000000,\"single_stride_err\":0.000000,\"taken_rate_err\":0.000000,\"transition_rate_err\":0.333333,\"sfg_block_ratio\":null,\"avg_block_size_ratio\":0.666667}]}]}"
    (Fidelity.json ~seed:3 ~profile_instrs:20_000 ~clone_dynamic:1 [ r ])

(* The fidelity gate is a pc-bounds/1 document over pc-fidelity/1; the
   checked-in baselines/fidelity.json is probed bound by bound in
   test_report. *)
let bounds_doc =
  {|{"schema":"pc-bounds/1","artifact":"pc-fidelity/1","bounds":[
     {"path":"benchmarks[*]/instr_mix_l1","le":0.5},
     {"path":"benchmarks[*]/stride_agreement","ge":0.1},
     {"path":"benchmarks[*]/sfg_block_ratio","ge":0.1,"le":5.0}]}|}

let report_doc mix =
  Printf.sprintf
    {|{"schema":"pc-fidelity/1","seed":1,"profile_instrs":1,"clone_dynamic":1,
       "benchmarks":[{"bench":"x","orig_instrs":1,"clone_instrs":1,
         "instr_mix_l1":%s,"dep_dist_l1":0.1,"stride_agreement":0.9,
         "single_stride_err":0.1,"taken_rate_err":0.1,"transition_rate_err":0.1,
         "sfg_block_ratio":1.5,"avg_block_size_ratio":1.0}]}|}
    mix

let test_fidelity_check_gate () =
  let check ?(bounds = bounds_doc) report =
    match Bounds.of_json (json_exn bounds) with
    | Ok b -> Bounds.check b (json_exn report)
    | Error e -> Alcotest.failf "bounds rejected: %s" e
  in
  Alcotest.(check (list string)) "in-bounds report passes" []
    (check (report_doc "0.2"));
  Alcotest.(check bool) "max violation flagged" true
    (check (report_doc "0.9") <> []);
  Alcotest.(check bool) "non-finite value flagged" true
    (check (report_doc "null") <> []);
  Alcotest.(check bool) "infinite value flagged" true
    (check (report_doc "1e999") <> []);
  Alcotest.(check bool) "schema drift flagged" true
    (check {|{"schema":"pc-fidelity/2","benchmarks":[]}|} <> []);
  let unknown =
    {|{"schema":"pc-bounds/1","artifact":"pc-fidelity/1","bounds":[
       {"path":"benchmarks[*]/no_such_metric","le":1.0}]}|}
  in
  Alcotest.(check bool) "unknown characteristic in bounds flagged" true
    (check ~bounds:unknown (report_doc "0.2") <> [])

let () =
  Alcotest.run "pc_trace"
    [
      ( "events",
        [
          Alcotest.test_case "off by default" `Quick test_event_off_by_default;
          Alcotest.test_case "collection and args" `Quick
            test_event_collection_and_args;
          Alcotest.test_case "worker tracks cover pool slots" `Quick
            test_worker_tracks_cover_pool;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "event set identical at -j1 and -j4" `Slow
            test_event_set_deterministic_across_jobs;
        ] );
      ( "chrome",
        [
          Alcotest.test_case "trace file well-formed" `Quick
            test_chrome_trace_file;
          Alcotest.test_case "no path is identity" `Quick
            test_chrome_trace_none_is_identity;
          Alcotest.test_case "fast sampler: unique counter samples, \
                              deterministic events"
            `Slow test_trace_deterministic_with_fast_sampler;
        ] );
      ( "fidelity",
        [
          Alcotest.test_case "self-comparison is perfect" `Quick
            test_fidelity_self_comparison;
          Alcotest.test_case "measure + pc-fidelity/1 json" `Slow
            test_fidelity_measure_and_json;
          Alcotest.test_case "per-phase rows" `Slow test_fidelity_per_phase;
          Alcotest.test_case "phase boundaries with short clones" `Quick
            test_fidelity_phase_boundaries;
          Alcotest.test_case "threshold gate" `Quick test_fidelity_check_gate;
          Alcotest.test_case "pc-fidelity/1 golden bytes" `Quick
            test_fidelity_json_golden;
        ] );
    ]
