(* pc_scenario: the multi-tenant co-run engine and its driver.

   The load-bearing properties:
   - a 1-tenant scenario is bit-identical to the standalone Pc_uarch.Sim
     (same cycles, IPC and miss counters) — the shared-L2 machinery with
     tag 0 and fresh L2s must be invisible;
   - a tight-geometry duet shows real shared-L2 interference;
   - the pc-scenario/1 artefact is byte-identical across pool widths and
     across cold re-runs. *)

module Machine = Pc_funcsim.Machine
module Registry = Pc_workloads.Registry
module Config = Pc_uarch.Config
module Sim = Pc_uarch.Sim
module Spec = Pc_scenario.Spec
module Presets = Pc_scenario.Presets
module Sample = Pc_sample.Sample
module Scenario = Pc_scenario.Scenario
module Runner = Pc_scenario.Runner
module Report = Pc_scenario.Report
module Bounds = Pc_report.Bounds
module Pool = Pc_exec.Pool
module Json = Pc_util.Json

let program name = Registry.compile (Registry.find name)

let solo_input name budget =
  {
    Scenario.label = name;
    budget;
    source = Scenario.From_machine (Machine.load (program name));
  }

(* --- 1 tenant == standalone Sim --- *)

let check_solo_matches_standalone ?quantum name budget =
  let cfg = Config.base in
  let alone = Sim.run cfg ~max_instrs:budget (program name) in
  let co = Scenario.co_run ?quantum cfg [| solo_input name budget |] in
  Alcotest.(check int) "one tenant" 1 (Array.length co);
  let r = co.(0).Scenario.result in
  Alcotest.(check int) "instrs" alone.Sim.instrs r.Sim.instrs;
  Alcotest.(check int) "cycles" alone.Sim.cycles r.Sim.cycles;
  Alcotest.(check (float 0.0)) "ipc" alone.Sim.ipc r.Sim.ipc;
  Alcotest.(check int) "branches" alone.Sim.branches r.Sim.branches;
  Alcotest.(check int) "mispredictions" alone.Sim.mispredictions
    r.Sim.mispredictions;
  Alcotest.(check int) "l1i misses" alone.Sim.l1i_misses r.Sim.l1i_misses;
  Alcotest.(check int) "l1d misses" alone.Sim.l1d_misses r.Sim.l1d_misses;
  Alcotest.(check int) "l2 accesses" alone.Sim.l2_accesses r.Sim.l2_accesses;
  Alcotest.(check int) "l2 misses" alone.Sim.l2_misses r.Sim.l2_misses;
  Alcotest.(check int) "mem accesses" alone.Sim.mem_accesses
    r.Sim.mem_accesses

let test_solo_exact () = check_solo_matches_standalone "crc32" 20_000

let test_solo_exact_small_quantum () =
  (* a quantum far below the batch capacity exercises the budget
     slicing without being able to change a 1-tenant result *)
  check_solo_matches_standalone ~quantum:257 "qsort" 20_000

let test_solo_exact_qcheck =
  let gen =
    QCheck2.Gen.(
      triple (oneofl [ "crc32"; "qsort"; "sha" ]) (int_range 1_000 15_000)
        (int_range 1 4096))
  in
  QCheck2.Test.make ~count:8 ~name:"1-tenant co_run == standalone Sim" gen
    (fun (name, budget, quantum) ->
      check_solo_matches_standalone ~quantum name budget;
      true)

(* --- one stream, five drivers ---

   [Sim.step] is the timing model's one per-instruction entry: the
   batched [Sim.run], the event-fed oracle, a whole-run replay of the
   packed trace and a lone arbiter tenant fed either way must all drive
   it to the same result, field for field. *)

let test_one_stream_five_drivers () =
  let budget = 40_000 in
  let configs =
    [
      Config.base;
      Config.with_in_order true Config.base;
      Config.with_widths 2 Config.base;
      Config.with_bpred Pc_branch.Predictor.Not_taken Config.base;
    ]
  in
  List.iter
    (fun name ->
      let p = program name in
      let plan = Sample.plan ~seed:1 ~interval:budget ~max_instrs:budget p in
      Alcotest.(check int) "single interval" 1 plan.Sample.n_intervals;
      Alcotest.(check int) "no warmup" 0 plan.Sample.reps.(0).Sample.warmup;
      List.iter
        (fun (cfg : Config.t) ->
          let expected = Sim.run ~max_instrs:budget cfg p in
          let check driver r =
            if r <> expected then
              Alcotest.failf "%s on %s: %s differs from Sim.run" name
                cfg.Config.name driver
          in
          let alone source =
            (Scenario.co_run cfg [| { Scenario.label = name; budget; source } |]).(0)
              .Scenario.result
          in
          check "the event-fed oracle" (Sim_ref.run ~max_instrs:budget cfg p);
          let _, window, replayed = (Sample.replay_phases cfg plan).(0) in
          check "replay_phases" replayed;
          if
            window
            <> { Sample.instrs = expected.Sim.instrs; cycles = expected.Sim.cycles }
          then
            Alcotest.failf "%s on %s: the replay's window is not the whole run" name
              cfg.Config.name;
          check "a From_machine tenant"
            (alone (Scenario.From_machine (Machine.load p)));
          check "a From_plan tenant" (alone (Scenario.From_plan plan)))
        configs)
    [ "crc32"; "qsort"; "sha"; "fft"; "dijkstra" ]

(* --- co-run against replay ---

   A sampled tenant and [Sample.replay_phases] time windows with the
   same walker: alone on the arbiter, a tenant walking one
   representative must reach the replay's result and window, however
   the quantum slices its trace (across the warmup boundary or not). *)

let test_corun_matches_replay () =
  let cfg = Config.base in
  List.iter
    (fun (name, interval, max_instrs) ->
      let plan = Sample.plan ~seed:1 ~interval ~max_instrs (program name) in
      if name = "crc32" then
        Alcotest.(check (list int)) "crc32 warmups" [ 0; 50_000 ]
          (List.sort compare
             (Array.to_list
                (Array.map (fun (r : Sample.rep) -> r.Sample.warmup) plan.Sample.reps)));
      Array.iter
        (fun ((rep : Sample.rep), window, replayed) ->
          let alone = { plan with Sample.reps = [| rep |] } in
          List.iter
            (fun quantum ->
              let out =
                (Scenario.co_run ~quantum cfg
                   [|
                     {
                       Scenario.label = name;
                       budget = Sample.replayed_instrs alone;
                       source = Scenario.From_plan alone;
                     };
                   |]).(0)
              in
              if out.Scenario.result <> replayed || out.Scenario.windows <> [| window |]
              then
                Alcotest.failf "%s rep %d at quantum %d: co-run differs from replay"
                  name rep.Sample.cluster quantum)
            [ 257; 4096; Array.length rep.Sample.trace ])
        (Sample.replay_phases cfg plan))
    [
      ("crc32", 50_000, 500_000);
      ("qsort", 20_000, 300_000);
      ("dijkstra", 20_000, 300_000);
      ("fft", 10_000, 160_000);
    ]

(* Alone on the machine, a sampled tenant's baseline is its co-run:
   the same trace on a one-tenant arbiter, priced the same way. *)
let test_sampled_solo_slowdown_is_one () =
  let spec = Spec.v ~name:"solo" [ Spec.tenant "crc32" ] in
  let settings =
    { Runner.quick_settings with Runner.budget = 150_000; sample = Some 20_000 }
  in
  Runner.clear_caches ();
  let r = Runner.run_spec settings spec in
  List.iter
    (fun (t : Runner.tenant_row) ->
      Alcotest.(check (float 0.0)) "slowdown" 1.0 t.Runner.slowdown)
    r.Runner.tenants;
  Alcotest.(check (float 0.0)) "weighted speedup" 1.0 r.Runner.weighted_speedup

(* --- interference --- *)

let test_tight_duet_interferes () =
  let spec = Option.get (Presets.find "duet-tight") in
  let settings = { Runner.quick_settings with Runner.budget = 150_000 } in
  Runner.clear_caches ();
  let r = Runner.run_spec settings spec in
  Alcotest.(check int) "two tenants" 2 (List.length r.Runner.tenants);
  List.iter
    (fun (t : Runner.tenant_row) ->
      Alcotest.(check bool)
        (t.Runner.label ^ " slowed by co-run")
        true
        (t.Runner.corun_ipc < t.Runner.standalone_ipc);
      Alcotest.(check bool)
        (t.Runner.label ^ " slowdown > 1")
        true (t.Runner.slowdown > 1.0);
      Alcotest.(check bool)
        (t.Runner.label ^ " uses the L2")
        true
        (t.Runner.l2_accesses > 0))
    r.Runner.tenants;
  Alcotest.(check bool) "weighted speedup below N" true
    (r.Runner.weighted_speedup < 2.0);
  Alcotest.(check bool) "fairness in (0, 1]" true
    (r.Runner.fairness > 0.0 && r.Runner.fairness <= 1.0)

(* --- determinism: pool width and cold re-runs --- *)

let scenario_json settings pool specs =
  Runner.clear_caches ();
  Report.json ~settings (Runner.run ~pool settings specs)

let test_pool_width_byte_identity () =
  let specs =
    [ Option.get (Presets.find "duet"); Option.get (Presets.find "priority-duet") ]
  in
  let settings = { Runner.quick_settings with Runner.budget = 60_000 } in
  let serial = scenario_json settings Pool.serial specs in
  let parallel =
    scenario_json settings (Pool.create ~num_domains:4) specs
  in
  Alcotest.(check string) "-j1 == -j4" serial parallel;
  let again = scenario_json settings Pool.serial specs in
  Alcotest.(check string) "cold re-run identical" serial again

(* The sampled co-run of every preset, pinned by the MD5 of its
   pc-scenario/1 bytes, recorded before the arbiter stepped plans
   through [Sample]'s walker. *)
let test_sampled_presets_pinned () =
  let settings = { Runner.quick_settings with Runner.sample = Some 50_000 } in
  Alcotest.(check string) "pc-scenario/1 md5" "8751825043c338324226af6ce7aff989"
    (Digest.to_hex
       (Digest.string (scenario_json settings Pool.serial Presets.all)))

(* --- priority arbitration --- *)

let test_priority_weights () =
  let cfg = Config.base in
  let inputs =
    [| solo_input "crc32" 20_000; solo_input "qsort" 20_000 |]
  in
  let rr = Scenario.co_run cfg inputs in
  let inputs =
    [| solo_input "crc32" 20_000; solo_input "qsort" 20_000 |]
  in
  let pri = Scenario.co_run ~quantum:512 ~weights:[| 3; 1 |] cfg inputs in
  Array.iter
    (fun (t : Scenario.tenant_result) ->
      Alcotest.(check int) (t.Scenario.label ^ " ran to budget") 20_000
        t.Scenario.result.Sim.instrs)
    rr;
  Array.iter
    (fun (t : Scenario.tenant_result) ->
      Alcotest.(check int) (t.Scenario.label ^ " ran to budget") 20_000
        t.Scenario.result.Sim.instrs)
    pri

(* The arbiter resumes a tenant's machine once per quantum (twenty times
   here); [funcsim.runs] still counts it as one run. *)
let test_co_run_counts_one_run () =
  let runs = Pc_obs.Metrics.counter "funcsim.runs" in
  let before = Pc_obs.Metrics.value runs in
  ignore (Scenario.co_run ~quantum:1_000 Config.base [| solo_input "crc32" 20_000 |]);
  Alcotest.(check int) "funcsim.runs grew by one" 1 (Pc_obs.Metrics.value runs - before)

let test_co_run_validation () =
  let cfg = Config.base in
  Alcotest.check_raises "no tenants"
    (Invalid_argument "Scenario.co_run: no tenants") (fun () ->
      ignore (Scenario.co_run cfg [||]));
  Alcotest.check_raises "bad weights"
    (Invalid_argument "Scenario.co_run: one weight per tenant") (fun () ->
      ignore
        (Scenario.co_run ~weights:[| 1; 2 |] cfg
           [| solo_input "crc32" 1_000 |]))

(* --- spec validation and pc-scenario-config/1 --- *)

let test_spec_validation () =
  Alcotest.check_raises "empty"
    (Invalid_argument "Spec.v: a scenario needs tenants") (fun () ->
      ignore (Spec.v ~name:"x" []));
  Alcotest.check_raises "weights arity"
    (Invalid_argument "Spec.v: one priority weight per tenant slot")
    (fun () ->
      ignore
        (Spec.v ~name:"x" ~policy:(Spec.Priority [ 1 ])
           [ Spec.tenant "crc32"; Spec.tenant "qsort" ]))

let test_spec_slots () =
  let spec =
    Spec.v ~name:"x"
      [ Spec.tenant ~count:2 "crc32"; Spec.tenant ~kind:Spec.Clone "crc32" ]
  in
  let labels =
    Array.to_list (Array.map (fun (l, _, _) -> l) (Spec.slots spec))
  in
  Alcotest.(check (list string)) "labels unique and stable"
    [ "crc32#0"; "crc32#1"; "crc32:clone" ]
    labels;
  Alcotest.(check int) "expanded count" 3 (Spec.n_tenants spec)

let json_exn s =
  match Json.parse s with
  | Ok doc -> doc
  | Error msg -> Alcotest.failf "JSON parse: %s" msg

let test_config_of_json () =
  let doc =
    json_exn
      {|{"schema": "pc-scenario-config/1",
         "scenarios": [
           {"name": "mix", "quantum": 1024,
            "policy": {"priority": [2, 1]},
            "l2": {"size_bytes": 2048, "assoc": 4, "line_bytes": 64},
            "tenants": [{"workload": "crc32"},
                        {"workload": "qsort", "kind": "clone"}]}]}|}
  in
  match Spec.of_json doc with
  | Error msg -> Alcotest.failf "of_json: %s" msg
  | Ok [ spec ] ->
    Alcotest.(check string) "name" "mix" spec.Spec.name;
    Alcotest.(check int) "quantum" 1024 spec.Spec.quantum;
    Alcotest.(check bool) "priority" true
      (spec.Spec.policy = Spec.Priority [ 2; 1 ]);
    Alcotest.(check bool) "l2 override" true (spec.Spec.shared_l2 <> None);
    Alcotest.(check int) "tenants" 2 (Spec.n_tenants spec)
  | Ok l -> Alcotest.failf "expected one scenario, got %d" (List.length l)

let test_config_of_json_errors () =
  let bad schema body =
    match
      Spec.of_json
        (json_exn
           (Printf.sprintf {|{"schema": %s, "scenarios": [%s]}|} schema body))
    with
    | Ok _ -> Alcotest.fail "accepted a bad document"
    | Error _ -> ()
  in
  bad {|"nope/1"|} {|{"name": "x", "tenants": [{"workload": "crc32"}]}|};
  bad {|"pc-scenario-config/1"|} {|{"name": "x", "tenants": []}|};
  bad {|"pc-scenario-config/1"|} {|{"name": "x", "tenants": [{}]}|};
  bad {|"pc-scenario-config/1"|}
    {|{"name": "x", "tenants": [{"workload": "crc32", "kind": "weird"}]}|}

(* The shipped example config, truncated at every byte and damaged one
   byte at a time: parsing and spec validation answer [Error], never
   raise. *)
let test_config_damage_never_raises () =
  let text =
    In_channel.with_open_bin "../examples/scenarios/mixed_tenancy.json"
      In_channel.input_all
  in
  let check what damaged =
    match Json.parse damaged with
    | Error _ -> ()
    | Ok doc -> (
      match Spec.of_json doc with
      | Ok _ | Error _ -> ()
      | exception e ->
        Alcotest.failf "of_json raised %s (%s)" (Printexc.to_string e) what)
  in
  let n = String.length text in
  for i = 0 to n do
    check (Printf.sprintf "truncated to %d bytes" i) (String.sub text 0 i)
  done;
  for i = 0 to n - 1 do
    List.iter
      (fun c ->
        let b = Bytes.of_string text in
        Bytes.set b i c;
        check (Printf.sprintf "byte %d set to %C" i c) (Bytes.to_string b))
      [ '-'; '9'; ' '; '\n'; 'x' ]
  done

(* --- the threshold gate --- *)

(* The co-run gate is a pc-bounds/1 document over pc-scenario/1, here
   applied to a real seeded duet run; the checked-in
   baselines/scenario.json is probed bound by bound in test_report. *)
let report_doc () =
  let settings = { Runner.quick_settings with Runner.budget = 60_000 } in
  Runner.clear_caches ();
  let results =
    Runner.run settings [ Option.get (Presets.find "duet") ]
  in
  json_exn (Report.json ~settings results)

let test_check_gate () =
  let report = report_doc () in
  let gate ?(artifact = "pc-scenario/1") rules =
    Bounds.of_json
      (json_exn
         (Printf.sprintf
            {|{"schema": "pc-bounds/1", "artifact": "%s", "bounds": [%s]}|}
            artifact rules))
  in
  let check ?artifact rules =
    match gate ?artifact rules with
    | Ok b -> Bounds.check b report
    | Error e -> Alcotest.failf "bounds rejected: %s" e
  in
  let thresholds max_slowdown =
    Printf.sprintf
      {|{"path": "scenarios[duet]/tenants[*]/slowdown", "le": %s},
        {"path": "scenarios[duet]/fairness", "ge": 0.5},
        {"path": "scenarios[duet]/weighted_speedup", "ge": 1.0}|}
      max_slowdown
  in
  Alcotest.(check (list string)) "passes generous bounds" []
    (check (thresholds "2.0"));
  Alcotest.(check bool) "fails impossible bound" true
    (check (thresholds "0.5") <> []);
  Alcotest.(check (list string)) "no bounds, no issues" [] (check "");
  Alcotest.(check bool) "artifact mismatch flagged" true
    (check ~artifact:"nope/1" (thresholds "2.0") <> []);
  let bad_schema = json_exn {|{"schema": "nope/1", "bounds": []}|} in
  Alcotest.(check bool) "schema mismatch flagged" true
    (Result.is_error (Bounds.of_json bad_schema))

(* Byte pin for pc-scenario/1: the gate's seeded duet run, and an
   empty sampled report for the [sample] integer branch. *)
let test_report_json_golden () =
  let settings = { Runner.quick_settings with Runner.budget = 60_000 } in
  Runner.clear_caches ();
  let results = Runner.run settings [ Option.get (Presets.find "duet") ] in
  Alcotest.(check string) "duet bytes"
    "{\"schema\":\"pc-scenario/1\",\"seed\":1,\"budget\":60000,\"sample\":null,\"scenarios\":[{\"name\":\"duet\",\"config\":\"base\",\"policy\":\"round-robin\",\"quantum\":4096,\"sampled\":false,\"weighted_speedup\":2.000000,\"fairness\":1.000000,\"tenants\":[{\"label\":\"crc32\",\"workload\":\"crc32\",\"kind\":\"original\",\"instrs\":60000,\"standalone_ipc\":0.799169,\"corun_ipc\":0.799169,\"slowdown\":1.000000,\"l2_accesses\":376,\"l2_misses\":188,\"mem_accesses\":188},{\"label\":\"qsort\",\"workload\":\"qsort\",\"kind\":\"original\",\"instrs\":60000,\"standalone_ipc\":0.868772,\"corun_ipc\":0.868772,\"slowdown\":1.000000,\"l2_accesses\":327,\"l2_misses\":165,\"mem_accesses\":165}]}]}"
    (Report.json ~settings results);
  Alcotest.(check string) "sampled header bytes"
    "{\"schema\":\"pc-scenario/1\",\"seed\":1,\"budget\":60000,\"sample\":5000,\"scenarios\":[]}"
    (Report.json ~settings:{ settings with Runner.sample = Some 5_000 } [])

let () =
  Alcotest.run "pc_scenario"
    [
      ( "exactness",
        [
          Alcotest.test_case "1 tenant == standalone" `Quick test_solo_exact;
          Alcotest.test_case "1 tenant, small quantum" `Quick
            test_solo_exact_small_quantum;
          QCheck_alcotest.to_alcotest test_solo_exact_qcheck;
          Alcotest.test_case "one stream, five drivers" `Quick
            test_one_stream_five_drivers;
          Alcotest.test_case "sampled solo tenant has slowdown 1" `Quick
            test_sampled_solo_slowdown_is_one;
          Alcotest.test_case "a plan tenant times windows like replay" `Quick
            test_corun_matches_replay;
        ] );
      ( "interference",
        [
          Alcotest.test_case "tight duet interferes" `Quick
            test_tight_duet_interferes;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "pool width and re-run byte identity" `Quick
            test_pool_width_byte_identity;
          Alcotest.test_case "sampled presets pinned" `Quick
            test_sampled_presets_pinned;
        ] );
      ( "arbitration",
        [
          Alcotest.test_case "priority weights" `Quick test_priority_weights;
          Alcotest.test_case "co_run validation" `Quick test_co_run_validation;
          Alcotest.test_case "a resumed tenant is one funcsim run" `Quick
            test_co_run_counts_one_run;
        ] );
      ( "spec",
        [
          Alcotest.test_case "validation" `Quick test_spec_validation;
          Alcotest.test_case "slot labels" `Quick test_spec_slots;
          Alcotest.test_case "config JSON" `Quick test_config_of_json;
          Alcotest.test_case "config JSON errors" `Quick
            test_config_of_json_errors;
          Alcotest.test_case "damaged config never raises" `Quick
            test_config_damage_never_raises;
        ] );
      ( "gate",
        [
          Alcotest.test_case "thresholds" `Quick test_check_gate;
          Alcotest.test_case "pc-scenario/1 golden bytes" `Quick
            test_report_json_golden;
        ] );
    ]
