(* pc_report: run ledger, schema-aware drift diffing, trace round-trip.

   The load-bearing properties:
   - ledger ids are content-addressed over the deterministic slice of a
     run, so repeated equivalent invocations (any -j, any output paths)
     digest identically and perturbed runs do not;
   - a pc-trace/1 file parses and re-prints byte-identically (emit ->
     parse -> re-emit), so trace diffing works on what the tracer
     actually wrote;
   - the pc-obs/1 span aligner is sound (a tree diffed with itself is
     empty) and complete for single perturbations (exactly the
     perturbed group surfaces). *)

module Json = Pc_util.Json
module Rng = Pc_util.Rng
module Diff = Pc_report.Diff
module Ledger = Pc_report.Ledger
module Trace = Pc_report.Trace
module M = Pc_obs.Metrics
module Event = Pc_obs.Event

let tmpdir () = Filename.temp_file "pc-report-test" ""

let fresh_dir () =
  let d = tmpdir () in
  Sys.remove d;
  d

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* --- argv normalisation --- *)

let test_args_digest_normalisation () =
  let base = Ledger.args_digest [ "--quick"; "fig3"; "--seed"; "2" ] in
  List.iter
    (fun argv ->
      Alcotest.(check string)
        (String.concat " " argv)
        base (Ledger.args_digest argv))
    [
      [ "--quick"; "fig3"; "--seed"; "2"; "-j"; "4" ];
      [ "--quick"; "fig3"; "--seed"; "2"; "-j8" ];
      [ "--quick"; "fig3"; "--seed"; "2"; "--jobs=2" ];
      [ "--quick"; "fig3"; "--seed"; "2"; "--ledger" ];
      [ "--quick"; "fig3"; "--seed"; "2"; "--ledger=/tmp/elsewhere" ];
    ];
  (* output destinations are elided, but the flag itself is kept *)
  Alcotest.(check string)
    "trace path elided"
    (Ledger.args_digest [ "fig3"; "--trace"; "/tmp/a.json" ])
    (Ledger.args_digest [ "fig3"; "--trace"; "/tmp/b.json" ]);
  Alcotest.(check bool)
    "trace flag still distinguishes" false
    (Ledger.args_digest [ "fig3"; "--trace"; "/tmp/a.json" ]
    = Ledger.args_digest [ "fig3" ]);
  Alcotest.(check string)
    "short -o glued and split agree"
    (Ledger.args_digest [ "-o"; "x.json"; "fig3" ])
    (Ledger.args_digest [ "-ofront.json"; "fig3" ]);
  Alcotest.(check bool)
    "a real setting still matters" false
    (Ledger.args_digest [ "--seed"; "2" ] = Ledger.args_digest [ "--seed"; "3" ])

(* --- record determinism --- *)

let record l ?(argv = [ "--quick"; "fig3" ]) ?(seed = 1) ?(jobs = 1) () =
  Ledger.record l ~tool:"test" ~argv ~seed ~jobs ~artifacts:[]

let id_of path =
  match Json.parse_file path with
  | Ok doc ->
    Option.value ~default:"?" (Option.bind (Json.member "id" doc) Json.to_string)
  | Error e -> Alcotest.failf "%s: %s" path e

let test_record_ids_deterministic () =
  let l = Ledger.create (fresh_dir ()) in
  let r1 = record l () in
  let r2 = record l ~argv:[ "--quick"; "fig3"; "-j"; "7" ] ~jobs:7 () in
  let r3 = record l ~seed:2 () in
  Alcotest.(check string) "same run, any -j: same id" (id_of r1) (id_of r2);
  Alcotest.(check bool) "perturbed seed: new id" false (id_of r1 = id_of r3);
  Alcotest.(check (list string))
    "entries oldest first" [ r1; r2; r3 ]
    (Ledger.entries l);
  Alcotest.(check (list string)) "last 2" [ r2; r3 ] (Ledger.last l 2)

let test_record_id_ignores_store_counters () =
  let l = Ledger.create (fresh_dir ()) in
  M.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      M.reset ();
      M.set_enabled false)
    (fun () ->
      let r1 = record l () in
      (* same-key misses can double under -j races; the id must not see
         them (nor the ledger's own bookkeeping counter) *)
      M.incr (M.counter "exec.store.test.misses");
      let r2 = record l () in
      Alcotest.(check string) "store counters elided" (id_of r1) (id_of r2);
      M.incr (M.counter "funcsim.test.retired");
      let r3 = record l () in
      Alcotest.(check bool)
        "deterministic counters digested" false
        (id_of r1 = id_of r3))

(* --- trace round-trip --- *)

let test_trace_round_trip () =
  let path = Filename.temp_file "pc-report-trace" ".json" in
  (Pc_trace.Chrome.with_trace ~period_s:0.0 (Some path) @@ fun () ->
   let pool = Pc_exec.Pool.create ~num_domains:2 in
   let store = Pc_exec.Store.create ~name:"rt" () in
   (* spans + flow hand-off arrows from the pool, store put/get flows,
      instants with int/float/string args, and a counter track *)
   let c = M.counter "report.test.events" in
   ignore
     (Pc_exec.Pool.map pool
        (fun i ->
          M.incr c;
          Pc_exec.Store.find_or_compute store i (fun () -> i * i))
        [ 1; 2; 3; 4 ]);
   Event.instant "mark"
     [
       ("i", Event.Int 42);
       ("big", Event.Int 2_000_000_000);
       ("f", Event.Float 0.125);
       ("s", Event.Str "x\"y");
     ];
   Event.instant "ratio" [ ("v", Event.Float 1.5e-7) ]);
  let original = read_file path in
  let doc =
    match Json.parse original with
    | Ok doc -> doc
    | Error e -> Alcotest.failf "parse: %s" e
  in
  let t =
    match Trace.parse doc with
    | Ok t -> t
    | Error e -> Alcotest.failf "Trace.parse: %s" e
  in
  Alcotest.(check bool)
    "parsed a non-trivial stream" true
    (List.length t.Trace.events > 8);
  Alcotest.(check string) "re-render byte-identical" original
    (Json.encode doc ^ "\n");
  Sys.remove path

(* --- diff engine --- *)

let obs_doc spans =
  Json.Obj
    [
      ("schema", Json.Str "pc-obs/1");
      ("counters", Json.Obj []);
      ("gauges", Json.Obj []);
      ("histograms", Json.Obj []);
      ("spans", Json.List spans);
    ]

let diff_docs a b =
  match Diff.diff ~a_label:"a" ~b_label:"b" a b with
  | Ok r -> r
  | Error e -> Alcotest.failf "diff: %s" e

(* A pc-scenario/1 report reduced to what the diff engine keys on: the
   [scenarios] list aligns by [name]. *)
let scenario_doc entries =
  Json.Obj
    [
      ("schema", Json.Str "pc-scenario/1");
      ( "scenarios",
        Json.List
          (List.map
             (fun (name, fairness) ->
               Json.Obj
                 [ ("name", Json.Str name); ("fairness", Json.float fairness) ])
             entries) );
    ]

let diff_thresholds fields =
  match
    Diff.thresholds_of_json
      (Json.Obj (("schema", Json.Str "pc-diff-thresholds/1") :: fields))
  with
  | Ok th -> th
  | Error e -> Alcotest.fail e

let fairness_tolerance rel =
  diff_thresholds
    [ ("tolerances", Json.Obj [ ("scenarios[*]/fairness", Json.float rel) ]) ]

let test_diff_tolerance_and_keys () =
  let a = scenario_doc [ ("duet", 0.9); ("quad", 0.5) ] in
  (* reordered, same values: keyed alignment finds nothing *)
  let r = diff_docs a (scenario_doc [ ("quad", 0.5); ("duet", 0.9) ]) in
  Alcotest.(check int) "reordered rows: no items" 0 (List.length r.Diff.items);
  (* a scenario field is deterministic: any change drifts, under its key *)
  let r = diff_docs a (scenario_doc [ ("quad", 0.55); ("duet", 0.9) ]) in
  Alcotest.(check (list string)) "changed value drifts under its key"
    [ "scenarios[quad]/fairness" ]
    (List.map (fun it -> it.Diff.path) (Diff.drift r));
  (* a tolerances glob re-judges it: inside its bound passes, outside fails *)
  let th = fairness_tolerance 0.2 in
  Alcotest.(check bool) "inside the tolerance passes" true (Diff.gate th r);
  let r = diff_docs a (scenario_doc [ ("quad", 0.8); ("duet", 0.9) ]) in
  Alcotest.(check bool) "outside the tolerance fails" false (Diff.gate th r);
  (* numbers compare by value, whatever their literal text *)
  let lit fairness =
    Json.Obj
      [
        ("schema", Json.Str "pc-scenario/1");
        ("fairness", Json.Num fairness);
      ]
  in
  Alcotest.(check int) "1.0 and 1.000000 are equal" 0
    (List.length (diff_docs (lit "1.0") (lit "1.000000")).Diff.items);
  (* a vanished row is drift, whatever the tolerances *)
  let r = diff_docs a (scenario_doc [ ("duet", 0.9) ]) in
  Alcotest.(check int) "removed row: drift" 1 (List.length (Diff.drift r));
  Alcotest.(check bool) "removed row fails a tolerant gate" false (Diff.gate th r)

let run_doc ~seed ~host =
  Json.Obj
    [
      ("schema", Json.Str "pc-run/1");
      ("id", Json.Str (string_of_int seed));
      ( "run",
        Json.Obj
          [
            ("tool", Json.Str "test");
            ("seed", Json.int seed);
            ("artifacts", Json.List []);
          ] );
      ( "env",
        Json.Obj
          [ ("host", Json.Str host); ("argv", Json.List [ Json.Str host ]) ] );
    ]

let test_diff_run_env_skipped () =
  let r = diff_docs (run_doc ~seed:1 ~host:"a") (run_doc ~seed:1 ~host:"bb") in
  Alcotest.(check int) "env differences invisible" 0 (List.length r.Diff.items);
  let r = diff_docs (run_doc ~seed:1 ~host:"a") (run_doc ~seed:2 ~host:"a") in
  Alcotest.(check int) "seed drift caught" 1 (List.length (Diff.drift r))

let test_thresholds_gate () =
  let a = scenario_doc [ ("duet", 0.5) ] and b = scenario_doc [ ("duet", 1.0) ] in
  let r = diff_docs a b in
  Alcotest.(check int) "drifts unguarded" 1 (List.length (Diff.drift r));
  Alcotest.(check bool)
    "default gate fails" false
    (Diff.gate Diff.default_thresholds r);
  let th_ignore =
    diff_thresholds
      [
        ("max_drift", Json.int 0);
        ("ignore", Json.List [ Json.Str "scenarios[*]/fairness" ]);
      ]
  in
  Alcotest.(check bool) "ignore glob tolerates it" true (Diff.gate th_ignore r);
  (* |1.0 - 0.5| = 0.5 of max |a| |b| = 1.0 *)
  Alcotest.(check bool) "tolerance glob passes inside its bound" true
    (Diff.gate (fairness_tolerance 0.5) r);
  Alcotest.(check bool) "tolerance glob fails outside its bound" false
    (Diff.gate (fairness_tolerance 0.4) r);
  Alcotest.(check (list (option (float 0.0)))) "applied tolerance recorded"
    [ Some 0.5 ]
    (List.map (fun it -> it.Diff.tol) (Diff.apply (fairness_tolerance 0.5) r).Diff.items)

(* Byte pin for pc-diff/1: a drifted counter re-judged under a
   tolerance ([tol]), a memo-store counter ([note]), a changed gauge
   ([num]), a removed key with a quoted name, and an added one. *)
let test_diff_json_golden () =
  let doc counters gauges =
    Json.Obj
      [
        ("schema", Json.Str "pc-obs/1");
        ("counters", Json.Obj counters);
        ("gauges", Json.Obj gauges);
      ]
  in
  let a =
    doc
      [
        ("exec.store.sim.misses", Json.int 1);
        ("funcsim.runs", Json.int 10);
        ("gone\"x", Json.int 2);
      ]
      [ ("g", Json.int 3) ]
  and b =
    doc
      [
        ("exec.store.sim.misses", Json.int 2);
        ("funcsim.runs", Json.int 11);
        ("new", Json.Str "v");
      ]
      [ ("g", Json.float 1e-7) ]
  in
  let th =
    diff_thresholds
      [ ("tolerances", Json.Obj [ ("counters/funcsim.*", Json.float 0.125) ]) ]
  in
  Alcotest.(check string) "pc-diff/1 bytes"
    "{\"schema\":\"pc-diff/1\",\"artifact_schema\":\"pc-obs/1\",\"a\":\"a\",\"b\":\"b\",\"compared\":6,\"drift\":3,\"items\":[{\"path\":\"counters/exec.store.sim.misses\",\"kind\":\"note\",\"a\":\"1\",\"b\":\"2\",\"delta\":1,\"tol\":null,\"ok\":true},{\"path\":\"counters/funcsim.runs\",\"kind\":\"num\",\"a\":\"10\",\"b\":\"11\",\"delta\":1,\"tol\":0.125,\"ok\":true},{\"path\":\"counters/gone\\\"x\",\"kind\":\"removed\",\"a\":\"2\",\"b\":null,\"delta\":null,\"tol\":null,\"ok\":false},{\"path\":\"counters/new\",\"kind\":\"added\",\"a\":null,\"b\":\"\\\"v\\\"\",\"delta\":null,\"tol\":null,\"ok\":false},{\"path\":\"gauges/g\",\"kind\":\"num\",\"a\":\"3\",\"b\":\"1e-07\",\"delta\":-2.9999999,\"tol\":null,\"ok\":false}]}"
    (Diff.to_json (Diff.apply th (diff_docs a b)))

(* --- random span trees through the aligner --- *)

let names = [| "prepare"; "profile"; "synth"; "sim"; "fidelity"; "pool" |]

let rec gen_span rng depth =
  let n_children = if depth <= 0 then 0 else Rng.int rng 3 in
  let children = List.init n_children (fun _ -> gen_span rng (depth - 1)) in
  let d =
    0.001 +. Rng.float rng 0.5
    +. List.fold_left
         (fun acc c ->
           match Option.bind (Json.member "duration_s" c) Json.to_float with
           | Some f -> acc +. f
           | None -> acc)
         0.0 children
  in
  Json.Obj
    [
      ("name", Json.Str (Rng.pick rng names));
      ("duration_s", Json.float d);
      ("self_s", Json.float 0.001);
      ("children", Json.List children);
    ]

let gen_roots rng = List.init (1 + Rng.int rng 3) (fun _ -> gen_span rng 3)

(* Graft one extra child with a name the generator never uses at a
   random (existing) node, returning the perturbed tree. *)
let rec perturb rng spans =
  let i = Rng.int rng (List.length spans) in
  List.mapi
    (fun j s ->
      if j <> i then s
      else
        match s with
        | Json.Obj fields ->
          let children =
            match List.assoc_opt "children" fields with
            | Some (Json.List l) -> l
            | _ -> []
          in
          let children =
            if children <> [] && Rng.bool rng then perturb rng children
            else
              children
              @ [
                  Json.Obj
                    [
                      ("name", Json.Str "__perturbed__");
                      ("duration_s", Json.float 0.001);
                      ("self_s", Json.float 0.001);
                      ("children", Json.List []);
                    ];
                ]
          in
          Json.Obj
            (List.map
               (fun (k, v) ->
                 if k = "children" then (k, Json.List children) else (k, v))
               fields)
        | other -> other)
    spans

let qcheck_span_aligner =
  QCheck.Test.make ~count:100 ~name:"span aligner: self-empty, perturb-exact"
    QCheck.(make Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = Rng.create seed in
      let spans = gen_roots rng in
      let self = diff_docs (obs_doc spans) (obs_doc spans) in
      if self.Diff.items <> [] then
        QCheck.Test.fail_reportf "self-diff not empty (seed %d)" seed;
      let perturbed = perturb (Rng.split rng) spans in
      let r = diff_docs (obs_doc spans) (obs_doc perturbed) in
      match Diff.drift r with
      | [ it ] ->
        (* exactly the grafted group, nothing else *)
        String.length it.Diff.path >= 15
        && String.sub it.Diff.path
             (String.length it.Diff.path - 15)
             15
           = "[__perturbed__]"
      | items ->
        QCheck.Test.fail_reportf "expected 1 drift, got %d (seed %d)"
          (List.length items) seed)

let () =
  Alcotest.run "pc_report"
    [
      ( "ledger",
        [
          Alcotest.test_case "args_digest normalisation" `Quick
            test_args_digest_normalisation;
          Alcotest.test_case "record ids deterministic" `Quick
            test_record_ids_deterministic;
          Alcotest.test_case "id ignores store counters" `Quick
            test_record_id_ignores_store_counters;
        ] );
      ( "trace",
        [ Alcotest.test_case "round-trip byte-identical" `Quick
            test_trace_round_trip ] );
      ( "diff",
        [
          Alcotest.test_case "tolerance + keyed lists" `Quick
            test_diff_tolerance_and_keys;
          Alcotest.test_case "run env skipped" `Quick test_diff_run_env_skipped;
          Alcotest.test_case "thresholds gate" `Quick test_thresholds_gate;
          Alcotest.test_case "pc-diff/1 golden bytes" `Quick
            test_diff_json_golden;
        ] );
      ( "aligner",
        [ QCheck_alcotest.to_alcotest ~long:false qcheck_span_aligner ] );
    ]
