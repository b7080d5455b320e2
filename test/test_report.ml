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
module Bounds = Pc_report.Bounds
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
  Alcotest.(check (result (pair string string) string))
    "newest pairs with the latest run of the same work" (Ok (r2, r3))
    (Ledger.latest_pair l)

(* Interleaved tools and argument lists: the newest record pairs only
   with an earlier run of the same tool and args digest. *)
let test_latest_pair_like_with_like () =
  let l = Ledger.create (fresh_dir ()) in
  let run tool argv = Ledger.record l ~tool ~argv ~seed:1 ~jobs:1 ~artifacts:[] in
  let pair = Alcotest.(result (pair string string) string) in
  let unpaired what =
    match Ledger.latest_pair l with
    | Ok (a, b) -> Alcotest.failf "%s: paired %s with %s" what a b
    | Error _ -> ()
  in
  unpaired "empty ledger";
  let synth1 = run "clone_gen" [ "synth"; "-p"; "x.profile" ] in
  unpaired "one record";
  let clone1 = run "clone_gen" [ "clone"; "crc32" ] in
  unpaired "same tool, other args";
  let _ = run "run_experiments" [ "fig3"; "--quick" ] in
  let synth2 = run "clone_gen" [ "synth"; "-p"; "x.profile" ] in
  Alcotest.check pair "skips other tools and args" (Ok (synth1, synth2))
    (Ledger.latest_pair l);
  let _ = run "clone_gen" [ "clone"; "qsort" ] in
  unpaired "no earlier run of this work";
  let clone2 = run "clone_gen" [ "clone"; "crc32"; "-j"; "4" ] in
  Alcotest.check pair "-j is not part of the work" (Ok (clone1, clone2))
    (Ledger.latest_pair l);
  let _ = run "run_experiments" [ "synth"; "-p"; "x.profile" ] in
  unpaired "same args, other tool"

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

(* --- the CI gates: one verdict table over the checked-in bounds --- *)

(* Report fixtures shaped like the three gated artefacts, every value
   comfortably inside baselines/{fidelity,scenario,tune}.json.  Each
   table row edits one thing and states whether the gate passes. *)

let num s = Json.Num s

(* [edit path f doc] applies [f] to the value at [path]; [None] drops
   it.  A step names an object field or a list element by its "bench"
   or "name", else its index. *)
let rec edit path f doc =
  match (path, doc) with
  | [], v -> f v
  | step :: rest, Json.Obj fields ->
    Some
      (Json.Obj
         (List.filter_map
            (fun (k, v) ->
              if k = step then Option.map (fun v -> (k, v)) (edit rest f v)
              else Some (k, v))
            fields))
  | step :: rest, Json.List items ->
    let id i v =
      match Json.(Option.bind (member "bench" v) to_string) with
      | Some s -> s
      | None -> (
        match Json.(Option.bind (member "name" v) to_string) with
        | Some s -> s
        | None -> string_of_int i)
    in
    Some
      (Json.List
         (List.concat
            (List.mapi
               (fun i v ->
                 if id i v = step then Option.to_list (edit rest f v) else [ v ])
               items)))
  | _ :: _, leaf -> Some leaf

let set path v doc = Option.get (edit path (fun _ -> Some v) doc)
let drop path doc = Option.get (edit path (fun _ -> None) doc)

let fidelity_fixture =
  let row bench =
    Json.Obj
      [
        ("bench", Json.Str bench);
        ("orig_instrs", Json.int 300_000);
        ("clone_instrs", Json.int 50_000);
        ("instr_mix_l1", num "0.1");
        ("dep_dist_l1", num "0.4");
        ("stride_agreement", num "0.7");
        ("single_stride_err", num "0.3");
        ("taken_rate_err", num "0.1");
        ("transition_rate_err", num "0.05");
        ("sfg_block_ratio", num "1.0");
        ("avg_block_size_ratio", num "1.0");
      ]
  in
  Json.Obj
    [
      ("schema", Json.Str "pc-fidelity/1");
      ("seed", Json.int 1);
      ("profile_instrs", Json.int 300_000);
      ("clone_dynamic", Json.int 50_000);
      ("benchmarks", Json.List [ row "crc32"; row "qsort" ]);
    ]

let scenario_fixture =
  let tenant label =
    Json.Obj
      [
        ("label", Json.Str label);
        ("workload", Json.Str label);
        ("kind", Json.Str "original");
        ("instrs", Json.int 60_000);
        ("standalone_ipc", num "0.8");
        ("corun_ipc", num "0.8");
        ("slowdown", num "1.0");
      ]
  in
  let scenario name =
    Json.Obj
      [
        ("name", Json.Str name);
        ("config", Json.Str "base");
        ("weighted_speedup", num "2.0");
        ("fairness", num "1.0");
        ("tenants", Json.List [ tenant "crc32"; tenant "qsort" ]);
      ]
  in
  Json.Obj
    [
      ("schema", Json.Str "pc-scenario/1");
      ("seed", Json.int 1);
      ( "scenarios",
        Json.List
          (List.map scenario
             [ "duet"; "duet-clone"; "duet-tight"; "duet-tight-clone" ]) );
    ]

let tune_fixture =
  let row bench =
    Json.Obj
      [
        ("bench", Json.Str bench);
        ("evals", Json.int 32);
        ("default_fitness", num "0.6");
        ("best_fitness", num "0.5");
      ]
  in
  Json.Obj
    [
      ("schema", Json.Str "pc-tune/1");
      ("seed", Json.int 1);
      ( "benchmarks",
        Json.List
          (List.map row [ "crc32"; "qsort"; "sha"; "dijkstra"; "bitcount" ]) );
    ]

(* A bound's literal and the nearest 6-decimal value past it. *)
let past dir b =
  Printf.sprintf "%.6f"
    (match dir with
    | `Le -> float_of_string b +. 1e-6
    | `Ge -> float_of_string b -. 1e-6)

let just_inside_and_outside name baseline doc dir b edit =
  [
    (name ^ " at its bound", baseline, edit doc b, true);
    (name ^ " just past its bound", baseline, edit doc (past dir b), false);
  ]

let fidelity_cases =
  let f = "fidelity.json" and doc = fidelity_fixture in
  (("all inside", f, doc, true)
  :: List.concat_map
       (fun (field, dir, b) ->
         just_inside_and_outside ("qsort " ^ field) f doc dir b
           (fun doc v -> set [ "benchmarks"; "qsort"; field ] (num v) doc))
       [
         ("instr_mix_l1", `Le, "0.20");
         ("dep_dist_l1", `Le, "0.85");
         ("single_stride_err", `Le, "0.65");
         ("taken_rate_err", `Le, "0.20");
         ("transition_rate_err", `Le, "0.15");
         ("stride_agreement", `Ge, "0.35");
         ("sfg_block_ratio", `Ge, "0.2");
         ("sfg_block_ratio", `Le, "4.0");
         ("avg_block_size_ratio", `Ge, "0.6");
         ("avg_block_size_ratio", `Le, "1.6");
       ])
  @ [
      ( "null characteristic",
        f,
        set [ "benchmarks"; "crc32"; "dep_dist_l1" ] Json.Null doc,
        false );
      ( "infinite characteristic",
        f,
        set [ "benchmarks"; "crc32"; "dep_dist_l1" ] (num "1e999") doc,
        false );
      ( "string characteristic",
        f,
        set [ "benchmarks"; "crc32"; "dep_dist_l1" ] (Json.Str "0.1") doc,
        false );
      ( "missing characteristic",
        f,
        drop [ "benchmarks"; "crc32"; "taken_rate_err" ] doc,
        false );
      ("no benchmarks", f, set [ "benchmarks" ] (Json.List []) doc, false);
      ("no benchmarks field", f, drop [ "benchmarks" ] doc, false);
      ( "other schema",
        f,
        set [ "schema" ] (Json.Str "pc-fidelity/2") doc,
        false );
    ]

(* A slowdown bound is probed on slot 1 with the twin scenario's slot 1
   just inside the pair gap, so only the probed bound can fail. *)
let scenario_cases =
  let f = "scenario.json" and doc = scenario_fixture in
  let slowdown name slot v doc =
    set [ "scenarios"; name; "tenants"; slot; "slowdown" ] (num v) doc
  in
  let aggregates =
    List.concat_map
      (fun (name, twin, max_slowdown, twin_slowdown, min_ws) ->
        just_inside_and_outside (name ^ " slowdown") f doc `Le max_slowdown
          (fun doc v -> slowdown name "1" v (slowdown twin "1" twin_slowdown doc))
        @ just_inside_and_outside (name ^ " fairness") f doc `Ge "0.95"
            (fun doc v -> set [ "scenarios"; name; "fairness" ] (num v) doc)
        @ just_inside_and_outside (name ^ " weighted_speedup") f doc `Ge min_ws
            (fun doc v ->
              set [ "scenarios"; name; "weighted_speedup" ] (num v) doc))
      [
        ("duet", "duet-clone", "1.05", "1.04", "1.9");
        ("duet-clone", "duet", "1.05", "1.04", "1.9");
        ("duet-tight", "duet-tight-clone", "1.15", "1.14", "1.8");
        ("duet-tight-clone", "duet-tight", "1.15", "1.14", "1.8");
      ]
  in
  let gaps =
    List.concat_map
      (fun (clone, inside_up, outside_up, inside_down, outside_down) ->
        List.map
          (fun (what, v, pass) ->
            (clone ^ " slot 0 just " ^ what, f, slowdown clone "0" v doc, pass))
          [
            ("under +gap", inside_up, true);
            ("over +gap", outside_up, false);
            ("under -gap", inside_down, true);
            ("over -gap", outside_down, false);
          ])
      [
        ("duet-clone", "1.019999", "1.020001", "0.980001", "0.979999");
        ("duet-tight-clone", "1.049999", "1.050001", "0.950001", "0.949999");
      ]
  in
  let third_tenant doc =
    Option.get
      (edit [ "scenarios"; "duet-clone"; "tenants" ]
         (function
           | Json.List l -> Some (Json.List (l @ [ List.hd l ]))
           | v -> Some v)
         doc)
  in
  (("all inside", f, doc, true) :: aggregates)
  @ gaps
  @ [
      ("null fairness", f, set [ "scenarios"; "duet"; "fairness" ] Json.Null doc, false);
      ( "missing tenant slowdown",
        f,
        drop [ "scenarios"; "duet-tight"; "tenants"; "0"; "slowdown" ] doc,
        false );
      ( "null clone slowdown",
        f,
        set [ "scenarios"; "duet-clone"; "tenants"; "1"; "slowdown" ] Json.Null doc,
        false );
      ("missing scenario", f, drop [ "scenarios"; "duet-tight-clone" ] doc, false);
      ("unequal tenant counts", f, third_tenant doc, false);
      ( "clone with no tenants",
        f,
        set [ "scenarios"; "duet-clone"; "tenants" ] (Json.List []) doc,
        false );
      ("no scenarios", f, set [ "scenarios" ] (Json.List []) doc, false);
      ("other schema", f, set [ "schema" ] (Json.Str "pc-scenario/2") doc, false);
    ]

let tune_cases =
  let f = "tune.json" and doc = tune_fixture in
  let fitness bench field v doc = set [ "benchmarks"; bench; field ] (num v) doc in
  let no_gain bench doc = fitness bench "best_fitness" "0.6" doc in
  [
    ("all improved", f, doc, true);
    ( "best_fitness at its bound",
      f,
      fitness "sha" "default_fitness" "0.8" (fitness "sha" "best_fitness" "0.75" doc),
      true );
    ( "best_fitness just past its bound",
      f,
      fitness "sha" "default_fitness" "0.8" (fitness "sha" "best_fitness" "0.750001" doc),
      false );
    ("best == default on one row", f, no_gain "qsort" doc, true);
    ("best == default on two rows", f, no_gain "qsort" (no_gain "sha" doc), false);
    ("best just above default", f, fitness "qsort" "best_fitness" "0.600001" doc, false);
    ("four rows, all improved", f, drop [ "benchmarks"; "bitcount" ] doc, true);
    ( "three rows, all improved",
      f,
      drop [ "benchmarks"; "bitcount" ] (drop [ "benchmarks"; "sha" ] doc),
      false );
    ( "null best_fitness",
      f,
      set [ "benchmarks"; "crc32"; "best_fitness" ] Json.Null doc,
      false );
    ( "missing default_fitness",
      f,
      drop [ "benchmarks"; "crc32"; "default_fitness" ] doc,
      false );
    ("no benchmarks", f, set [ "benchmarks" ] (Json.List []) doc, false);
    ("other schema", f, set [ "schema" ] (Json.Str "pc-tune/2") doc, false);
  ]

let baseline_text name =
  In_channel.with_open_bin (Filename.concat "../baselines" name) In_channel.input_all

let gate_of_text text = Result.bind (Json.parse text) Bounds.of_json

let gate_issues baseline report =
  match gate_of_text (baseline_text baseline) with
  | Ok b -> Bounds.check b report
  | Error e -> Alcotest.failf "%s: %s" baseline e

let verdict_cases = fidelity_cases @ scenario_cases @ tune_cases

let test_gate_verdict_table () =
  let wrong =
    List.filter_map
      (fun (name, baseline, report, pass) ->
        let issues = gate_issues baseline report in
        if (issues = []) = pass then None
        else
          Some
            (Printf.sprintf "%s / %s: expected %s, got %s" baseline name
               (if pass then "pass" else "fail")
               (match issues with [] -> "pass" | i :: _ -> "fail (" ^ i ^ ")")))
      verdict_cases
  in
  if wrong <> [] then
    Alcotest.failf "%d of %d verdicts wrong:\n%s" (List.length wrong)
      (List.length verdict_cases) (String.concat "\n" wrong)

(* Every truncation and every one-byte replacement of the three gate
   documents is a located [Error] (["bounds[2].le: ..."]) or a gate
   that evaluates a report without raising. *)
let test_gate_corruption_sweep () =
  List.iter
    (fun (name, report) ->
      let text = baseline_text name in
      let check what damaged =
        (* the JSON parser's own sweep is in test_util *)
        match Json.parse damaged with
        | Error _ -> ()
        | Ok doc -> (
          match Bounds.of_json doc with
          | Error e -> (
            match String.index_opt e ':' with
            | Some i when i > 0 -> ()
            | _ -> Alcotest.failf "%s, %s: unlocated error %S" name what e)
          | Ok b -> ignore (Bounds.check b report : string list)
          | exception e ->
            Alcotest.failf "%s, %s: raised %s" name what (Printexc.to_string e))
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
          [ '-'; '9'; ' '; '\n'; 'x'; '['; ']'; '*'; '/' ]
      done)
    [
      ("fidelity.json", fidelity_fixture);
      ("scenario.json", scenario_fixture);
      ("tune.json", tune_fixture);
    ]

(* The language's rules, one exact message each. *)
let test_bounds_language () =
  let gate ?(artifact = "pc-fidelity/1") rules =
    gate_of_text
      (Printf.sprintf {|{"schema":"pc-bounds/1","artifact":"%s","bounds":[%s]}|}
         artifact rules)
  in
  let issues ?artifact rules report =
    match gate ?artifact rules with
    | Ok b -> Bounds.check b report
    | Error e -> Alcotest.failf "%s: %s" rules e
  in
  let fid = set [ "benchmarks"; "qsort"; "instr_mix_l1" ] (num "0.3") fidelity_fixture in
  let cases =
    [
      ( "[key] picks by identity",
        issues {|{"path":"benchmarks[qsort]/instr_mix_l1","le":0.2}|} fid,
        [ "bounds[0] benchmarks[qsort]/instr_mix_l1 = 0.3 fails le 0.2" ] );
      ( "lt is strict, ge inclusive",
        issues {|{"path":"benchmarks[*]/instr_mix_l1","ge":0.1,"lt":0.3}|} fid,
        [ "bounds[0] benchmarks[qsort]/instr_mix_l1 = 0.3 fails lt 0.3" ] );
      ( "missing field",
        issues {|{"path":"benchmarks[*]/no_such","le":1}|} fid,
        [
          "bounds[0] benchmarks[crc32]/no_such: missing";
          "bounds[0] benchmarks[qsort]/no_such: missing";
        ] );
      ( "absent key",
        issues {|{"path":"benchmarks[sha]/instr_mix_l1","le":1}|} fid,
        [ "bounds[0] benchmarks[sha]/instr_mix_l1: missing" ] );
      ( "empty list",
        issues {|{"path":"benchmarks[*]/instr_mix_l1","le":1}|}
          (set [ "benchmarks" ] (Json.List []) fid),
        [ "bounds[0] benchmarks[*]/instr_mix_l1: matches nothing" ] );
      ( "minus: one-sided binding",
        issues ~artifact:"pc-scenario/1"
          {|{"path":"scenarios[duet-clone]/tenants[*]/slowdown",
             "minus":"scenarios[duet]/tenants[*]/slowdown","le":0.02}|}
          (drop [ "scenarios"; "duet"; "tenants"; "1" ] scenario_fixture),
        [
          "bounds[0] scenarios[duet-clone]/tenants[1]/slowdown: no partner in \
           scenarios[duet]/tenants[*]/slowdown";
        ] );
      ( "at_least counts",
        issues ~artifact:"pc-tune/1"
          {|{"path":"benchmarks[*]/best_fitness",
             "minus":"benchmarks[*]/default_fitness","lt":0,"at_least":4}|}
          (set [ "benchmarks"; "sha"; "best_fitness" ] (num "0.6")
             (set [ "benchmarks"; "qsort"; "best_fitness" ] (num "0.6") tune_fixture)),
        [
          "bounds[0] benchmarks[*]/best_fitness - benchmarks[*]/default_fitness: \
           3 meet lt 0, need 4";
        ] );
      ( "artifact mismatch",
        issues {|{"path":"fairness","ge":0}|} scenario_fixture,
        [ "artifact: bounds are for pc-fidelity/1, report is pc-scenario/1" ] );
    ]
  in
  List.iter (fun (what, got, want) -> Alcotest.(check (list string)) what want got) cases;
  List.iter
    (fun (rules, want) ->
      Alcotest.(check string) rules want
        (match gate rules with Ok _ -> "accepted" | Error e -> e))
    [
      ({|{"path":"a","le":"1"}|}, "bounds[0].le: not a finite number");
      ({|{"path":"a"}|}, "bounds[0].le: missing; a rule needs ge, le or lt");
      ({|{"path":"a[*","le":1}|}, {|bounds[0].path: bad segment "a[*"|});
      ({|{"path":"a//b","le":1}|}, {|bounds[0].path: bad segment ""|});
      ( {|{"path":"a[*]/x","minus":"b","le":1}|},
        "bounds[0].minus: has 0 [*], path has 1" );
      ({|{"path":"a","max":1}|}, "bounds[0].max: unknown key");
      ( {|{"path":"a","le":1,"at_least":-1}|},
        "bounds[0].at_least: not a non-negative integer" );
      ({|{"path":"a","le":1},3|}, "bounds[1]: not an object");
    ];
  Alcotest.(check string) "another schema"
    "schema: expected pc-bounds/1, got pc-obs/1"
    (match gate_of_text {|{"schema":"pc-obs/1","counters":{}}|} with
    | Ok _ -> "accepted"
    | Error e -> e)

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
          Alcotest.test_case "latest pair is like with like" `Quick
            test_latest_pair_like_with_like;
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
      ( "bounds",
        [
          Alcotest.test_case "verdict table" `Quick test_gate_verdict_table;
          Alcotest.test_case "corruption sweep" `Quick test_gate_corruption_sweep;
          Alcotest.test_case "language" `Quick test_bounds_language;
        ] );
      ( "aligner",
        [ QCheck_alcotest.to_alcotest ~long:false qcheck_span_aligner ] );
    ]
