(* pc_obs: metrics registry, spans, sinks — and the invariant that
   enabling observability never changes experiment output.

   The registry and the enabled flag are global, so every test that
   flips [set_enabled] or calls [reset] restores the disabled default
   before returning. *)

module M = Pc_obs.Metrics
module Span = Pc_obs.Span
module Sink = Pc_obs.Sink
module Pool = Pc_exec.Pool
module E = Perfclone.Experiments

let with_enabled f =
  M.set_enabled true;
  Fun.protect ~finally:(fun () -> M.set_enabled false) f

(* --- metrics registry --- *)

let test_counter () =
  let c = M.counter "obs.test.counter" in
  let v0 = M.value c in
  M.incr c;
  M.add c 41;
  Alcotest.(check int) "incr + add" (v0 + 42) (M.value c)

let test_same_name_same_instrument () =
  let a = M.counter "obs.test.shared" in
  let b = M.counter "obs.test.shared" in
  let v0 = M.value a in
  M.incr a;
  M.incr b;
  Alcotest.(check int) "both handles hit one series" (v0 + 2) (M.value b)

let test_kind_mismatch () =
  ignore (M.counter "obs.test.kind");
  match M.gauge "obs.test.kind" with
  | _ -> Alcotest.fail "expected Invalid_argument for kind mismatch"
  | exception Invalid_argument _ -> ()

let test_gauge () =
  let g = M.gauge "obs.test.gauge" in
  M.set g 7;
  Alcotest.(check int) "set" 7 (M.gauge_value g);
  M.record_max g 3;
  Alcotest.(check int) "record_max keeps larger" 7 (M.gauge_value g);
  M.record_max g 11;
  Alcotest.(check int) "record_max takes larger" 11 (M.gauge_value g)

let hist_view name snap =
  match List.assoc_opt name snap.M.histograms with
  | Some v -> v
  | None -> Alcotest.failf "histogram %s missing from snapshot" name

let test_histogram () =
  let h = M.histogram ~buckets:[| 1.0; 2.0 |] "obs.test.hist" in
  M.observe h 0.5;
  M.observe h 1.5;
  M.observe h 99.0;
  let v = hist_view "obs.test.hist" (M.snapshot ()) in
  Alcotest.(check (array (float 1e-9))) "bounds" [| 1.0; 2.0 |] v.M.le;
  Alcotest.(check (array int)) "bucket counts (last = overflow)"
    [| 1; 1; 1 |] v.M.bucket_counts;
  Alcotest.(check int) "count" 3 v.M.count;
  Alcotest.(check (float 1e-9)) "sum" 101.0 v.M.sum

let test_histogram_bad_buckets () =
  match M.histogram ~buckets:[| 2.0; 1.0 |] "obs.test.hist.bad" with
  | _ -> Alcotest.fail "expected Invalid_argument for non-increasing buckets"
  | exception Invalid_argument _ -> ()

let test_snapshot_sorted_and_diff () =
  let cb = M.counter "obs.test.diff.b" in
  let ca = M.counter "obs.test.diff.a" in
  let g = M.gauge "obs.test.diff.g" in
  M.incr ca;
  let before = M.snapshot () in
  let names = List.map fst before.M.counters in
  Alcotest.(check (list string)) "counter names sorted"
    (List.sort compare names) names;
  M.add ca 4;
  M.add cb 2;
  M.set g 9;
  let after = M.snapshot () in
  let d = M.diff ~before ~after in
  Alcotest.(check (option int)) "counter delta" (Some 4)
    (List.assoc_opt "obs.test.diff.a" d.M.counters);
  Alcotest.(check (option int)) "other counter delta" (Some 2)
    (List.assoc_opt "obs.test.diff.b" d.M.counters);
  Alcotest.(check (option int)) "gauge keeps after value" (Some 9)
    (List.assoc_opt "obs.test.diff.g" d.M.gauges)

let test_diff_after_only_instruments () =
  (* Instruments created between the snapshots (e.g. by a lazily-built
     sample store) have no [before] entry; the diff must keep their
     [after] value instead of dropping or misattributing them. *)
  let before = { M.counters = []; gauges = []; histograms = [] } in
  let hv =
    { M.le = [| 1.0 |]; bucket_counts = [| 2; 1 |]; count = 3; sum = 4.5 }
  in
  let after =
    {
      M.counters = [ ("late.counter", 7) ];
      gauges = [ ("late.gauge", 3) ];
      histograms = [ ("late.hist", hv) ];
    }
  in
  let d = M.diff ~before ~after in
  Alcotest.(check (option int)) "after-only counter kept" (Some 7)
    (List.assoc_opt "late.counter" d.M.counters);
  Alcotest.(check (option int)) "after-only gauge kept" (Some 3)
    (List.assoc_opt "late.gauge" d.M.gauges);
  let v = hist_view "late.hist" d in
  Alcotest.(check (array int)) "after-only histogram counts kept"
    [| 2; 1 |] v.M.bucket_counts;
  Alcotest.(check int) "after-only histogram count kept" 3 v.M.count;
  Alcotest.(check (float 1e-9)) "after-only histogram sum kept" 4.5 v.M.sum

let test_diff_mismatched_histogram_layout () =
  (* A histogram re-registered with a different bucket layout between
     snapshots must not be subtracted across layouts (which would raise
     or silently misattribute counts); the [after] view wins. *)
  let b =
    { M.le = [| 1.0; 2.0; 3.0 |]; bucket_counts = [| 1; 1; 1; 1 |];
      count = 4; sum = 6.0 }
  in
  let a =
    { M.le = [| 5.0 |]; bucket_counts = [| 2; 3 |]; count = 5; sum = 9.0 }
  in
  let mk hv = { M.counters = []; gauges = []; histograms = [ ("h", hv) ] } in
  let d = M.diff ~before:(mk b) ~after:(mk a) in
  let v = hist_view "h" d in
  Alcotest.(check (array (float 1e-9))) "after layout" [| 5.0 |] v.M.le;
  Alcotest.(check (array int)) "after counts" [| 2; 3 |] v.M.bucket_counts;
  Alcotest.(check int) "after count" 5 v.M.count;
  Alcotest.(check (float 1e-9)) "after sum" 9.0 v.M.sum

let test_reset () =
  let c = M.counter "obs.test.reset" in
  M.add c 5;
  M.reset ();
  Alcotest.(check int) "zeroed" 0 (M.value c);
  let still_registered =
    List.mem_assoc "obs.test.reset" (M.snapshot ()).M.counters
  in
  Alcotest.(check bool) "registration survives" true still_registered

(* --- concurrency: no lost counts across pool domains --- *)

let test_no_lost_counts =
  QCheck.Test.make ~name:"concurrent increments lose no counts" ~count:20
    QCheck.(pair (int_range 1 8) (int_range 1 500))
    (fun (tasks, per_task) ->
      let c = M.counter "obs.test.concurrent" in
      let before = M.value c in
      let pool = Pool.create ~num_domains:4 in
      ignore
        (Pool.map pool
           (fun _ ->
             for _ = 1 to per_task do
               M.incr c
             done)
           (List.init tasks Fun.id));
      M.value c - before = tasks * per_task)

(* --- spans --- *)

let test_span_disabled_records_nothing () =
  Span.reset ();
  let v = Span.with_ "ghost" (fun () -> 5) in
  Alcotest.(check int) "value passes through" 5 v;
  Alcotest.(check int) "no roots recorded" 0 (List.length (Span.roots ()))

let test_span_nesting () =
  with_enabled @@ fun () ->
  Fun.protect ~finally:Span.reset @@ fun () ->
  Span.reset ();
  let v =
    Span.with_ "outer" (fun () ->
        ignore (Span.with_ "inner1" (fun () -> 1));
        ignore (Span.with_ "inner2" (fun () -> 2));
        42)
  in
  Alcotest.(check int) "value passes through" 42 v;
  match Span.roots () with
  | [ root ] ->
    Alcotest.(check string) "root name" "outer" (Span.name root);
    Alcotest.(check (list string)) "children in completion order"
      [ "inner1"; "inner2" ]
      (List.map Span.name (Span.children root));
    List.iter
      (fun s ->
        if Span.duration_s s < 0.0 then
          Alcotest.failf "negative duration for %s" (Span.name s))
      (root :: Span.children root)
  | l -> Alcotest.failf "expected one root, got %d" (List.length l)

let test_span_pool_adoption () =
  with_enabled @@ fun () ->
  Fun.protect ~finally:Span.reset @@ fun () ->
  Span.reset ();
  let pool = Pool.create ~num_domains:4 in
  ignore
    (Span.with_ "parent" (fun () ->
         Pool.map pool
           (fun i -> Span.with_ (Printf.sprintf "task%d" i) (fun () -> i * i))
           [ 1; 2; 3; 4 ]));
  match Span.roots () with
  | [ root ] ->
    Alcotest.(check string) "root name" "parent" (Span.name root);
    (* Sibling completion order is nondeterministic under a pool; only
       the set of children is specified. *)
    Alcotest.(check (list string)) "pool tasks attribute to the open span"
      [ "task1"; "task2"; "task3"; "task4" ]
      (List.sort compare (List.map Span.name (Span.children root)))
  | l -> Alcotest.failf "expected one root, got %d" (List.length l)

let test_hist_quantile () =
  (* 10 observations in [|1;2;4|]-bounded buckets: 5 in (0,1], 4 in
     (1,2], 1 overflow.  p50 = rank 5 → upper edge of the first bucket;
     p90 = rank 9 → exhausts (1,2]; p99 lands in the overflow bucket and
     clamps to the last finite bound. *)
  let v =
    { M.le = [| 1.0; 2.0; 4.0 |]; bucket_counts = [| 5; 4; 0; 1 |];
      count = 10; sum = 0.0 }
  in
  Alcotest.(check (float 1e-9)) "p50" 1.0 (M.hist_quantile v 0.5);
  Alcotest.(check (float 1e-9)) "p90" 2.0 (M.hist_quantile v 0.9);
  Alcotest.(check (float 1e-9)) "p99 clamps to last bound" 4.0
    (M.hist_quantile v 0.99);
  Alcotest.(check (float 1e-9)) "interpolates inside a bucket" 0.5
    (M.hist_quantile v 0.25);
  let empty =
    { M.le = [| 1.0 |]; bucket_counts = [| 0; 0 |]; count = 0; sum = 0.0 }
  in
  Alcotest.(check (float 1e-9)) "empty histogram reports 0" 0.0
    (M.hist_quantile empty 0.5)

(* --- sinks --- *)

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let check_contains json needle =
  if not (contains ~needle json) then
    Alcotest.failf "JSON missing %s in: %s" needle json

let test_json_sink () =
  M.add (M.counter "obs.test.json.c") 7;
  M.set (M.gauge "obs.test.json.g") 3;
  M.observe (M.histogram ~buckets:[| 0.5 |] "obs.test.json.h") 1.5;
  let spans =
    with_enabled (fun () ->
        Span.reset ();
        ignore (Span.with_ "sink-span" (fun () -> ()));
        Fun.protect ~finally:Span.reset Span.roots)
  in
  let json = Sink.json (M.snapshot ()) spans in
  List.iter (check_contains json)
    [
      "\"schema\":\"pc-obs/1\"";
      "\"obs.test.json.c\":7";
      "\"obs.test.json.g\":3";
      "\"obs.test.json.h\":{\"count\":1";
      "{\"le\":\"inf\",\"count\":1}";
      "\"name\":\"sink-span\"";
      "\"children\":[]";
    ]

let test_json_string_escaping () =
  let json_string s = Pc_util.Json.encode (Pc_util.Json.Str s) in
  Alcotest.(check string) "plain" {|"abc"|} (json_string "abc");
  Alcotest.(check string) "quote" {|"a\"b"|} (json_string {|a"b|});
  Alcotest.(check string) "backslash" {|"a\\b"|} (json_string {|a\b|});
  Alcotest.(check string) "newline and tab" {|"a\nb\tc"|}
    (json_string "a\nb\tc");
  Alcotest.(check string) "control char" {|"a\u0001b"|}
    (json_string "a\001b");
  (* Round-trip through the repo's own parser: escaping and parsing must
     agree, or artefact names with quotes corrupt pc-obs/1 reports. *)
  let nasty = "sp\"an\\na\nme\001" in
  match Pc_util.Json.parse (json_string nasty) with
  | Ok (Pc_util.Json.Str s) ->
    Alcotest.(check string) "parse round-trip" nasty s
  | Ok _ -> Alcotest.fail "escaped string parsed as non-string"
  | Error msg -> Alcotest.failf "escaped string failed to parse: %s" msg

let test_json_non_finite_floats () =
  (* A histogram that observed a non-finite value must serialise its sum
     as null (JSON has no NaN/Infinity), and the document must still
     parse. *)
  let h = M.histogram ~buckets:[| 1.0 |] "obs.test.json.nonfinite" in
  M.observe h Float.infinity;
  let json = Sink.json (M.snapshot ()) [] in
  check_contains json "\"sum\":null";
  (match Pc_util.Json.parse json with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "report with null sum failed to parse: %s" msg);
  M.reset ()

let test_json_sink_quantiles () =
  let h = M.histogram ~buckets:[| 1.0; 2.0 |] "obs.test.json.quant" in
  for _ = 1 to 9 do M.observe h 0.5 done;
  M.observe h 1.5;
  let json = Sink.json (M.snapshot ()) [] in
  List.iter (check_contains json) [ "\"p50\":"; "\"p95\":"; "\"p99\":" ];
  M.reset ()

(* Byte pin for pc-obs/1: a hand-built snapshot (no spans, so no
   timing) covering integral and non-integral floats, a bound past the
   [%.1f] range, an infinite sum and the overflow bucket. *)
let test_json_golden () =
  let snap =
    {
      M.counters = [ ("a.count", 7); ("b\"q", 1_000_000_000_000) ];
      gauges = [ ("g", -3) ];
      histograms =
        [
          ( "h",
            {
              M.le = [| 0.1; 2.0; 1e15 |];
              bucket_counts = [| 1; 2; 0; 1 |];
              count = 4;
              sum = Float.infinity;
            } );
        ];
    }
  in
  Alcotest.(check string) "pc-obs/1 bytes"
    "{\"schema\":\"pc-obs/1\",\"counters\":{\"a.count\":7,\"b\\\"q\":1000000000000},\"gauges\":{\"g\":-3},\"histograms\":{\"h\":{\"count\":4,\"sum\":null,\"p50\":1.05,\"p95\":1e+15,\"p99\":1e+15,\"buckets\":[{\"le\":0.1,\"count\":1},{\"le\":2.0,\"count\":2},{\"le\":1e+15,\"count\":0},{\"le\":\"inf\",\"count\":1}]}},\"spans\":[]}"
    (Sink.json snap [])

let test_write_json () =
  let path = Filename.temp_file "pc_obs_test" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Sink.write_json path (M.snapshot ()) [];
  let ic = open_in_bin path in
  let contents =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  check_contains contents "\"schema\":\"pc-obs/1\"";
  Alcotest.(check bool) "trailing newline" true
    (String.length contents > 0 && contents.[String.length contents - 1] = '\n')

(* --- baseline gating --- *)

let json_exn src =
  match Pc_util.Json.parse src with
  | Ok doc -> doc
  | Error msg -> Alcotest.failf "test fixture failed to parse: %s" msg

let test_baseline_metrics_gate () =
  let baseline =
    json_exn
      {|{"schema":"pc-obs/1","counters":{"a":10,"b":20},"gauges":{"g":5},"histograms":{"h":{"count":1,"sum":0.5,"buckets":[]}}}|}
  in
  Alcotest.(check (list string)) "identical reports pass" []
    (Pc_obs.Baseline.check_metrics ~baseline ~current:baseline);
  let drifted =
    json_exn
      {|{"schema":"pc-obs/1","counters":{"a":11,"b":20},"gauges":{"g":5},"histograms":{}}|}
  in
  Alcotest.(check int) "counter drift is one issue" 1
    (List.length (Pc_obs.Baseline.check_metrics ~baseline ~current:drifted));
  (* Histograms are timing (duration buckets) — never compared. *)
  let new_instrument =
    json_exn
      {|{"schema":"pc-obs/1","counters":{"a":10,"b":20,"c":1},"gauges":{"g":5},"histograms":{}}|}
  in
  (match Pc_obs.Baseline.check_metrics ~baseline ~current:new_instrument with
  | [ issue ] ->
    Alcotest.(check bool) "new instrument asks for regeneration" true
      (String.length issue > 0
      && String.sub issue 0 9 = "counter c")
  | issues -> Alcotest.failf "expected one issue, got %d" (List.length issues));
  let missing =
    json_exn {|{"schema":"pc-obs/1","counters":{"a":10},"gauges":{},"histograms":{}}|}
  in
  Alcotest.(check int) "missing counter and gauge reported" 2
    (List.length (Pc_obs.Baseline.check_metrics ~baseline ~current:missing));
  let wrong_schema =
    json_exn {|{"schema":"pc-obs/2","counters":{"a":10,"b":20},"gauges":{"g":5}}|}
  in
  Alcotest.(check bool) "schema mismatch reported" true
    (Pc_obs.Baseline.check_metrics ~baseline ~current:wrong_schema <> [])

(* --- span trees under store-memoised pool tasks --- *)

let test_cached_task_emits_no_spans () =
  (* A pool task whose value is memoised in a Store must not replay the
     compute's span tree on a warm hit: the work did not happen again,
     so the timeline must not claim it did. *)
  with_enabled @@ fun () ->
  Fun.protect ~finally:Span.reset @@ fun () ->
  Span.reset ();
  let store = Pc_exec.Store.create ~name:"obs.test.memo" () in
  let keys = [ "k1"; "k2"; "k3" ] in
  let compute k =
    Pc_exec.Store.find_or_compute store k (fun () ->
        Span.with_ ("compute:" ^ k) (fun () -> String.length k))
  in
  (* Cold serial pass: every key computes under its span exactly once. *)
  ignore (Span.with_ "cold" (fun () -> Pool.map Pool.serial compute keys));
  (* Warm parallel pass: all hits — no compute spans may (re)appear. *)
  ignore
    (Span.with_ "warm" (fun () ->
         Pool.map (Pool.create ~num_domains:4) compute keys));
  let roots = Span.roots () in
  let tree_names root =
    let rec go acc s = List.fold_left go (Span.name s :: acc) (Span.children s) in
    go [] root
  in
  let find name =
    match List.find_opt (fun r -> Span.name r = name) roots with
    | Some r -> r
    | None -> Alcotest.failf "missing %S root" name
  in
  Alcotest.(check (list string)) "cold pass computes each key once"
    [ "cold"; "compute:k1"; "compute:k2"; "compute:k3" ]
    (List.sort compare (tree_names (find "cold")));
  Alcotest.(check (list string)) "warm pass emits no compute spans"
    [ "warm" ]
    (tree_names (find "warm"))

(* --- the invariant: observability never changes experiment output --- *)

let test_fig6_byte_identity () =
  let settings =
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
  in
  let render () =
    E.clear_caches ();
    let ps = E.prepare settings in
    Format.asprintf "%a" E.pp_fig6 (E.base_runs settings ps)
  in
  let off = render () in
  let on_ =
    with_enabled (fun () -> Fun.protect ~finally:Span.reset render)
  in
  Alcotest.(check string) "fig6 byte-identical with observability on" off on_

let () =
  Alcotest.run "pc_obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "counter" `Quick test_counter;
          Alcotest.test_case "shared name" `Quick test_same_name_same_instrument;
          Alcotest.test_case "kind mismatch" `Quick test_kind_mismatch;
          Alcotest.test_case "gauge" `Quick test_gauge;
          Alcotest.test_case "histogram" `Quick test_histogram;
          Alcotest.test_case "bad buckets" `Quick test_histogram_bad_buckets;
          Alcotest.test_case "snapshot + diff" `Quick test_snapshot_sorted_and_diff;
          Alcotest.test_case "diff keeps after-only instruments" `Quick
            test_diff_after_only_instruments;
          Alcotest.test_case "diff survives a histogram layout change" `Quick
            test_diff_mismatched_histogram_layout;
          Alcotest.test_case "reset" `Quick test_reset;
          Alcotest.test_case "hist_quantile" `Quick test_hist_quantile;
        ] );
      ( "concurrency",
        [ QCheck_alcotest.to_alcotest ~long:false test_no_lost_counts ] );
      ( "spans",
        [
          Alcotest.test_case "disabled records nothing" `Quick
            test_span_disabled_records_nothing;
          Alcotest.test_case "nesting" `Quick test_span_nesting;
          Alcotest.test_case "pool adoption" `Quick test_span_pool_adoption;
          Alcotest.test_case "cached store task emits no spans" `Quick
            test_cached_task_emits_no_spans;
        ] );
      ( "sinks",
        [
          Alcotest.test_case "json schema" `Quick test_json_sink;
          Alcotest.test_case "json string escaping" `Quick
            test_json_string_escaping;
          Alcotest.test_case "non-finite floats serialise as null" `Quick
            test_json_non_finite_floats;
          Alcotest.test_case "histogram quantiles in json" `Quick
            test_json_sink_quantiles;
          Alcotest.test_case "write_json" `Quick test_write_json;
          Alcotest.test_case "golden bytes" `Quick test_json_golden;
        ] );
      ( "baselines",
        [
          Alcotest.test_case "metrics gate" `Quick test_baseline_metrics_gate;
        ] );
      ( "invariant",
        [
          Alcotest.test_case "fig6 byte-identity" `Slow test_fig6_byte_identity;
        ] );
    ]
