(* Tests for Pc_util.Rng (determinism, ranges, distribution sanity)
   and Pc_util.Json (the artefact-schema parser). *)

module Rng = Pc_util.Rng
module Json = Pc_util.Json

let test_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  Alcotest.(check bool) "different seeds differ" false
    (Rng.bits64 a = Rng.bits64 b)

let test_copy_independent () =
  let a = Rng.create 7 in
  let _ = Rng.bits64 a in
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues the stream" (Rng.bits64 a) (Rng.bits64 b);
  (* advancing one does not advance the other *)
  let va = Rng.bits64 a in
  let vb = Rng.bits64 b in
  Alcotest.(check int64) "streams stay in lockstep from equal states" va vb

let test_int_range () =
  let t = Rng.create 3 in
  for _ = 1 to 10_000 do
    let v = Rng.int t 17 in
    if v < 0 || v >= 17 then Alcotest.fail "Rng.int out of range"
  done

let test_int_rejects_nonpositive () =
  let t = Rng.create 3 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int t 0))

let test_float_range () =
  let t = Rng.create 4 in
  for _ = 1 to 10_000 do
    let v = Rng.float t 2.5 in
    if v < 0.0 || v >= 2.5 then Alcotest.fail "Rng.float out of range"
  done

let test_int_uniformish () =
  let t = Rng.create 5 in
  let buckets = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let v = Rng.int t 10 in
    buckets.(v) <- buckets.(v) + 1
  done;
  Array.iter
    (fun c ->
      let frac = float_of_int c /. float_of_int n in
      if frac < 0.08 || frac > 0.12 then
        Alcotest.failf "bucket fraction %f too far from 0.1" frac)
    buckets

let test_sample_cdf () =
  let t = Rng.create 6 in
  let cdf = [| 0.25; 0.5; 1.0 |] in
  let counts = Array.make 3 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let i = Rng.sample_cdf t cdf in
    counts.(i) <- counts.(i) + 1
  done;
  let frac i = float_of_int counts.(i) /. float_of_int n in
  Alcotest.(check bool) "bucket 0 ~ 0.25" true (abs_float (frac 0 -. 0.25) < 0.02);
  Alcotest.(check bool) "bucket 1 ~ 0.25" true (abs_float (frac 1 -. 0.25) < 0.02);
  Alcotest.(check bool) "bucket 2 ~ 0.5" true (abs_float (frac 2 -. 0.5) < 0.02)

let test_sample_cdf_degenerate () =
  let t = Rng.create 8 in
  (* A leading zero-probability bucket must never be sampled. *)
  let cdf = [| 0.0; 1.0 |] in
  for _ = 1 to 1000 do
    let i = Rng.sample_cdf t cdf in
    if i = 0 then Alcotest.fail "sampled a zero-probability bucket"
  done

let test_sample_cdf_unnormalised () =
  (* Float accumulation often leaves the final CDF entry below 1.0; the
     last bucket must not absorb the missing mass. *)
  let t = Rng.create 11 in
  let cdf = [| 0.3; 0.6; 0.9 |] in
  let counts = Array.make 3 0 in
  let n = 90_000 in
  for _ = 1 to n do
    let i = Rng.sample_cdf t cdf in
    counts.(i) <- counts.(i) + 1
  done;
  Array.iteri
    (fun i c ->
      let frac = float_of_int c /. float_of_int n in
      if abs_float (frac -. (1.0 /. 3.0)) > 0.02 then
        Alcotest.failf "bucket %d fraction %f too far from 1/3" i frac)
    counts

let test_sample_cdf_overfull () =
  (* A CDF that accumulated slightly past 1.0 must keep the last bucket
     reachable instead of under-weighting everything else. *)
  let t = Rng.create 12 in
  let cdf = [| 0.5; 1.0 +. 1e-12 |] in
  let seen_last = ref false in
  for _ = 1 to 1000 do
    if Rng.sample_cdf t cdf = 1 then seen_last := true
  done;
  Alcotest.(check bool) "last bucket reachable" true !seen_last

let test_sample_cdf_all_zero () =
  let t = Rng.create 13 in
  Alcotest.(check bool) "all-zero cdf rejected" true
    (match Rng.sample_cdf t [| 0.0; 0.0; 0.0 |] with
    | _ -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "empty cdf rejected" true
    (match Rng.sample_cdf t [||] with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_int_large_bound_range () =
  let t = Rng.create 14 in
  let bound = (1 lsl 62) - 7 in
  for _ = 1 to 10_000 do
    let v = Rng.int t bound in
    if v < 0 || v >= bound then Alcotest.fail "Rng.int out of range for huge bound"
  done

let test_int_large_bound_unbiased () =
  (* bound = 3 * 2^60: with [v mod bound] over 62 bits the low third of
     the range is drawn twice as often, dragging the mean ~17% low.
     Rejection sampling keeps the mean at bound/2. *)
  let t = Rng.create 15 in
  let bound = 3 * (1 lsl 60) in
  let n = 100_000 in
  let acc = ref 0.0 in
  for _ = 1 to n do
    acc := !acc +. float_of_int (Rng.int t bound)
  done;
  let mean = !acc /. float_of_int n in
  let expected = float_of_int bound /. 2.0 in
  if abs_float (mean -. expected) /. expected > 0.02 then
    Alcotest.failf "large-bound mean %e too far from %e" mean expected

let test_int_small_bound_stream_unchanged () =
  (* The rejection path must not disturb the draws existing seeded
     pipelines make: below the threshold, Rng.int consumes exactly one
     64-bit draw and returns the 62-bit value mod bound. *)
  let a = Rng.create 16 and b = Rng.create 16 in
  for _ = 1 to 1000 do
    let v = Rng.int a 1024 in
    let raw = Int64.to_int (Int64.shift_right_logical (Rng.bits64 b) 2) in
    Alcotest.(check int) "one draw, mod bound" (raw mod 1024) v
  done

let test_shuffle_permutation () =
  let t = Rng.create 9 in
  let a = Array.init 50 (fun i -> i) in
  Rng.shuffle t a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "shuffle preserves elements"
    (Array.init 50 (fun i -> i))
    sorted

let test_pick_covers () =
  let t = Rng.create 10 in
  let seen = Array.make 4 false in
  for _ = 1 to 1000 do
    seen.(Rng.pick t [| 0; 1; 2; 3 |]) <- true
  done;
  Alcotest.(check (array bool)) "all elements reachable" [| true; true; true; true |] seen

(* --- Json --- *)

let json_roundtrip_src =
  {|{"schema":"pc-example/1","results":[{"name":"a \"b\"","ms_per_run":1.25},{"name":"c","ms_per_run":null}],"n":-3,"ok":true,"empty":{},"none":[]}|}

let test_json_roundtrip () =
  match Json.parse json_roundtrip_src with
  | Error msg -> Alcotest.failf "parse failed: %s" msg
  | Ok doc ->
    Alcotest.(check (option string)) "schema" (Some "pc-example/1")
      (Option.bind (Json.member "schema" doc) Json.to_string);
    Alcotest.(check (option int)) "negative int" (Some (-3))
      (Option.bind (Json.member "n" doc) Json.to_int);
    Alcotest.(check bool) "bool field" true (Json.member "ok" doc = Some (Json.Bool true));
    Alcotest.(check bool) "empty containers" true
      (Json.member "empty" doc = Some (Json.Obj [])
      && Json.member "none" doc = Some (Json.List []));
    let rows =
      Option.bind (Json.member "results" doc) Json.to_list |> Option.get
    in
    Alcotest.(check int) "two rows" 2 (List.length rows);
    let first = List.hd rows in
    Alcotest.(check (option string)) "escaped name" (Some {|a "b"|})
      (Option.bind (Json.member "name" first) Json.to_string);
    Alcotest.(check bool) "float field" true
      (Option.bind (Json.member "ms_per_run" first) Json.to_float = Some 1.25);
    Alcotest.(check bool) "null field" true
      (Json.member "ms_per_run" (List.nth rows 1) = Some Json.Null)

let test_json_rejects_malformed () =
  List.iter
    (fun src ->
      match Json.parse src with
      | Ok _ -> Alcotest.failf "accepted malformed input %S" src
      | Error _ -> ())
    [ "{"; "[1,]"; "{\"a\":}"; "\"unterminated"; "1 2"; ""; "{\"a\" 1}"; "nul" ]

let own_snapshot =
  {
    Pc_obs.Metrics.counters = [ ("a.b", 3) ];
    gauges = [ ("g", 12) ];
    histograms =
      [
        ( "h",
          {
            Pc_obs.Metrics.count = 2;
            sum = 0.5;
            le = [| 0.1; 1.0 |];
            bucket_counts = [| 1; 1; 0 |];
          } );
      ];
  }

let test_json_parses_own_artefacts () =
  (* The parser must accept what the repo's own writers emit. *)
  let snap = own_snapshot in
  let path = Filename.temp_file "pc_obs" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Pc_obs.Sink.write_json path snap [];
      match Json.parse_file path with
      | Error msg -> Alcotest.failf "pc-obs/1 artefact rejected: %s" msg
      | Ok doc ->
        Alcotest.(check (option string)) "schema" (Some "pc-obs/1")
          (Option.bind (Json.member "schema" doc) Json.to_string);
        Alcotest.(check (option int)) "counter" (Some 3)
          (Option.bind
             (Option.bind (Json.member "counters" doc) (Json.member "a.b"))
             Json.to_int))

(* RFC 8259 numbers only: a printer that copies literals out verbatim
   must never be handed one that is not JSON. *)
let test_json_strict_numbers () =
  List.iter
    (fun lit ->
      match Json.parse lit with
      | Ok (Json.Num l) ->
        Alcotest.(check string) ("literal kept: " ^ lit) lit l;
        Alcotest.(check string) ("re-printed: " ^ lit) lit
          (Json.encode (Json.Num l))
      | Ok _ -> Alcotest.failf "%s parsed as a non-number" lit
      | Error e -> Alcotest.failf "rejected valid number %s: %s" lit e)
    [
      "0"; "-0"; "7"; "-12"; "1E5"; "1e+20"; "1.5e-07"; "0.000000";
      "2000000000";
    ];
  List.iter
    (fun (src, byte) ->
      match Json.parse src with
      | Ok _ -> Alcotest.failf "accepted invalid number %S" src
      | Error e ->
        let at = Printf.sprintf "at byte %d:" byte in
        let n = String.length at in
        let rec names i =
          i + n <= String.length e && (String.sub e i n = at || names (i + 1))
        in
        if not (names 0) then Alcotest.failf "%S: %S does not say %s" src e at)
    [
      (".5", 0); ("1.", 2); ("+1", 0); ("-.5", 1); ("01", 1); ("-", 1);
      ("1e", 2); ("1e+", 3); ("-01", 2); ("NaN", 0); ("Infinity", 0);
      ("[1,-inf]", 4); ("{\"a\":.5}", 5);
    ]

(* Every leaf the writers can produce: strings over all 256 bytes and
   numbers from the three constructors, non-finite floats included. *)
let gen_json =
  let open QCheck.Gen in
  let number =
    frequency
      [
        (6, float);
        (1, oneofl [ Float.nan; Float.infinity; Float.neg_infinity; -0.0 ]);
      ]
  in
  let leaf =
    oneof
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun s -> Json.Str s) (string_size ~gen:char (int_bound 12));
        map Json.int int;
        map2 Json.fixed (int_bound 9) number;
        map Json.float number;
      ]
  in
  sized
  @@ fix (fun self n ->
         if n <= 0 then leaf
         else
           frequency
             [
               (2, leaf);
               ( 1,
                 map (fun l -> Json.List l) (list_size (int_bound 4) (self (n / 2)))
               );
               ( 1,
                 map
                   (fun l -> Json.Obj l)
                   (list_size (int_bound 4)
                      (pair (string_size ~gen:char (int_bound 6)) (self (n / 2)))) );
             ])

let qcheck_json_print_parse =
  QCheck.Test.make ~name:"parse (encode v) = Ok v" ~count:500
    (QCheck.make ~print:Json.encode gen_json)
    (fun v -> Json.parse (Json.encode v) = Ok v)

(* Documents shaped like the repo's artefacts, for the corruption sweep. *)
let golden_docs () =
  [
    json_roundtrip_src;
    Pc_obs.Sink.json own_snapshot [];
    {|{"traceEvents":[{"ph":"i","pid":1,"tid":0,"ts":12.500,"cat":"pc","name":"m\"k","s":"t","args":{"i":2000000000,"f":1.5e-07,"z":-0}}],"displayTimeUnit":"ms","otherData":{"schema":"pc-trace/1"}}|};
  ]

let test_json_corruption_never_raises () =
  let parse_total src =
    match Json.parse src with
    | Ok _ | Error _ -> ()
    | exception e ->
      Alcotest.failf "parse raised %s on %S" (Printexc.to_string e) src
  in
  List.iter
    (fun doc ->
      let n = String.length doc in
      for i = 0 to n do
        parse_total (String.sub doc 0 i)
      done;
      for i = 0 to n - 1 do
        for c = 0 to 255 do
          let b = Bytes.of_string doc in
          Bytes.set b i (Char.chr c);
          parse_total (Bytes.to_string b)
        done
      done)
    (golden_docs ())

let qcheck_split_streams_differ =
  QCheck.Test.make ~name:"split produces a distinct stream" ~count:100
    QCheck.small_nat (fun seed ->
      let a = Pc_util.Rng.create seed in
      let b = Pc_util.Rng.split a in
      Pc_util.Rng.bits64 a <> Pc_util.Rng.bits64 b)

let () =
  Alcotest.run "pc_util"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
          Alcotest.test_case "copy independence" `Quick test_copy_independent;
          Alcotest.test_case "int range" `Quick test_int_range;
          Alcotest.test_case "int rejects non-positive bound" `Quick
            test_int_rejects_nonpositive;
          Alcotest.test_case "float range" `Quick test_float_range;
          Alcotest.test_case "int roughly uniform" `Quick test_int_uniformish;
          Alcotest.test_case "sample_cdf matches probabilities" `Quick test_sample_cdf;
          Alcotest.test_case "sample_cdf skips empty buckets" `Quick
            test_sample_cdf_degenerate;
          Alcotest.test_case "sample_cdf normalises a short cdf" `Quick
            test_sample_cdf_unnormalised;
          Alcotest.test_case "sample_cdf keeps an overfull cdf's last bucket"
            `Quick test_sample_cdf_overfull;
          Alcotest.test_case "sample_cdf rejects zero-mass cdfs" `Quick
            test_sample_cdf_all_zero;
          Alcotest.test_case "int range for huge bounds" `Quick
            test_int_large_bound_range;
          Alcotest.test_case "int unbiased for huge bounds" `Quick
            test_int_large_bound_unbiased;
          Alcotest.test_case "int stream unchanged below threshold" `Quick
            test_int_small_bound_stream_unchanged;
          Alcotest.test_case "shuffle is a permutation" `Quick test_shuffle_permutation;
          Alcotest.test_case "pick covers all elements" `Quick test_pick_covers;
          QCheck_alcotest.to_alcotest qcheck_split_streams_differ;
        ] );
      ( "json",
        [
          Alcotest.test_case "roundtrip accessors" `Quick test_json_roundtrip;
          Alcotest.test_case "rejects malformed input" `Quick
            test_json_rejects_malformed;
          Alcotest.test_case "parses the repo's own artefacts" `Quick
            test_json_parses_own_artefacts;
          Alcotest.test_case "strict number grammar" `Quick
            test_json_strict_numbers;
          QCheck_alcotest.to_alcotest qcheck_json_print_parse;
          Alcotest.test_case "corrupted documents never raise" `Quick
            test_json_corruption_never_raises;
        ] );
    ]
