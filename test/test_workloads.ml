(* Validation of the 23 workload kernels: every benchmark type-checks,
   compiles, halts, and produces the same checksum under the reference
   interpreter and the compiled SRISC binary; dynamic sizes stay inside
   the range the experiments assume. *)

module Registry = Pc_workloads.Registry
module Interp = Kc_interp
module Machine = Pc_funcsim.Machine

let interp_cache : (string, int64) Hashtbl.t = Hashtbl.create 32

let interp_checksum (e : Registry.entry) =
  match Hashtbl.find_opt interp_cache e.Registry.name with
  | Some v -> v
  | None ->
    let v = (Interp.run ~max_steps:20_000_000 e.Registry.prog).Interp.return_value in
    Hashtbl.add interp_cache e.Registry.name v;
    v

let run_compiled (e : Registry.entry) =
  let program = Registry.compile e in
  let m = Machine.load program in
  let instrs = Machine.run ~max_instrs:20_000_000 m (fun _ -> ()) in
  (m, instrs)

let test_agreement (e : Registry.entry) () =
  let expected = interp_checksum e in
  let m, _ = run_compiled e in
  if not (Machine.halted m) then Alcotest.fail "did not halt within budget";
  Alcotest.(check int64)
    (e.Registry.name ^ " checksum") expected
    (Machine.ireg m Pc_isa.Reg.ret)

let test_dynamic_size (e : Registry.entry) () =
  let _, instrs = run_compiled e in
  if instrs < 20_000 then
    Alcotest.failf "%s too short: %d dynamic instructions" e.Registry.name instrs;
  if instrs > 5_000_000 then
    Alcotest.failf "%s too long: %d dynamic instructions" e.Registry.name instrs

(* Golden regression values: checksum and dynamic instruction count of
   every benchmark, pinned so that accidental changes to kernels, inputs,
   the compiler or the simulator are caught immediately. *)
let golden =
  [
    ("basicmath", 333581L, 107122);
    ("bitcount", 30702L, 841111);
    ("qsort", 251454288L, 556706);
    ("susan", 12204421L, 1710972);
    ("dijkstra", 42327L, 1128318);
    ("patricia", 629651L, 1113205);
    ("crc32", 1191043187L, 660784);
    ("blowfish", 819204600L, 591008);
    ("rijndael", 540308858L, 2173280);
    ("sha", 2121780129L, 337640);
    ("pegwit", 1714393541L, 206794);
    ("adpcm_enc", 56601080L, 666651);
    ("adpcm_dec", 4294947494L, 533457);
    ("gsm", 302394712L, 1097152);
    ("fft", 562300L, 163316);
    ("g721", 265352424L, 2293113);
    ("jpeg_enc", 10033298L, 1927462);
    ("jpeg_dec", 430903L, 1936134);
    ("mpeg_decode", 162311876L, 1467332);
    ("typeset", 470451L, 131712);
    ("mad", 142757L, 1060647);
    ("stringsearch", 101010100000000L, 763198);
    ("ispell", 5400360L, 448804);
  ]

let test_golden (name, checksum, instrs) () =
  let e = Registry.find name in
  let m, n = run_compiled e in
  Alcotest.(check int64) (name ^ " checksum") checksum (Machine.ireg m Pc_isa.Reg.ret);
  Alcotest.(check int) (name ^ " dynamic length") instrs n

let test_count_and_domains () =
  Alcotest.(check int) "23 benchmarks" 23 (List.length Registry.all);
  let expected_domains =
    [ "automotive"; "network"; "security"; "telecom"; "consumer"; "office" ]
  in
  Alcotest.(check (list string)) "domains" expected_domains (List.map fst Registry.domains);
  List.iter
    (fun (_, names) ->
      if names = [] then Alcotest.fail "empty domain")
    Registry.domains

let test_find () =
  let e = Registry.find "fft" in
  Alcotest.(check string) "find fft" "telecom" e.Registry.domain;
  Alcotest.(check bool) "unknown name" true
    (match Registry.find "nonesuch" with
    | _ -> false
    | exception Not_found -> true)

let test_unique_names () =
  let names = Registry.names in
  let sorted = List.sort_uniq compare names in
  Alcotest.(check int) "no duplicate names" (List.length names) (List.length sorted)

let test_compile_memoised () =
  let e = Registry.find "crc32" in
  let p1 = Registry.compile e and p2 = Registry.compile e in
  Alcotest.(check bool) "same compiled program" true (p1 == p2)

let () =
  let per_bench =
    List.concat_map
      (fun (e : Registry.entry) ->
        [
          Alcotest.test_case (e.Registry.name ^ " interp = compiled") `Slow
            (test_agreement e);
          Alcotest.test_case (e.Registry.name ^ " dynamic size") `Slow
            (test_dynamic_size e);
        ])
      Registry.all
  in
  Alcotest.run "pc_workloads"
    [
      ( "registry",
        [
          Alcotest.test_case "count and domains" `Quick test_count_and_domains;
          Alcotest.test_case "find" `Quick test_find;
          Alcotest.test_case "unique names" `Quick test_unique_names;
          Alcotest.test_case "compile memoised" `Quick test_compile_memoised;
        ] );
      ("benchmarks", per_bench);
      ( "golden",
        List.map
          (fun ((name, _, _) as g) ->
            Alcotest.test_case (name ^ " pinned") `Slow (test_golden g))
          golden );
    ]
