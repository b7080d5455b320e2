(* Tests for the Section-6 extensions: portable (Kc-source) clones and
   statistical simulation. *)

module Machine = Pc_funcsim.Machine
module Profile = Pc_profile.Profile
module Portable = Pc_synth.Portable
module Statsim = Pc_statsim.Statsim
module Sim = Pc_uarch.Sim
module Config = Pc_uarch.Config

let profile_cache : (string, Profile.t) Hashtbl.t = Hashtbl.create 8

let profile name =
  match Hashtbl.find_opt profile_cache name with
  | Some p -> p
  | None ->
    let entry = Pc_workloads.Registry.find name in
    let p =
      Pc_profile.Collector.profile ~max_instrs:300_000
        (Pc_workloads.Registry.compile entry)
    in
    Hashtbl.add profile_cache name p;
    p

(* --- portable clones --- *)

let test_portable_typechecks () =
  List.iter
    (fun name ->
      let prog = Portable.generate (profile name) in
      match Pc_kc.Check.check prog with
      | () -> ()
      | exception Pc_kc.Check.Error msg ->
        Alcotest.failf "%s portable clone ill-typed: %s" name msg)
    [ "crc32"; "sha"; "fft"; "dijkstra" ]

let test_portable_interp_runs () =
  (* The Kc clone is a real Kc program: the reference interpreter can run
     it (bounds-checked!), proving the generated indices stay legal. *)
  let prog = Portable.generate ~target_dynamic:5_000 (profile "crc32") in
  let r = Kc_interp.run ~max_steps:5_000_000 prog in
  Alcotest.(check bool) "steps executed" true (r.Kc_interp.steps > 100)

let test_portable_compiles_and_halts () =
  List.iter
    (fun name ->
      let clone = Portable.generate_compiled (profile name) in
      let m = Machine.load clone in
      let _ = Machine.run ~max_instrs:5_000_000 m (fun _ -> ()) in
      if not (Machine.halted m) then Alcotest.failf "%s portable clone did not halt" name)
    [ "crc32"; "qsort" ]

let test_portable_zero_dep_fractions () =
  (* Regression: a node whose dependency fractions sum to zero made
     [Portable.int_src] hand an all-zero CDF to [Rng.sample_cdf], which
     raises.  It now takes the last bucket, like the ISA-level
     generator. *)
  let p = profile "crc32" in
  let zero (n : Profile.node) =
    { n with Profile.dep_fractions = Array.map (fun _ -> 0.0) n.Profile.dep_fractions }
  in
  let nodes = Array.map zero p.Profile.nodes in
  let clone = Portable.generate_compiled { p with Profile.nodes } in
  let m = Machine.load clone in
  let _ = Machine.run ~max_instrs:5_000_000 m (fun _ -> ()) in
  Alcotest.(check bool) "halts" true (Machine.halted m)

let test_portable_deterministic () =
  let c1 = Portable.generate_compiled (profile "sha") in
  let c2 = Portable.generate_compiled (profile "sha") in
  Alcotest.(check bool) "same code" true
    (c1.Pc_isa.Program.code = c2.Pc_isa.Program.code)

let test_portable_tracks_cache_behaviour () =
  let entry = Pc_workloads.Registry.find "dijkstra" in
  let orig = Pc_workloads.Registry.compile entry in
  let clone = Portable.generate_compiled (profile "dijkstra") in
  let mpi p n =
    Pc_caches.Study.run_trace (fun emit ->
        let m = Machine.load p in
        Machine.run ~max_instrs:n m (fun ev ->
            if ev.Machine.mem_addr >= 0 then emit ev.Machine.mem_addr))
    |> Array.map (fun (r : Pc_caches.Study.result) -> r.Pc_caches.Study.mpi)
  in
  let corr =
    Pc_stats.Stats.pearson (mpi clone 1_500_000) (mpi orig 500_000)
  in
  Alcotest.(check bool) "correlates" true (corr > 0.5)

(* --- statistical simulation --- *)

let test_statsim_deterministic () =
  let r1 = Statsim.estimate ~instrs:50_000 Config.base (profile "crc32") in
  let r2 = Statsim.estimate ~instrs:50_000 Config.base (profile "crc32") in
  Alcotest.(check int) "same cycles" r1.Sim.cycles r2.Sim.cycles

let test_statsim_instruction_budget () =
  let r = Statsim.estimate ~instrs:30_000 Config.base (profile "sha") in
  (* the generator completes the block in flight: allow slack *)
  Alcotest.(check bool) "close to budget" true
    (r.Sim.instrs >= 30_000 && r.Sim.instrs < 31_000)

let test_statsim_estimates_ipc () =
  List.iter
    (fun name ->
      let entry = Pc_workloads.Registry.find name in
      let orig = Pc_workloads.Registry.compile entry in
      let real = Sim.run ~max_instrs:500_000 Config.base orig in
      let est = Statsim.estimate ~instrs:100_000 Config.base (profile name) in
      let err =
        Pc_stats.Stats.abs_rel_error ~actual:real.Sim.ipc ~predicted:est.Sim.ipc
      in
      if err > 0.35 then
        Alcotest.failf "%s: statsim IPC %.3f vs real %.3f (%.0f%%)" name est.Sim.ipc
          real.Sim.ipc (100.0 *. err))
    [ "sha"; "dijkstra"; "qsort"; "gsm" ]

let test_statsim_tracks_width_change () =
  let prof = profile "sha" in
  let narrow = Statsim.estimate ~instrs:100_000 Config.base prof in
  let wide = Statsim.estimate ~instrs:100_000 (Config.with_widths 2 Config.base) prof in
  Alcotest.(check bool) "wider machine estimated faster" true
    (wide.Sim.ipc > narrow.Sim.ipc)

let test_statsim_mix_respected () =
  let prof = profile "fft" in
  let r = Statsim.estimate ~instrs:100_000 Config.base prof in
  let frac c =
    float_of_int r.Sim.class_counts.(Pc_isa.Instr.class_index c)
    /. float_of_int r.Sim.instrs
  in
  let orig_frac c = prof.Profile.global_mix.(Pc_isa.Instr.class_index c) in
  let d = abs_float (frac Pc_isa.Instr.C_load -. orig_frac Pc_isa.Instr.C_load) in
  Alcotest.(check bool) "load fraction within 5 points" true (d < 0.05)

let test_statsim_rejects_empty () =
  let empty =
    {
      Profile.name = "empty";
      instr_count = 0;
      nodes = [||];
      global_mix = Array.make Pc_isa.Instr.class_count 0.0;
      avg_block_size = 0.0;
      single_stride_fraction = 1.0;
      unique_streams = 0;
    }
  in
  Alcotest.(check bool) "rejected" true
    (match Statsim.estimate Config.base empty with
    | _ -> false
    | exception Invalid_argument _ -> true)

let () =
  Alcotest.run "extensions"
    [
      ( "portable",
        [
          Alcotest.test_case "type-checks" `Slow test_portable_typechecks;
          Alcotest.test_case "interpreter runs it (bounds-checked)" `Slow
            test_portable_interp_runs;
          Alcotest.test_case "compiles and halts" `Slow test_portable_compiles_and_halts;
          Alcotest.test_case "zero dependency fractions" `Quick
            test_portable_zero_dep_fractions;
          Alcotest.test_case "deterministic" `Slow test_portable_deterministic;
          Alcotest.test_case "tracks cache behaviour" `Slow
            test_portable_tracks_cache_behaviour;
        ] );
      ( "statsim",
        [
          Alcotest.test_case "deterministic" `Quick test_statsim_deterministic;
          Alcotest.test_case "instruction budget" `Quick test_statsim_instruction_budget;
          Alcotest.test_case "estimates IPC" `Slow test_statsim_estimates_ipc;
          Alcotest.test_case "tracks width changes" `Quick test_statsim_tracks_width_change;
          Alcotest.test_case "instruction mix respected" `Quick test_statsim_mix_respected;
          Alcotest.test_case "rejects empty profiles" `Quick test_statsim_rejects_empty;
        ] );
    ]
