(* Differential fuzzing of the Kc compiler: random structured programs
   (nested loops, conditionals, array traffic, helper-function calls) must
   behave identically under the reference interpreter and the compiled
   SRISC binary, including final global-array contents. *)

open Pc_kc.Ast
module Interp = Kc_interp
module Compile = Pc_kc.Compile
module Machine = Pc_funcsim.Machine
module Memory = Pc_funcsim.Memory
module Rng = Pc_util.Rng

let array_size = 32

(* --- random program generation --- *)

let int_locals = [ "a"; "b"; "c"; "d" ]
let loop_vars = [ "i1"; "i2" ]
let fp_locals = [ "x"; "y" ]

let gen_iexpr rng depth =
  let rec go depth =
    if depth <= 0 || Rng.int rng 3 = 0 then
      match Rng.int rng 3 with
      | 0 -> i (Rng.int rng 2001 - 1000)
      | 1 -> v (Rng.pick rng (Array.of_list (int_locals @ loop_vars)))
      | _ -> ld "g" (Bin (Mod, Bin (Band, go 0, i 0x7FFFFFFF), i array_size))
    else
      let a = go (depth - 1) and b = go (depth - 1) in
      match Rng.int rng 10 with
      | 0 -> a +: b
      | 1 -> a -: b
      | 2 -> a *: b
      | 3 -> a /: b
      | 4 -> a %: b
      | 5 -> a &: b
      | 6 -> a |: b
      | 7 -> Bin (Bxor, a, b)
      | 8 -> a <: b
      | _ -> a =: b
  in
  go depth

(* a guaranteed-in-bounds index *)
let gen_index rng depth =
  Bin (Mod, Bin (Band, gen_iexpr rng depth, i 0x7FFFFFFF), i array_size)

let rec gen_stmt rng depth =
  match Rng.int rng (if depth <= 0 then 3 else 6) with
  | 0 -> set (Rng.pick rng (Array.of_list int_locals)) (gen_iexpr rng 2)
  | 1 -> st "g" (gen_index rng 1) (gen_iexpr rng 2)
  | 2 ->
    set (Rng.pick rng (Array.of_list int_locals))
      (ld "g" (gen_index rng 1) +: call "helper" [ gen_iexpr rng 1 ])
  | 3 ->
    if_ (gen_iexpr rng 1)
      (gen_block rng (depth - 1) (1 + Rng.int rng 2))
      (if Rng.bool rng then gen_block rng (depth - 1) 1 else [])
  | 4 ->
    let var = Rng.pick rng (Array.of_list loop_vars) in
    for_ var (i 0) (i (1 + Rng.int rng 6)) (gen_block rng (depth - 1) (1 + Rng.int rng 2))
  | _ ->
    set (Rng.pick rng (Array.of_list fp_locals))
      (I2f (gen_iexpr rng 1) +: v (Rng.pick rng (Array.of_list fp_locals)))

and gen_block rng depth n = List.init n (fun _ -> gen_stmt rng depth)

let gen_prog rng =
  let body = gen_block rng 3 (3 + Rng.int rng 5) in
  let checksum =
    [
      for_ "i1" (i 0) (i array_size)
        [ set "a" ((v "a" *: i 31) +: ld "g" (v "i1") &: i 0xFFFFFFFF) ];
      ret (v "a" +: F2i (v "x" *: f 7.0) +: F2i (v "y"));
    ]
  in
  {
    globals =
      [ garr "g" ~init:(Pc_workloads.Inputs.ints ~seed:9 ~n:array_size ~bound:1000) array_size ];
    funs =
      [
        fn "helper" ~params:[ ("n", I) ] ~locals:[ ("t", I) ]
          [
            set "t" (v "n" &: i 255);
            if_ (v "t" >: i 128) [ ret (v "t" -: i 128) ] [];
            ret (v "t" +: i 1);
          ];
        fn "main"
          ~locals:
            (List.map (fun n -> (n, I)) (int_locals @ loop_vars)
            @ List.map (fun n -> (n, F)) fp_locals)
          (body @ checksum);
      ];
  }

(* --- the differential property --- *)

let agree prog =
  match Interp.run ~max_steps:2_000_000 prog with
  | exception Interp.Runtime_error _ -> true (* e.g. step budget; skip *)
  | ir -> (
    let compiled = Compile.compile ~name:"fuzz" prog in
    let m = Machine.load compiled in
    let _ = Machine.run ~max_instrs:10_000_000 m (fun _ -> ()) in
    if not (Machine.halted m) then false
    else if Machine.ireg m Pc_isa.Reg.ret <> ir.Interp.return_value then false
    else begin
      (* compare the global array word by word *)
      let offsets = Compile.global_offsets prog in
      let off = List.assoc "g" offsets in
      let interp_arr = List.assoc "g" ir.Interp.globals in
      let mem = Machine.memory m in
      let ok = ref true in
      for idx = 0 to array_size - 1 do
        let addr = Pc_isa.Program.data_base + off + (8 * idx) in
        if Memory.read mem addr <> interp_arr.(idx) then ok := false
      done;
      !ok
    end)

let qcheck_structured_programs =
  QCheck.Test.make ~name:"random structured Kc programs: interp = compiled" ~count:150
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      agree (gen_prog rng))

(* The predictor study's functional pass on random programs, against
   the timing model run once per predictor: equal floats. *)
let qcheck_bpred_rates_match_timing_model =
  let max_instrs = 50_000 in
  let settings = { Perfclone.Experiments.quick_settings with sim_instrs = max_instrs } in
  let configs = Perfclone.Experiments.bpred_configs in
  QCheck.Test.make ~name:"random programs: functional predictor rates = timing model's"
    ~count:25
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let program = Compile.compile ~name:"fuzz" (gen_prog (Rng.create seed)) in
      Perfclone.Experiments.bpred_rates settings program
      = Bpred_oracle.rates ~max_instrs configs program)

let random_config rng =
  let module Config = Pc_uarch.Config in
  let pick l = Rng.pick rng (Array.of_list l) in
  let width = pick [ 1; 2; 4; 8 ] in
  let rob = pick [ 4; 8; 16; 32; 64 ] in
  let lsq = max 1 (rob / pick [ 1; 2; 4 ]) in
  let l1d = pick [ 1024; 4096; 16384; 65536 ] in
  let bpred =
    pick Pc_branch.Predictor.[ Taken; Not_taken; Bimodal 64; base_gap; Perfect ]
  in
  let in_order = Rng.int rng 2 = 0 in
  Config.base |> Config.with_widths width |> Config.with_rob_lsq ~rob ~lsq
  |> Config.with_l1d_size l1d |> Config.with_bpred bpred
  |> Config.with_in_order in_order

(* The timing model on random programs and random configurations: the
   row-fed [Sim.run] equals the event-fed oracle, and no run beats its
   narrowest pipeline stage. *)
let qcheck_timing_model_matches_oracle =
  let max_instrs = 50_000 in
  QCheck.Test.make
    ~name:"random programs and configs: Sim.run = event-fed oracle, IPC <= width"
    ~count:25
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let program = Compile.compile ~name:"fuzz" (gen_prog rng) in
      let cfg = random_config rng in
      let r = Pc_uarch.Sim.run ~max_instrs cfg program in
      let width =
        List.fold_left min max_int
          Pc_uarch.Config.[ cfg.fetch_width; cfg.decode_width; cfg.issue_width; cfg.commit_width ]
      in
      r = Sim_ref.run ~max_instrs cfg program
      && r.Pc_uarch.Sim.ipc <= float_of_int width
      && r.Pc_uarch.Sim.cycles * width >= r.Pc_uarch.Sim.instrs)

(* The profiler on random programs at random slices: the same profile
   bytes as the reference collector. *)
let qcheck_collector_matches_oracle =
  QCheck.Test.make ~name:"random programs and slices: Collector = reference collector"
    ~count:100
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let program = Compile.compile ~name:"fuzz" (gen_prog rng) in
      (* these programs retire 600-2,000 instructions *)
      let start = if Rng.bool rng then 0 else Rng.int rng 1_500 in
      let max_instrs = 1 + Rng.int rng 2_000 in
      match Collector_ref.mismatch ~start ~max_instrs program with
      | None -> true
      | Some why ->
        QCheck.Test.fail_reportf "start %d, %d instructions: %s" start max_instrs why)

let test_fixed_seeds () =
  (* a deterministic sweep, independent of qcheck's sampling *)
  for seed = 1 to 100 do
    let rng = Rng.create (seed * 7919) in
    if not (agree (gen_prog rng)) then
      Alcotest.failf "divergence at seed %d" (seed * 7919)
  done

let () =
  Alcotest.run "kc_random"
    [
      ( "fuzz",
        [
          Alcotest.test_case "100 fixed seeds" `Slow test_fixed_seeds;
          QCheck_alcotest.to_alcotest qcheck_structured_programs;
          QCheck_alcotest.to_alcotest qcheck_bpred_rates_match_timing_model;
          QCheck_alcotest.to_alcotest qcheck_timing_model_matches_oracle;
          QCheck_alcotest.to_alcotest qcheck_collector_matches_oracle;
        ] );
    ]
