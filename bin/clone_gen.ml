(* clone_gen: the dissemination tool.  Profile a workload, save/load the
   microarchitecture-independent profile, and emit the synthetic clone —
   as a profile file, an SRISC disassembly, or the C-with-asm rendering
   the paper distributes.

   Usage:
     clone_gen profile BENCH -o workload.profile
     clone_gen synth -p workload.profile -o clone.s [--format c|asm]
     clone_gen clone BENCH --format c       (profile + synth in one step)
     clone_gen list

   clone/synth take --fidelity-out FILE to re-profile the generated
   clone and write a pc-fidelity/1 comparison against the original's
   profile; profile/synth/clone take --trace FILE to write a pc-trace/1
   Chrome timeline of the run.

   clone/synth also close the loop: --tune [BUDGET] searches the
   generator's knobs for the most faithful clone before emitting it,
   and --stress ipc=..,mpki=..,power=.. tunes toward a performance
   envelope instead of the original (stress clones).  --tune-store DIR
   memoises tuning evaluations across invocations. *)

open Cmdliner

let log_src = Logs.Src.create "clone_gen" ~doc:"Dissemination-tool progress"

module Log = (val Logs.src_log log_src : Logs.LOG)

let with_out path f =
  match path with
  | None -> f stdout
  | Some p ->
    let oc = open_out p in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () -> f oc)

let load_bench name =
  Pc_workloads.Registry.compile (Pc_workloads.Registry.find name)

let cmd_list () =
  List.iter
    (fun (domain, names) ->
      List.iter (fun n -> Printf.printf "%-14s %s\n" n domain) names)
    Pc_workloads.Registry.domains

(* Fidelity sidecar: re-profile the clone and compare it with the
   original's profile on the paper characteristics.  stderr table +
   pc-fidelity/1 JSON, so stdout clone output is untouched. *)
let write_fidelity path ~bench ~original ~seed ~instrs ~dynamic clone =
  let report =
    Pc_trace.Fidelity.measure ~max_instrs:instrs ~bench ~original clone
  in
  Pc_trace.Fidelity.write_json path ~seed ~profile_instrs:instrs
    ~clone_dynamic:dynamic [ report ];
  Format.eprintf "%a" Pc_trace.Fidelity.pp [ report ];
  Log.info (fun m -> m "wrote fidelity report to %s" path)

(* Tuning sidecar: when --tune (or --stress, which implies it) is
   given, run the knob search before generation and emit the clone with
   the winning knob vector; otherwise the historical default options,
   byte-identical to the pre-tuning tool. *)
let resolve_options ~tune ~stress ~tune_store ~bench ~seed ~instrs ~dynamic
    profile =
  match (tune, stress) with
  | None, None ->
    { Pc_synth.Synth.default_options with seed; target_dynamic = dynamic }
  | budget, stress ->
    let budget = Option.value budget ~default:32 in
    let mode = Pc_cli.Tuning.mode stress in
    let store = Option.map Pc_tune.Tune_store.create tune_store in
    Log.info (fun m ->
        m "tuning %s (budget %d, %s mode)" bench budget
          (match mode with
          | Pc_tune.Fitness.Mimic _ -> "mimic"
          | Pc_tune.Fitness.Stress _ -> "stress"));
    let result =
      Pc_tune.Search.run ?store ~budget ~bench ~seed ~profile_instrs:instrs
        ~target_dynamic:dynamic ~mode profile
    in
    Format.eprintf "%a" Pc_tune.Report.pp [ result ];
    Pc_tune.Search.options_of_knobs ~seed ~target_dynamic:dynamic
      result.Pc_tune.Search.r_best_knobs

let run = Pc_cli.Common.run ~tool:"clone_gen" ~src:log_src

let cmd_profile obs bench output instrs =
  run obs @@ fun () ->
  let program = load_bench bench in
  Log.info (fun m -> m "profiling %s (%d dynamic instructions)" bench instrs);
  let profile = Pc_profile.Collector.profile ~max_instrs:instrs program in
  with_out output (fun oc -> Pc_profile.Profile.save oc profile);
  Format.eprintf "%a" Pc_profile.Profile.pp_summary profile;
  []

let emit_clone clone fmt output =
  with_out output (fun oc ->
      match fmt with
      | "c" -> output_string oc (Pc_synth.Render.to_c clone)
      | "bin" -> Pc_isa.Encoding.write oc clone
      | "asm" | _ -> output_string oc (Pc_isa.Parser.roundtrip_text clone))

(* A damaged or unreadable profile is bad input, not a crash: report
   it as PATH:LINE: reason and exit 1. *)
let read_profile path =
  match In_channel.with_open_bin path Pc_profile.Profile.load with
  | Ok profile -> profile
  | Error msg ->
    Printf.eprintf "%s:%s\n" path msg;
    exit 1
  | exception Sys_error msg ->
    prerr_endline msg;
    exit 1

let cmd_synth obs fidelity_out tune stress tune_store profile_path output fmt
    seed dynamic =
  run ~seed obs @@ fun () ->
  let profile = read_profile profile_path in
  Log.info (fun m -> m "synthesizing clone from %s (seed %d)" profile_path seed);
  let options =
    resolve_options ~tune ~stress ~tune_store
      ~bench:profile.Pc_profile.Profile.name ~seed
      ~instrs:profile.Pc_profile.Profile.instr_count ~dynamic profile
  in
  let clone = Pc_synth.Synth.generate ~options profile in
  emit_clone clone fmt output;
  Option.iter
    (fun path ->
      write_fidelity path ~bench:profile.Pc_profile.Profile.name
        ~original:profile ~seed ~instrs:profile.Pc_profile.Profile.instr_count
        ~dynamic clone)
    fidelity_out;
  Log.info (fun m -> m "wrote %s clone to %s" fmt
               (Option.value output ~default:"<stdout>"));
  [ ("pc-fidelity/1", fidelity_out) ]

let cmd_clone obs fidelity_out tune stress tune_store bench output fmt seed
    instrs dynamic =
  run ~seed obs @@ fun () ->
  let program = load_bench bench in
  Log.info (fun m -> m "cloning %s (profile %d instrs, seed %d)" bench instrs seed);
  let pipeline =
    Perfclone.Pipeline.clone_program ~seed ~profile_instrs:instrs
      ~target_dynamic:dynamic program
  in
  let clone =
    if tune = None && stress = None then pipeline.Perfclone.Pipeline.clone
    else
      let options =
        resolve_options ~tune ~stress ~tune_store ~bench ~seed ~instrs ~dynamic
          pipeline.Perfclone.Pipeline.profile
      in
      Pc_synth.Synth.generate ~options pipeline.Perfclone.Pipeline.profile
  in
  emit_clone clone fmt output;
  Option.iter
    (fun path ->
      write_fidelity path ~bench ~original:pipeline.Perfclone.Pipeline.profile
        ~seed ~instrs ~dynamic clone)
    fidelity_out;
  Log.info (fun m -> m "wrote %s clone to %s" fmt
               (Option.value output ~default:"<stdout>"));
  [ ("pc-fidelity/1", fidelity_out) ]

(* --- command line --- *)

let bench_pos =
  Arg.(required & pos 0 (some Pc_cli.Common.bench) None & info [] ~docv:"BENCH")

let output_arg =
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
         ~doc:"Output file (default stdout).")

let format_arg =
  Arg.(value & opt string "asm" & info [ "format"; "f" ] ~docv:"FMT"
         ~doc:
           "Output format: asm (parseable SRISC assembly), bin (SRISC binary), or c \
            (C with asm statements).")

let instrs_arg =
  Arg.(value & opt Pc_cli.Common.positive_int 1_000_000 & info [ "instrs" ] ~docv:"N"
         ~doc:"Profiling budget in dynamic instructions.")

let dynamic_arg =
  Arg.(value & opt Pc_cli.Common.positive_int 100_000 & info [ "dynamic" ] ~docv:"N"
         ~doc:"Target dynamic length of the clone.")

let profile_arg =
  Arg.(required & opt (some non_dir_file) None & info [ "p"; "profile" ] ~docv:"FILE"
         ~doc:"Profile file produced by 'clone_gen profile'.")

let fidelity_out_arg =
  Arg.(value & opt (some string) None
       & info [ "fidelity-out" ] ~docv:"FILE"
         ~doc:
           "Re-profile the generated clone and write a pc-fidelity/1 JSON \
            report comparing it with the original's profile (instruction \
            mix, dependency distances, strides, branch rates, SFG size) to \
            $(docv).  A summary table goes to stderr.")

let tune_arg =
  Arg.(value
       & opt ~vopt:(Some 32) (some Pc_cli.Common.positive_int) None
       & info [ "tune" ] ~docv:"BUDGET"
         ~doc:
           "Search the generator's knobs (block scaling, stream count, \
            dependency jitter, stride bias, branch-period bounds) for the \
            most faithful clone before emitting it.  $(docv) bounds the \
            number of candidate evaluations (default 32).")

let obs = Pc_cli.Common.obs ~log:true ~ledger:true ()

let list_cmd = Cmd.v (Cmd.info "list" ~doc:"list available benchmarks")
    Term.(const cmd_list $ const ())

let profile_cmd =
  Cmd.v (Cmd.info "profile" ~doc:"profile a workload")
    Term.(const cmd_profile $ obs $ bench_pos $ output_arg $ instrs_arg)

let synth_cmd =
  Cmd.v (Cmd.info "synth" ~doc:"synthesize a clone from a saved profile")
    Term.(const cmd_synth $ obs $ fidelity_out_arg $ tune_arg
          $ Pc_cli.Tuning.stress $ Pc_cli.Tuning.store "tune-store"
          $ profile_arg $ output_arg $ format_arg $ Pc_cli.Common.seed
          $ dynamic_arg)

let clone_cmd =
  Cmd.v (Cmd.info "clone" ~doc:"profile and synthesize in one step")
    Term.(const cmd_clone $ obs $ fidelity_out_arg $ tune_arg
          $ Pc_cli.Tuning.stress $ Pc_cli.Tuning.store "tune-store"
          $ bench_pos $ output_arg $ format_arg $ Pc_cli.Common.seed
          $ instrs_arg $ dynamic_arg)

let main_cmd =
  Cmd.group
    (Cmd.info "clone_gen" ~doc:"performance-cloning dissemination tool")
    [ list_cmd; profile_cmd; synth_cmd; clone_cmd ]

let () = exit (Cmd.eval main_cmd)
