(* characterize: print the microarchitecture-independent characterization
   of one or more workloads as human-readable tables — the data a
   performance engineer inspects before trusting a clone.

     characterize [BENCH]... [--instrs N] [--trace FILE]
                                              (default: all benchmarks) *)

open Cmdliner
module Profile = Pc_profile.Profile
module I = Pc_isa.Instr

let pct v = 100.0 *. v

let characterize instrs name =
  Pc_obs.Span.with_ ("characterize:" ^ name) @@ fun () ->
  let entry = Pc_workloads.Registry.find name in
  let program =
    Pc_obs.Span.with_ ("compile:" ^ name) (fun () ->
        Pc_workloads.Registry.compile entry)
  in
  let p =
    Pc_obs.Span.with_ ("profile:" ^ name) (fun () ->
        Pc_profile.Collector.profile ~max_instrs:instrs program)
  in
  Printf.printf "=== %s (%s) ===\n" name entry.Pc_workloads.Registry.domain;
  Printf.printf "dynamic instructions   %d\n" p.Profile.instr_count;
  Printf.printf "static instructions    %d\n" (Pc_isa.Program.length program);
  Printf.printf "SFG nodes              %d\n" (Array.length p.Profile.nodes);
  Printf.printf "average block size     %.2f\n" p.Profile.avg_block_size;
  Printf.printf "single-stride coverage %.1f%%\n" (pct p.Profile.single_stride_fraction);
  Printf.printf "unique streams         %d\n" p.Profile.unique_streams;
  Printf.printf "instruction mix:\n";
  Array.iteri
    (fun ci frac ->
      if frac > 0.0005 then
        Printf.printf "  %-8s %6.2f%%\n" (I.class_name (I.class_of_index ci)) (pct frac))
    p.Profile.global_mix;
  Printf.printf "dependency distances:\n";
  Array.iteri
    (fun i f ->
      let label =
        if i < Array.length Profile.dep_bounds then
          Printf.sprintf "<=%d" Profile.dep_bounds.(i)
        else ">32"
      in
      Printf.printf "  %-5s %6.2f%%\n" label (pct f))
    (Profile.dep_distribution p);
  (* top streams *)
  let streams = Pc_synth.Synth.plan_streams ~max_streams:8 p in
  Printf.printf "top memory streams (stride / run / footprint / refs):\n";
  Array.iter
    (fun (s : Pc_synth.Synth.stream_info) ->
      Printf.printf "  %6dB  run %-5d  %8dB  %8d\n" s.Pc_synth.Synth.stride
        s.Pc_synth.Synth.length s.Pc_synth.Synth.footprint s.Pc_synth.Synth.weight)
    streams;
  Option.iter
    (fun (taken, trans) ->
      Printf.printf "branches: taken rate %.1f%%, transition rate %.1f%%\n"
        (pct taken) (pct trans))
    (Profile.branch_rates p);
  print_newline ()

let main benches instrs obs =
  Pc_cli.Common.run ~tool:"characterize" obs @@ fun () ->
  let names = if benches = [] then Pc_workloads.Registry.names else benches in
  List.iter (characterize instrs) names;
  []

let benches_arg =
  Arg.(value & pos_all Pc_cli.Common.bench [] & info [] ~docv:"BENCH")

let instrs_arg =
  Arg.(value & opt Pc_cli.Common.positive_int 1_000_000 & info [ "instrs" ] ~docv:"N"
         ~doc:"Profiling budget in dynamic instructions.")

let cmd =
  Cmd.v
    (Cmd.info "characterize" ~doc:"print workload characterizations")
    Term.(const main $ benches_arg $ instrs_arg $ Pc_cli.Common.obs ())

let () = exit (Cmd.eval cmd)
