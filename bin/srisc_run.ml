(* srisc_run: standalone SRISC simulator front end.

   Loads a program from assembly text (.s, see Pc_isa.Parser) or the
   binary format (.bin, see Pc_isa.Encoding) and either executes it
   functionally or runs the timing model, printing statistics.

     srisc_run run clone.s                  functional execution
     srisc_run time clone.s --width 2       timing simulation
     srisc_run assemble clone.s -o clone.bin
     srisc_run disasm clone.bin *)

open Cmdliner

let load path =
  let is_binary =
    let ic = open_in_bin path in
    let m = really_input_string ic 6 in
    close_in ic;
    m = "SRISC1"
  in
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      if is_binary then Pc_isa.Encoding.read ic
      else Pc_isa.Parser.parse_channel ~name:(Filename.basename path) ic)

let cmd_run path max_instrs =
  let program = load path in
  let m = Pc_funcsim.Machine.load program in
  let n = Pc_funcsim.Machine.run_batched ~max_instrs m ignore in
  Printf.printf "%s: %d instructions, %s\n" program.Pc_isa.Program.name n
    (if Pc_funcsim.Machine.halted m then "halted" else "budget exhausted");
  Printf.printf "r1 (result register) = %Ld\n"
    (Pc_funcsim.Machine.ireg m Pc_isa.Reg.ret)

let cmd_time path max_instrs width in_order =
  let program = load path in
  let cfg = Pc_uarch.Config.base in
  let cfg = if width > 1 then Pc_uarch.Config.with_widths width cfg else cfg in
  let cfg = Pc_uarch.Config.with_in_order in_order cfg in
  let r = Pc_uarch.Sim.run ~max_instrs cfg program in
  Printf.printf "%s on %s:\n" program.Pc_isa.Program.name r.Pc_uarch.Sim.config_name;
  Printf.printf "  instructions  %d\n" r.Pc_uarch.Sim.instrs;
  Printf.printf "  cycles        %d\n" r.Pc_uarch.Sim.cycles;
  Printf.printf "  IPC           %.4f\n" r.Pc_uarch.Sim.ipc;
  Printf.printf "  branches      %d (%.2f%% mispredicted)\n" r.Pc_uarch.Sim.branches
    (100.0 *. Pc_uarch.Sim.mispredict_rate r);
  Printf.printf "  L1D           %d accesses, %d misses\n" r.Pc_uarch.Sim.l1d_accesses
    r.Pc_uarch.Sim.l1d_misses;
  Printf.printf "  L1I misses    %d\n" r.Pc_uarch.Sim.l1i_misses;
  Printf.printf "  power         %.2f units\n" (Pc_power.Power.total cfg r)

let with_out path f =
  match path with
  | None -> f stdout
  | Some p ->
    let oc = open_out_bin p in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () -> f oc)

let cmd_assemble path output =
  let program = load path in
  with_out output (fun oc -> Pc_isa.Encoding.write oc program)

let cmd_disasm path output =
  let program = load path in
  with_out output (fun oc -> output_string oc (Pc_isa.Parser.roundtrip_text program))

let path_arg = Arg.(required & pos 0 (some file) None & info [] ~docv:"PROGRAM")

let output_arg =
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
         ~doc:"Output file (default stdout).")

let max_instrs_arg =
  Arg.(value & opt int 50_000_000 & info [ "max-instrs" ] ~docv:"N"
         ~doc:"Instruction budget.")

let width_arg =
  Arg.(value & opt int 1 & info [ "width" ] ~docv:"W" ~doc:"Machine width.")

let in_order_arg =
  Arg.(value & flag & info [ "in-order" ] ~doc:"In-order issue.")

let run_cmd =
  Cmd.v (Cmd.info "run" ~doc:"execute functionally")
    Term.(const cmd_run $ path_arg $ max_instrs_arg)

let time_cmd =
  Cmd.v (Cmd.info "time" ~doc:"run the timing model")
    Term.(const cmd_time $ path_arg $ max_instrs_arg $ width_arg $ in_order_arg)

let assemble_cmd =
  Cmd.v (Cmd.info "assemble" ~doc:"assemble text to the binary format")
    Term.(const cmd_assemble $ path_arg $ output_arg)

let disasm_cmd =
  Cmd.v (Cmd.info "disasm" ~doc:"disassemble to parseable text")
    Term.(const cmd_disasm $ path_arg $ output_arg)

let main_cmd =
  Cmd.group (Cmd.info "srisc_run" ~doc:"SRISC toolchain driver")
    [ run_cmd; time_cmd; assemble_cmd; disasm_cmd ]

let () = exit (Cmd.eval main_cmd)
