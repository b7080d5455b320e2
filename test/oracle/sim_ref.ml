(* The event-fed driver of the timing model.  The event stream is
   pinned instruction by instruction to the reference interpreter
   [Machine_ref] (test_funcsim_diff), so every producer that steps the
   model from rows, packed traces or an arbiter must reproduce this
   result field for field. *)

module Machine = Pc_funcsim.Machine
module Sim = Pc_uarch.Sim

let run ?(max_instrs = 10_000_000) cfg program =
  let sim = Sim.create cfg in
  ignore
    (Machine.run ~max_instrs (Machine.load program) (fun ev ->
         Sim.step sim ~pc:ev.Machine.pc ~cls:ev.Machine.iclass
           ~reads:ev.Machine.reads ~write:ev.Machine.writes
           ~addr:ev.Machine.mem_addr ~taken:ev.Machine.taken));
  Sim.finish sim
