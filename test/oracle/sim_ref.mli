(** The timing model fed one functional-simulator event at a time. *)

val run : ?max_instrs:int -> Pc_uarch.Config.t -> Pc_isa.Program.t -> Pc_uarch.Sim.result
(** [Sim.run], but stepping the model from each {!Pc_funcsim.Machine.run}
    event instead of from batched rows plus statics. *)
