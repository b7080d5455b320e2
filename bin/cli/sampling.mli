(** The sampling-interval flags: [--sample] ([run_experiments],
    [run_scenarios]) and [--per-phase] ([fidelity_report],
    [tune_report]).  Both name an interval in dynamic instructions or
    leave it to {!Pc_sample.Sample.auto_interval}. *)

type interval = Auto | Fixed of int

val sample : interval option Cmdliner.Term.t
(** [--sample[=N]]: a positive [N] or [auto]; bare means [Auto]. *)

val per_phase : interval option Cmdliner.Term.t
(** [--per-phase[=N]]: a positive [N]; bare means [Auto]. *)

val resolve : budget:int -> interval option -> int option
(** The interval to use for a run of [budget] dynamic instructions. *)
