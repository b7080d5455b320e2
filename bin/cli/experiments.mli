(** The flags of the tools that drive {!Perfclone.Experiments}
    ([run_experiments], [fidelity_report], [tune_report]). *)

val settings : Perfclone.Experiments.settings Cmdliner.Term.t
(** [--quick], [--bench NAME] (repeatable; {!Common.bench} names) and
    [--seed N] over the quick or default settings. *)

val experiments : string list Cmdliner.Term.t
(** [run_experiments]' positional [EXPERIMENT...] names: table1, table2,
    fig3–fig9, table3, ablation, statsim, portable, bpred, seeds or all
    (an unambiguous prefix is accepted); [[]] when none is given. *)
