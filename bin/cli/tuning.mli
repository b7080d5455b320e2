(** The closed-loop tuning flags of [clone_gen] and [tune_report]. *)

val stress : Pc_tune.Fitness.envelope option Cmdliner.Term.t
(** [--stress SPEC]: a comma list of [ipc=N], [mpki=N], [power=N]
    targets ({!Pc_tune.Fitness.envelope_of_string}). *)

val mode : Pc_tune.Fitness.envelope option -> Pc_tune.Fitness.mode
(** Stress toward the envelope when given, mimic the original
    otherwise. *)

val store : string -> string option Cmdliner.Term.t
(** [store name] is the [--NAME[=DIR]] tune-store flag ([clone_gen]
    calls it [tune-store], [tune_report] [store]): the directory of a
    {!Pc_tune.Tune_store}, {!Pc_tune.Tune_store.default_dir} when bare. *)
