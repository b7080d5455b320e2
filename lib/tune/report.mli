(** pc-tune/1 artefacts: serialise {!Search.result}s and print the
    console table.

    The JSON document carries, per benchmark, the untuned (default-knob)
    fitness, the tuned best with its knob vector, the per-generation
    best-fitness trajectory, and the memo/store hit statistics —
    everything the cold/warm CI comparison and the CI gate need.  The
    gate is the [pc-bounds/1] document [baselines/tune.json]
    ([Pc_report.Bounds]). *)

val json :
  seed:int ->
  profile_instrs:int ->
  clone_dynamic:int ->
  mode:Fitness.mode ->
  Search.result list ->
  string
(** The pc-tune/1 document (no trailing newline). *)

val write_json :
  string ->
  seed:int ->
  profile_instrs:int ->
  clone_dynamic:int ->
  mode:Fitness.mode ->
  Search.result list ->
  unit

val pp : Format.formatter -> Search.result list -> unit
(** Console table, one row per benchmark: default and best fitness,
    gain, evaluation and store statistics.  Byte-identical across pool
    widths and across cold/warm store runs — CI diffs it. *)
