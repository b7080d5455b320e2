(** Schema-aware drift diffing between two artefacts of the same
    schema.

    [diff] walks two parsed documents and classifies every difference
    per the schema's determinism contract (EXPERIMENTS.md):

    - deterministic fields (counters, gauges, seeds, sampling plans,
      fidelity characteristics, scenario reports) compare {b exactly};
      a gate's [tolerances] globs are the only way to loosen a numeric
      field;
    - wall-clock data (histograms, [env], durations, digests of
      non-deterministic artefacts) is either skipped or reported as an
      [ok] {e note} that never fails a gate;
    - [pc-obs/1] span trees are aligned order-insensitively by name
      (sibling order is scheduling-dependent at [-j > 1]);
    - [pc-trace/1] timelines drift on the flat multisets of span
      [(name, args)], instant [(name, args)] and flow
      [(phase, name, id)] events — the exact set the tracer guarantees
      identical at every [-j] — while per-track nesting and durations
      are notes.

    The result renders as a [pc-diff/1] JSON document ({!to_json}), a
    console table ({!pp}), and gates under a [pc-diff-thresholds/1]
    document ({!thresholds}, {!apply}). *)

type kind =
  | Exact  (** a deterministic non-numeric field changed *)
  | Num  (** a numeric field changed (exactly compared or out of tol) *)
  | Added  (** key present only in the second document *)
  | Removed  (** key present only in the first document *)
  | Structural  (** type mismatch, list-length or span-count mismatch *)
  | Note  (** informational: expected run-to-run variation *)

type item = {
  path : string;  (** ["counters/funcsim.runs"], ["scenarios[duet]/fairness"] *)
  kind : kind;
  a : string option;  (** rendered value in the first document *)
  b : string option;
  a_num : float option;
  b_num : float option;
  delta : float option;  (** [b - a] for numeric leaves *)
  tol : float option;  (** relative tolerance a gate applied, if any *)
  ok : bool;  (** [true]: tolerated or informational; never drift *)
}

type report = {
  artifact_schema : string;
  a_label : string;
  b_label : string;
  compared : int;  (** leaves (and span groups) compared *)
  items : item list;  (** every difference, in traversal order *)
}

val list_key :
  string -> string list -> (int -> Pc_util.Json.t -> string) option
(** [list_key schema fields]: the identity the elements of the list at
    [fields] (field names; any [\[key\]] suffix is ignored) align on —
    ["bench"] for fidelity and tune rows, ["name"] for scenarios, and
    so on per schema, as a function of the element and its index — or
    [None] for a list aligned by index.  {!Bounds} paths pick elements
    by the same key. *)

val diff :
  a_label:string ->
  b_label:string ->
  Pc_util.Json.t ->
  Pc_util.Json.t ->
  (report, string) result
(** [Error] when either document has no recognisable schema or the two
    schemas differ. *)

val diff_files : string -> string -> (report, string) result
(** {!diff} two files; labels are the paths. *)

val drift : report -> item list
(** The items with [ok = false]. *)

val notes : report -> item list

val to_json : report -> string
(** The [pc-diff/1] document:

    {v
    { "schema": "pc-diff/1", "artifact_schema": "<schema>",
      "a": "<label>", "b": "<label>",
      "compared": <int>, "drift": <int>,
      "items": [ { "path": "<path>", "kind": "exact|num|added|removed|
                   structural|note", "a": <string|null>, "b": <string|null>,
                   "delta": <float|null>, "tol": <float|null>,
                   "ok": <bool> }, ... ] }
    v} *)

val write_json : string -> report -> unit
(** {!to_json} plus a trailing newline, written to a file. *)

val pp : Format.formatter -> report -> unit
(** Console table: one row per item ([DRIFT] or [note]), then a
    summary line. *)

(** {1 Gating} *)

type thresholds = {
  max_drift : int;  (** gate passes when drift count is at most this *)
  ignore_paths : string list;
      (** glob patterns ([*] matches any run of characters, including
          [/]); a drift item whose path matches is downgraded to [ok] *)
  tolerances : (string * float) list;
      (** [(pattern, rel)]: numeric drift matching [pattern] passes
          when [|b - a| <= rel * max |a| |b|] *)
}

val default_thresholds : thresholds
(** [max_drift = 0], nothing ignored, no tolerance overrides. *)

val thresholds_of_json : Pc_util.Json.t -> (thresholds, string) result
(** Parse a [pc-diff-thresholds/1] document:

    {v
    { "schema": "pc-diff-thresholds/1", "max_drift": <int>,
      "ignore": [ "<glob>", ... ],
      "tolerances": { "<glob>": <rel>, ... } }
    v} *)

val apply : thresholds -> report -> report
(** Re-judge every drift item under the thresholds' ignores and
    tolerance overrides. *)

val gate : thresholds -> report -> bool
(** [true] when [apply thresholds report] leaves at most [max_drift]
    drift items. *)

val run_artifact_pairs :
  Pc_util.Json.t -> Pc_util.Json.t -> (string * string * string) list
(** For two [pc-run/1] records, the artefacts recorded by both runs,
    paired by schema: [(schema, path_in_a, path_in_b)].  Callers
    recurse with {!diff_files} on the pairs that still exist on disk. *)
