(** [pc-bounds/1]: the one language the CI threshold gates are written
    in.  A document bounds the numbers found at paths into one artefact
    schema:

    {v
    { "schema": "pc-bounds/1", "artifact": "<schema>", "comment": "...",
      "bounds": [ { "path": P, "minus": Q, "ge": x, "le": y, "lt": z,
                    "at_least": n }, ... ] }
    v}

    - A path is [/]-separated field names.  [name[*]] ranges over every
      element of a list; [name[key]] picks the element with that
      identity — the key {!Diff.list_key} aligns the list on ([bench]
      or [name]), else its index.  Names and keys hold no [/], [\[] or
      [\]].
    - A rule needs at least one bound.  [ge] and [le] are inclusive,
      [lt] is strict; a value must meet every bound its rule gives.
    - [minus] bounds (value at P) − (value at Q) for each binding of the
      two paths' [[*]]s, which must be equally many.  A binding present
      on one side only is a violation.
    - [at_least n] passes when at least [n] values meet the bound,
      instead of requiring all of them to.
    - A path that matches nothing is a violation, as is a value that is
      missing, [null], non-numeric or non-finite (under [at_least]
      too).  So is a report whose schema is not [artifact].

    [comment] is free text.  Any other key is an error. *)

type t

val of_json : Pc_util.Json.t -> (t, string) result
(** Validate a parsed document.  [Error] names where the fault is, as
    ["bounds[3].le: not a finite number"]; never raises. *)

val artifact : t -> string
(** The schema of the reports these bounds apply to. *)

val check : t -> Pc_util.Json.t -> string list
(** Gate a parsed report: one message per violation, each starting with
    the rule it broke (["bounds[3] ..."]).  Empty list = pass. *)
