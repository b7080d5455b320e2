(** A minimal JSON parser for the repo's own artefact schemas
    ([pc-obs/1], [pc-sample/1], [pc-scenario/1], ...).  No external
    dependencies; numbers are floats, objects keep field order and
    duplicate keys (first one wins in {!member}). *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Parse a complete JSON document.  [Error msg] carries the byte
    offset of the failure. *)

val parse_file : string -> (t, string) result
(** {!parse} the contents of a file; [Error] also covers I/O failure. *)

(** {1 Accessors} — total functions returning options. *)

val member : string -> t -> t option
(** Field of an object; [None] on missing fields and non-objects. *)

val to_list : t -> t list option
val to_float : t -> float option
val to_int : t -> int option
(** [Num] fields only, and for {!to_int} only finite integral values
    (infinities — reachable via e.g. [1e999] — are rejected, not
    truncated to an arbitrary int). *)

val to_string : t -> string option
