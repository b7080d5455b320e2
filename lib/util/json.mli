(** The repo's one JSON reader and printer, for its own artefact schemas
    ([pc-obs/1], [pc-sample/1], [pc-scenario/1], ...).  No external
    dependencies.  Objects keep field order and duplicate keys (first
    one wins in {!member}).  Number leaves keep their literal text, so
    {!encode} of a parsed compact document reproduces it byte for byte;
    consumers read them back with {!to_float} / {!to_int}. *)

type t =
  | Null
  | Bool of bool
  | Num of string  (** an RFC 8259 number literal, as written *)
  | Str of string
  | List of t list
  | Obj of (string * t) list

(** {1 Numbers} — the three formats every writer picks from.  JSON has
    no NaN or infinity: the float constructors turn a non-finite value
    into [Null]. *)

val int : int -> t

val fixed : int -> float -> t
(** [fixed digits f]: [f] with [digits] decimals ([%.*f]). *)

val float : float -> t
(** [f] at nine significant digits ([%.9g]). *)

(** {1 Printing} *)

val encode : t -> string
(** The compact document: no whitespace, strings escaped (quote,
    backslash, [\n], [\t], [\r], other control bytes as [\u00XX]; every
    other byte verbatim).  [parse (encode v) = Ok v] for any [v] whose
    [Num] leaves are valid literals. *)

val to_file : string -> t -> unit
(** Write {!encode} plus a trailing newline to a file (truncating). *)

(** {1 Parsing} *)

val parse : string -> (t, string) result
(** Parse a complete JSON document.  Numbers follow RFC 8259 exactly
    ([-0], [1E5] and [1e+20] are accepted; [.5], [1.], [+1] and [01]
    are not).  [Error msg] carries the byte offset of the failure. *)

val parse_file : string -> (t, string) result
(** {!parse} the contents of a file; [Error] also covers I/O failure. *)

(** {1 Accessors} — total functions returning options. *)

val member : string -> t -> t option
(** Field of an object; [None] on missing fields and non-objects. *)

val schema : t -> string option
(** The document's [schema] string, else its [otherData.schema] (where
    pc-trace/1 keeps it, beside the Chrome trace fields). *)

val to_list : t -> t list option
val to_float : t -> float option
val to_int : t -> int option
(** [Num] fields only, and for {!to_int} only finite integral values
    (infinities — reachable via e.g. [1e999] — are rejected, not
    truncated to an arbitrary int). *)

val to_string : t -> string option
(** [Str] fields only. *)
