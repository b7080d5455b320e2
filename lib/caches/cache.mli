(** Set-associative LRU cache model.

    Models tag state only (no data), which is all that miss-per-
    instruction and latency studies need.  Writes are write-allocate and
    update recency exactly like reads; write-back traffic is not modelled
    (the paper's metrics — misses/instruction, IPC, relative power — do
    not depend on it).  Replacement is true LRU, the paper's policy
    throughout. *)

type config = {
  size_bytes : int;
  assoc : int;  (** ways; [0] means fully associative *)
  line_bytes : int;  (** must be a power of two *)
}

val config : size_bytes:int -> assoc:int -> line_bytes:int -> config
(** Validating constructor: sizes must be positive powers of two, the
    line must divide the size, and the way count must divide the number
    of lines.  Raises [Invalid_argument] otherwise. *)

val config_name : config -> string
(** e.g. ["4KB/2-way/32B"] or ["256B/full/32B"]. *)

val ways : config -> int
(** Effective associativity ([size / line] for fully associative). *)

type t

val create : config -> t

val access : t -> int -> bool
(** [access t addr] simulates one access; returns [true] on a hit and
    updates LRU/tag state.  [addr] is a non-negative byte address (an
    invalid way holds tag [-1], which no such address's line equals).

    A repeat of the previous access's line is answered without a set
    scan: it is counted as a hit and leaves the tags, the ages and the
    recency clock as they are.  This is exact under LRU: the previous
    access left that line resident with the newest age in its set, and
    the repeat touches no other line, so the order in which that set
    will choose victims is the one a full access would leave. *)

val accesses : t -> int
val misses : t -> int
