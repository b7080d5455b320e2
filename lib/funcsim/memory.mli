(** Sparse 64-bit word memory.

    Byte-addressed, backed by 4 KiB pages allocated on demand, so a
    program can use a small data segment near {!Pc_isa.Program.data_base}
    and a stack near {!Pc_isa.Program.stack_base} without reserving the
    whole address space.  Unwritten memory reads as zero.  Accesses must
    be 8-byte aligned.

    Pages are unboxed [int64] bigarrays and the structure keeps a
    one-entry cache of the last page accessed, so word traffic with page
    locality costs a compare and an unboxed array access instead of two
    hashtable probes.  The representation is exposed (read-only, as a
    [private] record) so the pre-decoded simulator ({!Machine}) can
    inline the cache-hit fast path inside its dispatch loop and index
    the page a miss path returns ({!read_page}/{!write_page}) inline
    too, so neither a hit nor a miss allocates; everything else goes
    through the checked {!read}/{!write}. *)

type page =
  (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = private {
  pages : (int, page) Hashtbl.t;
  touched : (int, unit) Hashtbl.t;
  mutable cache_key : int;
      (** page key ([addr lsr page_bits]) of [cache_page], or [-1].
          Invariants relied on by the engine's inlined fast path: the
          cached page is present in [pages] and already recorded in
          [touched], so a hit may skip both hashtables. *)
  mutable cache_page : page;
}

val page_bits : int
(** Pages span [1 lsl page_bits] bytes (4 KiB). *)

val words_per_page : int

val create : unit -> t

val read_page : t -> int -> page
(** [read_page t key] is the miss path of a read from the page with key
    [key] ([addr lsr page_bits]): it records the page as touched and, if
    the page exists, caches and returns it.  An absent page is not
    created: the read gets a shared all-zero page, which is never cached
    and must never be written.  The caller checks the address. *)

val write_page : t -> int -> page
(** [write_page t key] is the miss path of a write: it records the page
    as touched, creates it if absent, caches it and returns it.  The
    caller checks the address. *)

val read : t -> int -> int64
(** [read t addr] returns the word at byte address [addr].
    Raises [Invalid_argument] on negative or unaligned addresses. *)

val write : t -> int -> int64 -> unit

val read_float : t -> int -> float
(** Word reinterpreted as an IEEE-754 double. *)

val write_float : t -> int -> float -> unit

val load_words : t -> (int * int64) list -> unit
(** Initialise a batch of words (used to load a program's data segment). *)

val pages_touched : t -> int
(** Number of distinct 4 KiB pages read or written so far — the
    program's memory footprint at page granularity (data-segment
    initialisation counts, since it goes through {!write}). *)
