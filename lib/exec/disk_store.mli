(** Persistent on-disk memo stores: the disk-backed sibling of {!Store}.

    Some results are worth keeping across invocations — a sampling plan
    costs two profiling passes plus k-means, a tuning evaluation a
    clone synthesis plus a re-profile — so [Pc_sample.Plan_cache] and
    [Pc_tune.Tune_store] persist them, one file per content key, through
    {!Make}.  This module owns everything such a store does with the
    disk:

    - the cache-directory lookup ({!default_dir}) and {!mkdir_p};
    - the atomic write ({!write_atomic}): temp file, then [Sys.rename];
    - the entry format: a magic line naming the format version, the hex
      MD5 of the payload, then the marshalled payload.  The digest is
      checked before unmarshalling, so a flipped bit or a torn file
      reads as a miss instead of a wrong value or a crash;
    - recovery: a damaged, truncated or foreign entry is removed,
      logged and reported as a miss, so the caller recomputes and
      re-stores it.  A damaged store can cost time but never changes
      output;
    - eviction: after each store, the oldest entries by modification
      time go until at most [max_entries] remain;
    - the [<counters>.hits], [<counters>.misses] and
      [<counters>.evictions] counters in {!Pc_obs.Metrics}, registered
      when {!Make} is applied.

    The run ledger ([Pc_report.Ledger]) uses the directory lookup and
    the atomic write directly. *)

val default_dir : string -> string
(** [default_dir name] is [$XDG_CACHE_HOME/name], falling back to
    [~/.cache/name] and, with neither variable set, [name] under the
    system temporary directory. *)

val mkdir_p : string -> unit
(** Create a directory and any missing parents. *)

val write_atomic : string -> string -> unit
(** [write_atomic file contents] writes [contents] to a temporary name
    carrying the pid and domain id, then renames it onto [file], so
    concurrent readers see either the previous state or the complete
    file.  Raises on I/O failure, after removing the temporary file. *)

(** What one store keeps that the others do not. *)
module type SPEC = sig
  type value

  val magic : string
  (** Format version, e.g. ["pc-plan/2"]: the first line of every entry,
      and digested into every key.  Bump it whenever [value]'s layout
      changes, so entries from an older build are never read. *)

  val suffix : string
  (** Entry file suffix, e.g. [".plan"]. *)

  val dir_name : string
  (** Directory under the user cache directory, for {!S.default_dir}. *)

  val max_entries : int
  (** Default bound for {!S.create}. *)

  val counters : string
  (** Metrics prefix, e.g. ["plan_cache"]. *)
end

module type S = sig
  type value
  type t

  val default_dir : unit -> string
  (** The top-level [default_dir] applied to the spec's [dir_name]. *)

  val create : ?max_entries:int -> string -> t
  (** Open (creating directories as needed) a store rooted at the given
      directory, keeping at most [max_entries] entries (default: the
      spec's).  Raises [Invalid_argument] if [max_entries] is not
      positive. *)

  val find : t -> string -> value option
  (** Look up an entry; counts a hit or a miss.  A damaged, truncated or
      foreign entry is removed, logged and reported as a miss. *)

  val store : t -> string -> value -> unit
  (** Persist an entry atomically, then evict.  I/O failures are
      logged, never raised. *)

  val find_or_compute : t -> string -> (unit -> value) -> value
  (** {!find}, falling back to computing and {!store}-ing the value. *)
end

module Make (V : SPEC) : sig
  include S with type value = V.value

  val digest : 'k -> string
  (** A content key: the hex MD5 of the spec's magic and the marshalled
      key fields, which must be plain data (no closures). *)
end
