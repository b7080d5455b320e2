(** Conditional-branch direction predictors.

    The paper's base configuration uses a 2-level GAp predictor; design
    change 4 swaps it for always-not-taken.  Bimodal and perfect
    predictors are provided for ablations and tests.

    Only conditional-branch direction is modelled: unconditional jumps,
    calls and returns are treated as perfectly predicted by the timing
    model (SRISC has no indirect branches other than returns, and the
    paper's experiments never vary BTB/RAS parameters). *)

type config =
  | Taken  (** static: always predict taken *)
  | Not_taken  (** static: always predict not-taken *)
  | Bimodal of int  (** table of 2-bit counters; parameter = entry count (power of two) *)
  | Gap of { history_bits : int; tables : int }
      (** 2-level GAp: a global history register indexes one of [tables]
          per-address pattern-history tables of 2-bit counters *)
  | Gshare of { history_bits : int; entries : int }
      (** global history XOR-folded with the pc into one counter table *)
  | Pap of { history_bits : int; tables : int }
      (** 2-level PAp: per-address history registers index per-address
          pattern tables (captures local periodic patterns) *)
  | Tournament of { meta_entries : int; a : config; b : config }
      (** two component predictors arbitrated by a 2-bit chooser table;
          the chooser trains towards whichever component was correct *)
  | Perfect  (** oracle *)

val base_gap : config
(** The base configuration's predictor: 8 bits of global history over 256
    per-address tables (64 K counters). *)

val config_name : config -> string

type t

val create : config -> t

val predict : t -> pc:int -> bool
(** Predicted direction for the branch at [pc] (pure; no state change). *)

val update : t -> pc:int -> taken:bool -> unit
(** Train with the resolved outcome. *)

val observe : t -> pc:int -> taken:bool -> bool
(** [predict] then [update]; returns [true] when the prediction was
    correct.  [Perfect] is always correct. *)

val lookups : t -> int
val mispredictions : t -> int

val misprediction_rate : t -> float
(** Mispredictions per lookup; [0] when no lookups. *)
