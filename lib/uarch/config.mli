(** Microarchitecture configurations.

    [base] reproduces Table 2 of the paper; the [with_*] transformers
    express the five design changes of Section 5.2 and the cache study
    variations. *)

type t = {
  name : string;
  fetch_width : int;
  decode_width : int;
  issue_width : int;
  commit_width : int;
  rob_size : int;
  lsq_size : int;
  in_order : bool;
  int_alu_units : int;
  int_mul_units : int;  (** also execute integer divides *)
  fp_alu_units : int;
  fp_mul_units : int;  (** also execute FP divides *)
  mem_ports : int;
  frontend_depth : int;  (** cycles between fetch and dispatch *)
  mispredict_penalty : int;  (** redirect cycles after branch resolution *)
  bpred : Pc_branch.Predictor.config;
  icache : Pc_caches.Hierarchy.config;
  dcache : Pc_caches.Hierarchy.config;
  latencies : int array;  (** execution latency per instruction class index *)
}

val base : t
(** Table 2: 2 integer ALUs, 1 FP multiplier, 1 FP ALU; 16-entry ROB;
    8-entry LSQ; 16 KB/2-way/32 B L1 I and D caches; 64 KB/4-way/64 B L2;
    1-wide out-of-order; 8-entry fetch queue (frontend depth); 2-level
    GAp predictor; 40-cycle memory. *)

val with_rob_lsq : rob:int -> lsq:int -> t -> t
(** Design change 1 doubles both: [with_rob_lsq ~rob:32 ~lsq:16 base]. *)

val with_l1d_size : int -> t -> t
(** Design change 2 halves the L1 D-cache: [with_l1d_size 8192 base].
    Associativity and line size are preserved. *)

val with_widths : int -> t -> t
(** Design change 3 doubles fetch/decode/issue (and commit) width. *)

val with_bpred : Pc_branch.Predictor.config -> t -> t
(** Design change 4: [with_bpred Not_taken base]. *)

val with_in_order : bool -> t -> t
(** Design change 5: [with_in_order true base]. *)
