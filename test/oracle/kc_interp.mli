(** Reference interpreter for Kc.

    Defines the language semantics independently of the SRISC compiler;
    the test suite runs both on the same programs and compares results
    (differential testing of {!Pc_kc.Compile}). *)

exception Runtime_error of string

type result = {
  return_value : int64;  (** what [main] returned *)
  globals : (string * int64 array) list;  (** final global contents *)
  steps : int;  (** statements executed (a rough cost measure) *)
}

val run : ?max_steps:int -> Pc_kc.Ast.prog -> result
(** Type-checks and interprets a program.  [max_steps] (default 100
    million) bounds statement executions; exceeding it raises
    {!Runtime_error}. *)
