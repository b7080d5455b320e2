(** Kc: a miniature imperative language.

    Kc is the stand-in for the C sources the paper compiles with Compaq
    [cc]: the 23 workload kernels are written in Kc (as an OCaml eDSL) and
    compiled to SRISC by {!Compile}.  The language has 64-bit integers,
    IEEE doubles, scalar locals, global word arrays, structured control
    flow and (possibly recursive) functions.

    Programs must type-check ({!Check}); the compiler and the reference
    interpreter the test suite keeps as an oracle agree on the
    semantics, which the tests verify differentially. *)

type ty = I  (** 64-bit integer *) | F  (** IEEE double *)

type binop =
  | Add | Sub | Mul | Div | Mod  (** [Div]/[Mod] by zero yield 0 *)
  | Band | Bor | Bxor | Shl | Shr  (** integer only; shifts use low 6 bits *)
  | Eq | Ne | Lt | Le | Gt | Ge  (** comparisons yield integer 0/1 *)
  | Land | Lor  (** logical and/or over integers; NOT short-circuit *)

type unop =
  | Neg  (** arithmetic negation, both types *)
  | Bnot  (** bitwise complement, integer *)
  | Lnot  (** logical negation: 0 -> 1, non-zero -> 0 *)

type expr =
  | Int of int64
  | Flt of float
  | Var of string  (** scalar parameter or local *)
  | Ld of string * expr  (** global array element [name\[idx\]] *)
  | Bin of binop * expr * expr
  | Un of unop * expr
  | Call of string * expr list
  | I2f of expr  (** integer to float *)
  | F2i of expr  (** float to integer, truncation *)

type stmt =
  | Set of string * expr  (** scalar assignment *)
  | St of string * expr * expr  (** [name\[idx\] <- value] *)
  | If of expr * stmt list * stmt list
  | While of expr * stmt list
  | For of string * expr * expr * stmt list
      (** [For (v, lo, hi, body)]: [v] from [lo] while [v < hi], step 1.
          [v] must be a declared integer local; [hi] is re-evaluated each
          iteration. *)
  | Expr of expr  (** evaluate for side effects (calls) *)
  | Ret of expr option

type fundef = {
  fname : string;
  params : (string * ty) list;
  ret : ty;
  locals : (string * ty) list;
  body : stmt list;
}

type global = {
  gname : string;
  gty : ty;  (** element type *)
  elems : int;  (** element count; each element is one 64-bit word *)
  ginit : int64 array;  (** initial words (floats as IEEE bits); may be shorter than [elems], rest is zero *)
}

type prog = { globals : global list; funs : fundef list }
(** The entry point is the function named ["main"], which must take no
    parameters and return an integer (used as a result checksum). *)

(** {1 eDSL constructors} *)

val i : int -> expr
val f : float -> expr
val v : string -> expr
val ( +: ) : expr -> expr -> expr
val ( -: ) : expr -> expr -> expr
val ( *: ) : expr -> expr -> expr
val ( /: ) : expr -> expr -> expr
val ( %: ) : expr -> expr -> expr
val ( <: ) : expr -> expr -> expr
val ( <=: ) : expr -> expr -> expr
val ( >: ) : expr -> expr -> expr
val ( >=: ) : expr -> expr -> expr
val ( =: ) : expr -> expr -> expr
val ( <>: ) : expr -> expr -> expr
val ( &&: ) : expr -> expr -> expr
val ( ||: ) : expr -> expr -> expr
val ( &: ) : expr -> expr -> expr
val ( |: ) : expr -> expr -> expr
val ( ^: ) : expr -> expr -> expr
val ( <<: ) : expr -> expr -> expr
val ( >>: ) : expr -> expr -> expr
val ld : string -> expr -> expr
val call : string -> expr list -> expr
val set : string -> expr -> stmt
val st : string -> expr -> expr -> stmt
val if_ : expr -> stmt list -> stmt list -> stmt
val while_ : expr -> stmt list -> stmt
val for_ : string -> expr -> expr -> stmt list -> stmt
val ret : expr -> stmt
val fn :
  string -> ?params:(string * ty) list -> ?ret:ty -> ?locals:(string * ty) list ->
  stmt list -> fundef
val garr : string -> ?gty:ty -> ?init:int64 array -> int -> global
val gfarr : string -> ?init:float array -> int -> global
(** Float array; [init] values are stored as IEEE bits. *)
