open Pc_kc.Ast

exception Runtime_error of string

type value = VI of int64 | VF of float

type result = {
  return_value : int64;
  globals : (string * int64 array) list;
  steps : int;
}

exception Return_exn of value

let error fmt = Printf.ksprintf (fun s -> raise (Runtime_error s)) fmt

let as_int = function VI v -> v | VF _ -> error "expected an integer value"
let as_float = function VF v -> v | VI _ -> error "expected a float value"
let bool64 b = if b then 1L else 0L

let int_bin op a b =
  match op with
  | Add -> Int64.add a b
  | Sub -> Int64.sub a b
  | Mul -> Int64.mul a b
  | Div -> if Int64.equal b 0L then 0L else Int64.div a b
  | Mod -> if Int64.equal b 0L then 0L else Int64.rem a b
  | Band -> Int64.logand a b
  | Bor -> Int64.logor a b
  | Bxor -> Int64.logxor a b
  | Shl -> Int64.shift_left a (Int64.to_int b land 63)
  | Shr -> Int64.shift_right_logical a (Int64.to_int b land 63)
  | Eq -> bool64 (Int64.equal a b)
  | Ne -> bool64 (not (Int64.equal a b))
  | Lt -> bool64 (Int64.compare a b < 0)
  | Le -> bool64 (Int64.compare a b <= 0)
  | Gt -> bool64 (Int64.compare a b > 0)
  | Ge -> bool64 (Int64.compare a b >= 0)
  | Land -> bool64 ((not (Int64.equal a 0L)) && not (Int64.equal b 0L))
  | Lor -> bool64 ((not (Int64.equal a 0L)) || not (Int64.equal b 0L))

let float_bin op a b =
  match op with
  | Add -> VF (a +. b)
  | Sub -> VF (a -. b)
  | Mul -> VF (a *. b)
  | Div -> VF (if b = 0.0 then 0.0 else a /. b)
  | Eq -> VI (bool64 (a = b))
  | Ne -> VI (bool64 (a <> b))
  | Lt -> VI (bool64 (a < b))
  | Le -> VI (bool64 (a <= b))
  | Gt -> VI (bool64 (a > b))
  | Ge -> VI (bool64 (a >= b))
  | Mod | Band | Bor | Bxor | Shl | Shr | Land | Lor ->
    error "integer-only operator reached floats (checker should have caught this)"

type state = {
  globals : (string, ty * int64 array) Hashtbl.t;
  funs : (string, fundef) Hashtbl.t;
  mutable steps : int;
  max_steps : int;
}

let rec eval st (env : (string, value) Hashtbl.t) expr =
  match expr with
  | Int v -> VI v
  | Flt v -> VF v
  | Var name -> (
    match Hashtbl.find_opt env name with
    | Some v -> v
    | None -> error "unbound variable %S" name)
  | Ld (name, idx) -> (
    let ty, arr = Hashtbl.find st.globals name in
    let index = Int64.to_int (as_int (eval st env idx)) in
    if index < 0 || index >= Array.length arr then
      error "index %d out of bounds for %S (size %d)" index name
        (Array.length arr);
    match ty with
    | I -> VI arr.(index)
    | F -> VF (Int64.float_of_bits arr.(index)))
  | Bin (op, a, b) -> (
    let va = eval st env a and vb = eval st env b in
    match (va, vb) with
    | VI x, VI y -> VI (int_bin op x y)
    | VF x, VF y -> float_bin op x y
    | VI _, VF _ | VF _, VI _ -> error "mixed-type binary operator")
  | Un (op, a) -> (
    let va = eval st env a in
    match (op, va) with
    | Neg, VI x -> VI (Int64.neg x)
    (* Kc defines float negation as subtraction from zero, matching the
       SRISC lowering exactly (so 0.0 negates to +0.0, not -0.0). *)
    | Neg, VF x -> VF (0.0 -. x)
    | Bnot, VI x -> VI (Int64.lognot x)
    | Lnot, VI x -> VI (bool64 (Int64.equal x 0L))
    | (Bnot | Lnot), VF _ -> error "integer-only unary operator on a float")
  | Call (name, args) -> call_fun st name (List.map (eval st env) args)
  | I2f e -> VF (Int64.to_float (as_int (eval st env e)))
  | F2i e -> VI (Int64.of_float (as_float (eval st env e)))

and call_fun st name arg_values =
  let fd =
    match Hashtbl.find_opt st.funs name with
    | Some fd -> fd
    | None -> error "unbound function %S" name
  in
  let env = Hashtbl.create 16 in
  List.iter2
    (fun (pname, _) v -> Hashtbl.replace env pname v)
    fd.params arg_values;
  List.iter
    (fun (lname, ty) ->
      Hashtbl.replace env lname (match ty with I -> VI 0L | F -> VF 0.0))
    fd.locals;
  match exec_block st env fd.body with
  | () -> ( match fd.ret with I -> VI 0L | F -> VF 0.0)
  | exception Return_exn v -> v

and exec_block st env stmts = List.iter (exec_stmt st env) stmts

and exec_stmt st env stmt =
  st.steps <- st.steps + 1;
  if st.steps > st.max_steps then error "step budget exhausted";
  match stmt with
  | Set (name, e) -> Hashtbl.replace env name (eval st env e)
  | St (name, idx, e) -> (
    let ty, arr = Hashtbl.find st.globals name in
    let index = Int64.to_int (as_int (eval st env idx)) in
    if index < 0 || index >= Array.length arr then
      error "index %d out of bounds for %S (size %d)" index name
        (Array.length arr);
    match (ty, eval st env e) with
    | I, VI v -> arr.(index) <- v
    | F, VF v -> arr.(index) <- Int64.bits_of_float v
    | I, VF _ | F, VI _ -> error "store type mismatch for %S" name)
  | If (c, t, e) ->
    if not (Int64.equal (as_int (eval st env c)) 0L) then exec_block st env t
    else exec_block st env e
  | While (c, body) ->
    while not (Int64.equal (as_int (eval st env c)) 0L) do
      st.steps <- st.steps + 1;
      if st.steps > st.max_steps then error "step budget exhausted";
      exec_block st env body
    done
  | For (var, lo, hi, body) ->
    Hashtbl.replace env var (VI (as_int (eval st env lo)));
    let continue () =
      Int64.compare
        (as_int (Hashtbl.find env var))
        (as_int (eval st env hi))
      < 0
    in
    while continue () do
      st.steps <- st.steps + 1;
      if st.steps > st.max_steps then error "step budget exhausted";
      exec_block st env body;
      Hashtbl.replace env var (VI (Int64.add (as_int (Hashtbl.find env var)) 1L))
    done
  | Expr e -> ignore (eval st env e)
  | Ret None -> raise (Return_exn (VI 0L))
  | Ret (Some e) -> raise (Return_exn (eval st env e))

let run ?(max_steps = 100_000_000) prog =
  Pc_kc.Check.check prog;
  let st =
    {
      globals = Hashtbl.create 16;
      funs = Hashtbl.create 16;
      steps = 0;
      max_steps;
    }
  in
  List.iter
    (fun g ->
      let arr = Array.make g.elems 0L in
      Array.blit g.ginit 0 arr 0 (Array.length g.ginit);
      Hashtbl.replace st.globals g.gname (g.gty, arr))
    prog.globals;
  List.iter (fun fd -> Hashtbl.replace st.funs fd.fname fd) prog.funs;
  let return_value = as_int (call_fun st "main" []) in
  {
    return_value;
    globals =
      List.map (fun g -> (g.gname, snd (Hashtbl.find st.globals g.gname))) prog.globals;
    steps = st.steps;
  }
