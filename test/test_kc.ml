(* Tests for the Kc language: type checker, interpreter, and differential
   testing of the compiler against the interpreter. *)

open Pc_kc.Ast
module Check = Pc_kc.Check
module Interp = Kc_interp
module Compile = Pc_kc.Compile
module Machine = Pc_funcsim.Machine
module Memory = Pc_funcsim.Memory
module Program = Pc_isa.Program

(* Run a program both ways and compare the return value and every global
   array word. *)
let run_both ?(max_instrs = 5_000_000) prog =
  let interp_result = Interp.run prog in
  let compiled = Compile.compile ~name:"test" prog in
  let m = Machine.load compiled in
  let _ = Machine.run ~max_instrs m (fun _ -> ()) in
  if not (Machine.halted m) then Alcotest.fail "compiled program did not halt";
  let machine_ret = Machine.ireg m Pc_isa.Reg.ret in
  let offsets = Compile.global_offsets prog in
  let mem = Machine.memory m in
  List.iter
    (fun (g : global) ->
      let off = List.assoc g.gname offsets in
      let interp_arr = List.assoc g.gname interp_result.Interp.globals in
      for i = 0 to g.elems - 1 do
        let addr = Program.data_base + off + (8 * i) in
        let got = Memory.read mem addr in
        if got <> interp_arr.(i) then
          Alcotest.failf "global %s[%d]: interp %Ld, compiled %Ld" g.gname i
            interp_arr.(i) got
      done)
    prog.globals;
  Alcotest.(check int64)
    "return value matches interpreter" interp_result.Interp.return_value machine_ret;
  machine_ret

let simple_main ?(globals = []) ?(funs = []) ?(locals = []) body =
  { globals; funs = funs @ [ fn "main" ~locals body ] }

(* --- type checker --- *)

let expect_check_error prog =
  match Check.check prog with
  | () -> Alcotest.fail "expected a type error"
  | exception Check.Error _ -> ()

let test_check_rejects_unknown_var () =
  expect_check_error (simple_main [ ret (v "nope") ])

let test_check_rejects_mixed_arith () =
  expect_check_error
    (simple_main ~locals:[ ("x", I); ("y", F) ] [ ret (v "x" +: I2f (v "x" +: v "x") ) ]);
  expect_check_error (simple_main [ ret (i 1 +: f 2.0) ])

let test_check_rejects_float_bitops () =
  expect_check_error (simple_main [ ret (F2i (f 1.0 &: f 2.0)) ])

let test_check_rejects_missing_main () =
  expect_check_error { globals = []; funs = [ fn "not_main" [ ret (i 0) ] ] }

let test_check_rejects_bad_arity () =
  expect_check_error
    (simple_main
       ~funs:[ fn "id" ~params:[ ("x", I) ] [ ret (v "x") ] ]
       [ ret (call "id" [ i 1; i 2 ]) ])

let test_check_rejects_float_for_var () =
  expect_check_error
    (simple_main ~locals:[ ("x", F) ] [ for_ "x" (i 0) (i 3) []; ret (i 0) ])

let test_check_accepts_valid () =
  Check.check
    (simple_main ~locals:[ ("x", I) ] [ set "x" (i 1); ret (v "x") ])

(* --- interpreter semantics --- *)

let test_interp_arith () =
  let r = Interp.run (simple_main [ ret ((i 6 *: i 7) +: (i 10 /: i 3)) ]) in
  Alcotest.(check int64) "6*7 + 10/3" 45L r.Interp.return_value

let test_interp_div_by_zero () =
  let r = Interp.run (simple_main [ ret ((i 7 /: i 0) +: (i 7 %: i 0)) ]) in
  Alcotest.(check int64) "div/mod by zero are 0" 0L r.Interp.return_value

let test_interp_bounds_check () =
  let prog = simple_main ~globals:[ garr "a" 4 ] [ ret (ld "a" (i 9)) ] in
  Alcotest.(check bool) "out of bounds detected" true
    (try
       ignore (Interp.run prog);
       false
     with Interp.Runtime_error _ -> true)

let test_interp_step_budget () =
  let prog = simple_main ~locals:[ ("x", I) ] [ while_ (i 1) [ set "x" (v "x") ]; ret (i 0) ] in
  Alcotest.(check bool) "infinite loop stopped" true
    (try
       ignore (Interp.run ~max_steps:10_000 prog);
       false
     with Interp.Runtime_error _ -> true)

(* --- differential compiler tests --- *)

let test_compile_arith () =
  let ret_val =
    run_both
      (simple_main
         [ ret (((i 3 +: i 4) *: (i 10 -: i 2)) -: (i 100 /: i 7) %: i 5) ])
  in
  Alcotest.(check int64) "expected value" 52L ret_val

let test_compile_comparisons () =
  let checksum =
    (* Encode all comparison results into one integer. *)
    ret
      ((i 3 <: i 4)
      +: ((i 4 <=: i 4) <<: i 1)
      +: ((i 5 >: i 4) <<: i 2)
      +: ((i 5 >=: i 6) <<: i 3)
      +: ((i 7 =: i 7) <<: i 4)
      +: ((i 7 <>: i 7) <<: i 5)
      +: ((i (-1) <: i 0) <<: i 6))
  in
  let r = run_both (simple_main [ checksum ]) in
  Alcotest.(check int64) "comparison bits" 0b1010111L r

let test_compile_logical_ops () =
  let r =
    run_both
      (simple_main
         [
           ret
             ((i 3 &&: i 5)
             +: ((i 0 ||: i 9) <<: i 1)
             +: ((i 0 &&: i 2) <<: i 2)
             +: (Un (Lnot, i 0) <<: i 3)
             +: (Un (Lnot, i 42) <<: i 4));
         ])
  in
  Alcotest.(check int64) "logical ops" 0b1011L r

let test_compile_negative_numbers () =
  let r =
    run_both
      (simple_main
         [ ret (Un (Neg, i 21) *: Un (Neg, i 2) +: (Un (Bnot, i 0) +: i 1)) ])
  in
  Alcotest.(check int64) "negation and complement" 42L r

let test_compile_if_else () =
  let prog =
    simple_main ~locals:[ ("x", I) ]
      [
        set "x" (i 10);
        if_ (v "x" >: i 5) [ set "x" (v "x" +: i 100) ] [ set "x" (i 0) ];
        if_ (v "x" <: i 5) [ set "x" (i 0) ] [ set "x" (v "x" +: i 1) ];
        ret (v "x");
      ]
  in
  Alcotest.(check int64) "nested if/else" 111L (run_both prog)

let test_compile_while_loop () =
  let prog =
    simple_main ~locals:[ ("s", I); ("n", I) ]
      [
        set "n" (i 100);
        while_ (v "n" >: i 0)
          [ set "s" (v "s" +: v "n"); set "n" (v "n" -: i 1) ];
        ret (v "s");
      ]
  in
  Alcotest.(check int64) "sum 1..100" 5050L (run_both prog)

let test_compile_for_loop () =
  let prog =
    simple_main ~locals:[ ("s", I); ("j", I) ]
      [ for_ "j" (i 0) (i 10) [ set "s" (v "s" +: (v "j" *: v "j")) ]; ret (v "s") ]
  in
  Alcotest.(check int64) "sum of squares < 10" 285L (run_both prog)

let test_compile_global_arrays () =
  let prog =
    simple_main
      ~globals:[ garr "a" ~init:[| 5L; 6L; 7L |] 8 ]
      ~locals:[ ("j", I); ("s", I) ]
      [
        for_ "j" (i 3) (i 8) [ st "a" (v "j") (v "j" *: i 2) ];
        for_ "j" (i 0) (i 8) [ set "s" (v "s" +: ld "a" (v "j")) ];
        ret (v "s");
      ]
  in
  Alcotest.(check int64) "array sum" (Int64.of_int (5 + 6 + 7 + 6 + 8 + 10 + 12 + 14))
    (run_both prog)

let test_compile_functions_and_recursion () =
  let fib =
    fn "fib" ~params:[ ("n", I) ]
      [
        if_ (v "n" <: i 2) [ ret (v "n") ] [];
        ret (call "fib" [ v "n" -: i 1 ] +: call "fib" [ v "n" -: i 2 ]);
      ]
  in
  let prog = simple_main ~funs:[ fib ] [ ret (call "fib" [ i 15 ]) ] in
  Alcotest.(check int64) "fib 15" 610L (run_both prog)

let test_compile_mutual_recursion () =
  let is_even =
    fn "is_even" ~params:[ ("n", I) ]
      [ if_ (v "n" =: i 0) [ ret (i 1) ] []; ret (call "is_odd" [ v "n" -: i 1 ]) ]
  in
  let is_odd =
    fn "is_odd" ~params:[ ("n", I) ]
      [ if_ (v "n" =: i 0) [ ret (i 0) ] []; ret (call "is_even" [ v "n" -: i 1 ]) ]
  in
  let prog =
    simple_main ~funs:[ is_even; is_odd ]
      [ ret (call "is_even" [ i 10 ] +: (call "is_odd" [ i 7 ] <<: i 1)) ]
  in
  Alcotest.(check int64) "mutual recursion" 3L (run_both prog)

let test_compile_float_math () =
  let prog =
    simple_main ~locals:[ ("x", F); ("y", F) ]
      [
        set "x" (f 1.5);
        set "y" ((v "x" *: f 4.0) -: (f 1.0 /: f 8.0));
        ret (F2i (v "y" *: f 1000.0));
      ]
  in
  Alcotest.(check int64) "float pipeline" 5875L (run_both prog)

let test_compile_float_compare_and_neg () =
  let prog =
    simple_main ~locals:[ ("x", F) ]
      [
        set "x" (Un (Neg, f 2.5));
        ret ((v "x" <: f 0.0) +: ((v "x" =: f (-2.5)) <<: i 1) +: ((f 1.0 >=: f 1.0) <<: i 2));
      ]
  in
  Alcotest.(check int64) "float compares" 7L (run_both prog)

let test_compile_float_arrays () =
  let prog =
    simple_main
      ~globals:[ gfarr "w" ~init:[| 0.5; 1.5; 2.5; 3.5 |] 4 ]
      ~locals:[ ("j", I); ("acc", F) ]
      [
        for_ "j" (i 0) (i 4) [ set "acc" (v "acc" +: (ld "w" (v "j") *: ld "w" (v "j"))) ];
        ret (F2i (v "acc" *: f 100.0));
      ]
  in
  (* 0.25 + 2.25 + 6.25 + 12.25 = 21.0 *)
  Alcotest.(check int64) "float array dot" 2100L (run_both prog)

let test_compile_many_args () =
  let sum6 =
    fn "sum6"
      ~params:[ ("a", I); ("b", I); ("c", I); ("d", I); ("e", I); ("g", I) ]
      [ ret (v "a" +: v "b" +: v "c" +: v "d" +: v "e" +: v "g") ]
  in
  let prog =
    simple_main ~funs:[ sum6 ] [ ret (call "sum6" [ i 1; i 2; i 3; i 4; i 5; i 6 ]) ]
  in
  Alcotest.(check int64) "six arguments" 21L (run_both prog)

let test_compile_mixed_args () =
  let mix =
    fn "mix" ~params:[ ("a", I); ("x", F); ("b", I); ("y", F) ]
      [ ret (v "a" +: v "b" +: F2i (v "x" *: v "y")) ]
  in
  let prog = simple_main ~funs:[ mix ] [ ret (call "mix" [ i 1; f 2.0; i 3; f 4.0 ]) ] in
  Alcotest.(check int64) "mixed int/float arguments" 12L (run_both prog)

let test_compile_nested_calls () =
  let inc = fn "inc" ~params:[ ("x", I) ] [ ret (v "x" +: i 1) ] in
  let prog =
    simple_main ~funs:[ inc ]
      [ ret (call "inc" [ call "inc" [ call "inc" [ i 0 ] ] ] +: call "inc" [ i 10 ]) ]
  in
  Alcotest.(check int64) "nested and sequential calls" 14L (run_both prog)

let test_compile_spilled_locals () =
  (* More locals than register homes: forces frame spills. *)
  let names = List.init 20 (fun k -> Printf.sprintf "v%d" k) in
  let locals = List.map (fun n -> (n, I)) names in
  let assigns = List.mapi (fun k n -> set n (i (k + 1))) names in
  let total =
    List.fold_left (fun acc n -> acc +: v n) (i 0) names
  in
  let prog = simple_main ~locals (assigns @ [ ret total ]) in
  Alcotest.(check int64) "spilled locals survive" 210L (run_both prog)

let test_compile_temps_across_calls () =
  (* A live temporary must survive a call that uses temporaries itself. *)
  let noisy =
    fn "noisy" ~params:[ ("x", I) ] ~locals:[ ("t", I) ]
      [ set "t" ((v "x" *: i 3) +: (v "x" /: i 2)); ret (v "t") ]
  in
  let prog =
    simple_main ~funs:[ noisy ]
      [ ret ((i 1000 +: (i 23 *: i 2)) -: call "noisy" [ i 2 ]) ]
  in
  Alcotest.(check int64) "temp live across call" 1039L (run_both prog)

let test_compile_i2f_f2i () =
  let prog =
    simple_main ~locals:[ ("n", I) ]
      [ set "n" (i 7); ret (F2i (I2f (v "n") *: f 1.5) +: F2i (f (-2.7))) ]
  in
  Alcotest.(check int64) "conversions truncate" 8L (run_both prog)

(* --- property: random straight-line integer programs agree --- *)

let gen_expr : expr QCheck.Gen.t =
  let open QCheck.Gen in
  let leaf =
    oneof
      [
        map (fun n -> Int (Int64.of_int n)) (int_range (-1000) 1000);
        oneofl [ Var "a"; Var "b"; Var "c" ];
      ]
  in
  let op = oneofl [ Add; Sub; Mul; Div; Mod; Band; Bor; Bxor ] in
  fix
    (fun self depth ->
      if depth <= 0 then leaf
      else
        frequency
          [
            (2, leaf);
            (3, map3 (fun o l r -> Bin (o, l, r)) op (self (depth - 1)) (self (depth - 1)));
            (1, map (fun e -> Un (Neg, e)) (self (depth - 1)));
            (1, map (fun e -> Un (Bnot, e)) (self (depth - 1)));
          ])
    2

let qcheck_random_exprs_agree =
  let arb = QCheck.make ~print:(fun _ -> "<expr>") gen_expr in
  QCheck.Test.make ~name:"random integer expressions: interp = compiled" ~count:200 arb
    (fun e ->
      let prog =
        simple_main
          ~locals:[ ("a", I); ("b", I); ("c", I) ]
          [ set "a" (i 12); set "b" (i (-7)); set "c" (i 1000003); ret e ]
      in
      let interp_v = (Interp.run prog).Interp.return_value in
      let compiled = Compile.compile ~name:"q" prog in
      let m = Machine.load compiled in
      let _ = Machine.run ~max_instrs:100_000 m (fun _ -> ()) in
      Machine.halted m && Machine.ireg m Pc_isa.Reg.ret = interp_v)

let qcheck_random_array_walks_agree =
  let open QCheck in
  Test.make ~name:"random array walk programs: interp = compiled" ~count:50
    (pair (int_range 1 31) (int_range 1 7))
    (fun (stride, xor_k) ->
      let prog =
        simple_main
          ~globals:[ garr "a" 64 ]
          ~locals:[ ("j", I); ("s", I) ]
          [
            for_ "j" (i 0) (i 64)
              [ st "a" (v "j") ((v "j" *: i stride) ^: i xor_k) ];
            for_ "j" (i 0) (i 64)
              [ set "s" (v "s" +: ld "a" ((v "j" *: i stride) %: i 64)) ];
            ret (v "s");
          ]
      in
      let interp_v = (Interp.run prog).Interp.return_value in
      let compiled = Compile.compile ~name:"q" prog in
      let m = Machine.load compiled in
      let _ = Machine.run ~max_instrs:1_000_000 m (fun _ -> ()) in
      Machine.halted m && Machine.ireg m Pc_isa.Reg.ret = interp_v)

let () =
  Alcotest.run "pc_kc"
    [
      ( "check",
        [
          Alcotest.test_case "unknown variable" `Quick test_check_rejects_unknown_var;
          Alcotest.test_case "mixed arithmetic" `Quick test_check_rejects_mixed_arith;
          Alcotest.test_case "float bit operations" `Quick test_check_rejects_float_bitops;
          Alcotest.test_case "missing main" `Quick test_check_rejects_missing_main;
          Alcotest.test_case "bad arity" `Quick test_check_rejects_bad_arity;
          Alcotest.test_case "float for-variable" `Quick test_check_rejects_float_for_var;
          Alcotest.test_case "valid program accepted" `Quick test_check_accepts_valid;
        ] );
      ( "interp",
        [
          Alcotest.test_case "arithmetic" `Quick test_interp_arith;
          Alcotest.test_case "division by zero" `Quick test_interp_div_by_zero;
          Alcotest.test_case "array bounds" `Quick test_interp_bounds_check;
          Alcotest.test_case "step budget" `Quick test_interp_step_budget;
        ] );
      ( "compile",
        [
          Alcotest.test_case "arithmetic" `Quick test_compile_arith;
          Alcotest.test_case "comparisons" `Quick test_compile_comparisons;
          Alcotest.test_case "logical operators" `Quick test_compile_logical_ops;
          Alcotest.test_case "negative numbers" `Quick test_compile_negative_numbers;
          Alcotest.test_case "if/else" `Quick test_compile_if_else;
          Alcotest.test_case "while loop" `Quick test_compile_while_loop;
          Alcotest.test_case "for loop" `Quick test_compile_for_loop;
          Alcotest.test_case "global arrays" `Quick test_compile_global_arrays;
          Alcotest.test_case "recursion" `Quick test_compile_functions_and_recursion;
          Alcotest.test_case "mutual recursion" `Quick test_compile_mutual_recursion;
          Alcotest.test_case "float math" `Quick test_compile_float_math;
          Alcotest.test_case "float compare and negate" `Quick
            test_compile_float_compare_and_neg;
          Alcotest.test_case "float arrays" `Quick test_compile_float_arrays;
          Alcotest.test_case "six int arguments" `Quick test_compile_many_args;
          Alcotest.test_case "mixed-type arguments" `Quick test_compile_mixed_args;
          Alcotest.test_case "nested calls" `Quick test_compile_nested_calls;
          Alcotest.test_case "spilled locals" `Quick test_compile_spilled_locals;
          Alcotest.test_case "temporaries live across calls" `Quick
            test_compile_temps_across_calls;
          Alcotest.test_case "int/float conversions" `Quick test_compile_i2f_f2i;
          QCheck_alcotest.to_alcotest qcheck_random_exprs_agree;
          QCheck_alcotest.to_alcotest qcheck_random_array_walks_agree;
        ] );
    ]
