(* Dispatch-speed gate: the pre-decoded engine's batched path
   ([Machine.run_batched]) against the reference interpreter
   ([Machine_ref.run]) on one ALU-dominant kernel.

     dune exec test/oracle/dispatch_speed.exe

   The kernel isolates dispatch cost; memory-heavy workloads dilute it
   behind page-cache traffic.  A pair loads a fresh machine for each
   side and times load plus a 200k-instruction run of each, swapping
   which side goes first every pair, so a change in machine speed
   lands on both sides alike.  The gate is the median per-pair ratio
   (reference time / engine time): exit 0 when it reaches [bound], 1
   when it does not. *)

module Machine = Pc_funcsim.Machine

let budget = 200_000
let pairs = 21
let bound = 5.0

let kernel =
  let open Pc_isa.Instr in
  let body =
    [|
      Alu (Add, 5, 4, 3); Alu (Xor, 6, 5, 4); Alui (Sll, 7, 6, 7);
      Alu (Or, 8, 7, 5); Alui (Srl, 9, 8, 3); Alu (Sub, 4, 9, 6);
      Alui (Add, 5, 5, 17); Alu (And, 6, 5, 9);
    |]
  in
  let code =
    Array.concat
      [
        [| Li (3, 1_000_000_000L) |];
        body;
        [| Alui (Sub, 3, 3, 1); Br (Ne_z, 3, Abs 1); Halt |];
      ]
  in
  Pc_isa.Program.v ~name:"dispatch-kernel" ~code ~data:[] ~data_bytes:0

let reference () =
  Machine_ref.run ~max_instrs:budget (Machine_ref.load kernel) ignore

let engine () =
  Machine.run_batched ~max_instrs:budget (Machine.load kernel) ignore

(* Seconds for one run; both sides must retire the whole budget. *)
let time run =
  let t0 = Unix.gettimeofday () in
  let retired = run () in
  let dt = Unix.gettimeofday () -. t0 in
  if retired <> budget then begin
    Printf.eprintf "dispatch_speed: retired %d of %d instructions\n" retired budget;
    exit 2
  end;
  dt

let pair i =
  if i mod 2 = 0 then
    let r = time reference in
    (r, time engine)
  else
    let e = time engine in
    (time reference, e)

(* Linear-interpolated quantile of a sorted array. *)
let quantile sorted q =
  let pos = q *. float_of_int (Array.length sorted - 1) in
  let lo = int_of_float pos in
  let hi = min (lo + 1) (Array.length sorted - 1) in
  sorted.(lo) +. ((pos -. float_of_int lo) *. (sorted.(hi) -. sorted.(lo)))

let () =
  ignore (pair 0);
  let times = Array.init pairs pair in
  let sorted f =
    let a = Array.map f times in
    Array.sort compare a;
    a
  in
  let ratios = sorted (fun (r, e) -> r /. e) in
  let ref_s = quantile (sorted fst) 0.5 and engine_s = quantile (sorted snd) 0.5 in
  let median = quantile ratios 0.5 in
  let mips s = float_of_int budget /. s /. 1e6 in
  Printf.printf "dispatch-kernel, %d instructions, %d alternating pairs\n"
    budget pairs;
  Printf.printf "  reference interpreter   %7.3f ms/run  %6.1f M instrs/s\n"
    (ref_s *. 1e3) (mips ref_s);
  Printf.printf "  engine (run_batched)    %7.3f ms/run  %6.1f M instrs/s\n"
    (engine_s *. 1e3) (mips engine_s);
  let ok = median >= bound in
  Printf.printf
    "  per-pair ratio: median %.2fx (quartiles %.2fx-%.2fx), bound %.1fx: %s\n"
    median (quantile ratios 0.25) (quantile ratios 0.75) bound
    (if ok then "ok" else "FAILED");
  exit (if ok then 0 else 1)
