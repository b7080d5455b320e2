(* The model's limits, demonstrated honestly (paper Section 6: "the data
   behavior associated with code that applies pointer chasing through a
   linked list cannot be modeled using a stride model as we do in this
   paper").

   This example builds a linked-list workload (randomly permuted next
   pointers, the classic pointer-chasing microbenchmark), clones it, and
   shows where the clone stops tracking: load-to-load address chains and
   non-strided reference sequences.

     dune exec examples/limitations.exe
*)

open Pc_kc.Ast
module Machine = Pc_funcsim.Machine
module Study = Pc_caches.Study

let n_nodes = 2048

(* A random cyclic permutation: node i's next pointer. *)
let next_init =
  let rng = Pc_util.Rng.create 2027 in
  let order = Array.init n_nodes (fun i -> i) in
  Pc_util.Rng.shuffle rng order;
  let next = Array.make n_nodes 0L in
  for k = 0 to n_nodes - 1 do
    next.(order.(k)) <- Int64.of_int order.((k + 1) mod n_nodes)
  done;
  next

let pointer_chase_prog =
  {
    globals = [ garr "next" ~init:next_init n_nodes ];
    funs =
      [
        fn "main" ~locals:[ ("cur", I); ("steps", I); ("acc", I) ]
          [
            for_ "steps" (i 0) (i 60_000)
              [
                set "cur" (ld "next" (v "cur"));
                set "acc" (v "acc" +: v "cur");
              ];
            ret (v "acc" &: i 0xFFFFFFF);
          ];
      ];
  }

let mpi program budget =
  Study.run_trace
    (Machine.run_data_refs ~max_instrs:budget (Machine.load program))
  |> Array.map (fun (r : Study.result) -> r.Study.mpi)

let () =
  let original = Pc_kc.Compile.compile ~name:"pointer_chase" pointer_chase_prog in
  let pipeline = Perfclone.Pipeline.clone_program ~profile_instrs:600_000 original in
  let profile = pipeline.Perfclone.Pipeline.profile in
  Format.printf "pointer-chase profile: single-stride fraction %.3f (low, as expected)@."
    profile.Pc_profile.Profile.single_stride_fraction;

  (* cache-study correlation *)
  let orig = mpi original 600_000 in
  let clone = mpi pipeline.Perfclone.Pipeline.clone 1_200_000 in
  Format.printf "cache-study correlation: %.3f@."
    (Pc_stats.Stats.pearson (Study.relative_mpi clone) (Study.relative_mpi orig));

  (* IPC: the serialised load-load chain is the bigger casualty *)
  let cfg = Pc_uarch.Config.with_rob_lsq ~rob:64 ~lsq:32
      (Pc_uarch.Config.with_widths 4 Pc_uarch.Config.base)
  in
  let ro = Pc_uarch.Sim.run ~max_instrs:600_000 cfg original in
  let rc = Pc_uarch.Sim.run ~max_instrs:600_000 cfg pipeline.Perfclone.Pipeline.clone in
  Format.printf "IPC on a wide machine: original %.3f, clone %.3f@." ro.Pc_uarch.Sim.ipc
    rc.Pc_uarch.Sim.ipc;
  Format.printf
    "@.The chase serialises on the load->address dependence; the clone's@.";
  Format.printf
    "streams have no such chain, so it overlaps its loads and runs faster.@.";
  Format.printf
    "This is the boundary the paper draws for the first-order stride model@.";
  Format.printf "(Section 6), reproduced here as a built-in counter-example.@."
