(* Cache design study: use a clone in lieu of the original application to
   rank 28 L1 D-cache configurations (the paper's Section 5.1 scenario —
   an architect picking a cache without access to the customer code).

     dune exec examples/cache_study.exe [BENCH]
*)

module Study = Pc_caches.Study
module Machine = Pc_funcsim.Machine

let mpi_of program =
  Study.run_trace
    (Machine.run_data_refs ~max_instrs:2_000_000 (Machine.load program))

let bar width frac =
  let n = int_of_float (frac *. float_of_int width) in
  String.make (min width n) '#'

let () =
  let bench = if Array.length Sys.argv > 1 then Sys.argv.(1) else "dijkstra" in
  let pipeline = Perfclone.Pipeline.clone_benchmark bench in
  let orig = mpi_of pipeline.Perfclone.Pipeline.original in
  let clone = mpi_of pipeline.Perfclone.Pipeline.clone in
  let peak =
    Array.fold_left (fun acc (r : Study.result) -> max acc r.Study.mpi) 1e-12 orig
  in
  Format.printf "misses per instruction across the 28-cache study (%s)@." bench;
  Format.printf "%-22s %10s %10s@." "configuration" "original" "clone";
  Array.iteri
    (fun i (ro : Study.result) ->
      Format.printf "%-22s %10.5f %10.5f  |%-20s|%-20s@."
        (Pc_caches.Cache.config_name ro.Study.config)
        ro.Study.mpi clone.(i).Study.mpi
        (bar 20 (ro.Study.mpi /. peak))
        (bar 20 (clone.(i).Study.mpi /. peak)))
    orig;
  (* The architect's question: do both agree on the ranking? *)
  let ranks v = Pc_stats.Stats.rankings v in
  let mpi r = Array.map (fun (x : Study.result) -> x.Study.mpi) r in
  let rank_corr = Pc_stats.Stats.spearman (mpi orig) (mpi clone) in
  Format.printf "@.rank correlation between original and clone: %.3f@." rank_corr;
  let ro = ranks (mpi orig) and rc = ranks (mpi clone) in
  let best v =
    let bi = ref 0 in
    Array.iteri (fun i r -> if r < v.(!bi) then bi := i) v;
    !bi
  in
  Format.printf "best configuration by original: %s@."
    (Pc_caches.Cache.config_name Study.configs.(best ro));
  Format.printf "best configuration by clone:    %s@."
    (Pc_caches.Cache.config_name Study.configs.(best rc))
