let line_bytes = 32

let configs =
  let sizes = [| 256; 512; 1024; 2048; 4096; 8192; 16384 |] in
  let assocs = [| 1; 2; 4; 0 |] in
  Array.concat
    (Array.to_list
       (Array.map
          (fun size ->
            Array.map
              (fun assoc -> Cache.config ~size_bytes:size ~assoc ~line_bytes)
              assocs)
          sizes))

let reference_index = 0

type result = { config : Cache.config; misses : int; accesses : int; mpi : float }

let c_runs = Pc_obs.Metrics.counter "study.runs"
let c_refs = Pc_obs.Metrics.counter "study.trace_refs"
let c_onepass_runs = Pc_obs.Metrics.counter "study.onepass.runs"
let c_onepass_refs = Pc_obs.Metrics.counter "study.onepass.trace_refs"

let run_trace ?warmup feed =
  let caches = Array.map Cache.create configs in
  let emit addr = Array.iter (fun c -> ignore (Cache.access c addr)) caches in
  (* References fed during warmup prime the tag state but are excluded
     from the reported counts by snapshotting each cache's counters at
     the warmup/measurement boundary. *)
  let warm_misses, warm_accesses =
    match warmup with
    | None -> (Array.make (Array.length caches) 0, Array.make (Array.length caches) 0)
    | Some warm ->
      warm emit;
      (Array.map Cache.misses caches, Array.map Cache.accesses caches)
  in
  let instrs = feed emit in
  Pc_obs.Metrics.incr c_runs;
  Pc_obs.Metrics.add c_refs
    (Cache.accesses caches.(reference_index) - warm_accesses.(reference_index));
  Array.init (Array.length configs) (fun i ->
      let misses = Cache.misses caches.(i) - warm_misses.(i) in
      {
        config = configs.(i);
        misses;
        accesses = Cache.accesses caches.(i) - warm_accesses.(i);
        mpi =
          (if instrs = 0 then 0.0
           else float_of_int misses /. float_of_int instrs);
      })

(* One-pass variant: same contract as [run_trace] (including the
   ?warmup snapshot semantics), but the grid is priced by a single
   stack-distance traversal instead of 28 tag-array simulations.  The
   test suite holds the two byte-identical per config. *)
let run_trace_onepass ?warmup feed =
  Pc_obs.Span.with_ "study:onepass" @@ fun () ->
  let prof = Stack_dist.create configs in
  let emit addr = Stack_dist.access prof addr in
  let warm_misses, warm_accesses =
    match warmup with
    | None -> (Array.make (Array.length configs) 0, 0)
    | Some warm ->
      warm emit;
      (Stack_dist.misses prof, Stack_dist.accesses prof)
  in
  let instrs = feed emit in
  Pc_obs.Metrics.incr c_onepass_runs;
  Pc_obs.Metrics.add c_onepass_refs (Stack_dist.accesses prof - warm_accesses);
  let misses = Stack_dist.misses prof in
  let accesses = Stack_dist.accesses prof - warm_accesses in
  Array.init (Array.length configs) (fun i ->
      let misses = misses.(i) - warm_misses.(i) in
      {
        config = configs.(i);
        misses;
        accesses;
        mpi =
          (if instrs = 0 then 0.0
           else float_of_int misses /. float_of_int instrs);
      })

let relative_mpi mpis =
  let reference = mpis.(reference_index) in
  let rest =
    Array.of_list
      (List.filteri (fun i _ -> i <> reference_index) (Array.to_list mpis))
  in
  (* A zero-MPI reference makes the ratios undefined; returning absolute
     MPIs here (as this once did) silently switches the series' units
     mid-pipeline.  NaN is the explicit sentinel: the pc JSON writers
     render non-finite values as null (PR 4 audit), so a degenerate
     series can never be mistaken for ratios downstream. *)
  if reference = 0.0 then Array.map (fun _ -> Float.nan) rest
  else Array.map (fun mpi -> mpi /. reference) rest
