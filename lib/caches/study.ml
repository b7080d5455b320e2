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

type grid = Caches of Cache.t array | Profile of Stack_dist.t

let grid ~onepass =
  if onepass then Profile (Stack_dist.create configs)
  else Caches (Array.map Cache.create configs)

let access g addr =
  match g with
  | Caches caches ->
    for i = 0 to Array.length caches - 1 do
      ignore (Cache.access (Array.unsafe_get caches i) addr)
    done
  | Profile prof -> Stack_dist.access prof addr

let accesses = function
  | Caches caches -> Cache.accesses caches.(reference_index)
  | Profile prof -> Stack_dist.accesses prof

let misses = function
  | Caches caches -> Array.map Cache.misses caches
  | Profile prof -> Stack_dist.misses prof

let finish g ~measured =
  let runs, refs =
    match g with
    | Caches _ -> (c_runs, c_refs)
    | Profile _ -> (c_onepass_runs, c_onepass_refs)
  in
  Pc_obs.Metrics.incr runs;
  Pc_obs.Metrics.add refs measured

let run g feed =
  let instrs = feed (access g) in
  let accesses = accesses g in
  finish g ~measured:accesses;
  Array.map2
    (fun config misses ->
      let mpi = if instrs = 0 then 0.0 else float_of_int misses /. float_of_int instrs in
      { config; misses; accesses; mpi })
    configs (misses g)

let run_trace feed = run (grid ~onepass:false) feed

let run_trace_onepass feed =
  Pc_obs.Span.with_ "study:onepass" @@ fun () -> run (grid ~onepass:true) feed

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
