(* Command line of the benchmark.

   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--jobs N]
     One run: with --trace 0, cold passes for S seconds with pc_obs off
     and the end-to-end metrics; with --trace 1, an untraced, a traced
     and another untraced pass, the layer probes, the per-layer metrics
     and the attribution table.  The last line of stdout is the result
     object.  --jobs overrides the workload's pool width.
   perfbench --self-test
     Every workload at a tiny scale through every check, both run kinds
     and the attribution; exit 0 when all pass.
   perfbench --setup-probe NAME [--jobs N]
     Internal: set up once in this fresh process and print the compile
     and pool-creation seconds (the timed and traced runs spawn these).
   perfbench --speed-sampler
     Internal: log the machine's speed until killed (see Speed; the
     timed run spawns one). *)

let usage () =
  prerr_endline
    "usage: perfbench --workload (paper|clone|corun|sampled) --seed N --seconds S \
     --trace 0|1 [--jobs N]\n       perfbench --self-test";
  exit 2

let rec options acc = function
  | [] -> List.rev acc
  | ("--self-test" | "--speed-sampler") as flag :: rest ->
    options ((String.sub flag 2 (String.length flag - 2), "") :: acc) rest
  | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
    options ((String.sub key 2 (String.length key - 2), value) :: acc) rest
  | _ -> usage ()

let main argv =
  let opts = options [] (List.tl (Array.to_list argv)) in
  let get key = List.assoc_opt key opts in
  let int key =
    Option.map (fun v -> match int_of_string_opt v with Some n -> n | None -> usage ()) (get key)
  in
  let jobs = match int "jobs" with Some n when n < 1 -> usage () | j -> j in
  Pc_obs.Logging.setup ~quiet:true ();
  if get "speed-sampler" <> None then begin
    Speed.sampler_main ();
    0
  end
  else if get "self-test" <> None then if Runs.self_test () then 0 else 1
  else
    match get "setup-probe" with
    | Some name when List.mem name Workloads.names ->
      Runs.setup_probe (Workloads.make ?jobs ~scale:Workloads.Full ~seed:1 ~work_dir:"" name);
      0
    | Some _ -> usage ()
    | None -> (
      let seconds = Option.bind (get "seconds") float_of_string_opt in
      match (get "workload", int "seed", seconds, int "trace") with
      | Some name, Some seed, Some seconds, Some trace
        when List.mem name Workloads.names && (trace = 0 || trace = 1) ->
        if trace = 0 then
          Runs.print ~catalogue:Report.end_to_end (Runs.timed ?jobs ~seed ~seconds name)
        else Runs.print ~catalogue:Report.per_layer (Runs.traced ?jobs ~seed name);
        0
      | _ -> usage ())
