(* The benchmark's run modes: the timed run (end-to-end metrics), the
   traced run (per-layer metrics and attribution), the fresh-process
   set-up probe both of them use, and the tiny-scale self-test. *)

module W = Workloads
module Pool = Pc_exec.Pool
module Registry = Pc_workloads.Registry

type result = {
  tally : Tally.t;
  values : (string * float) list;  (** catalogue metrics by name *)
  report : string;  (** human-readable report, printed before the result line *)
}

(* What a fresh invocation does before its first driver call: compile
   the workload's Kc sources through the registry (memoised there for
   every later pass) and create the pool at the workload's width. *)
let setup (w : W.t) =
  let (), compile_s =
    Measure.time (fun () ->
        List.iter (fun n -> ignore (Registry.compile (Registry.find n))) w.W.sources)
  in
  let pool, pool_s = Measure.time (fun () -> Pool.create ~num_domains:w.W.jobs) in
  (pool, compile_s, pool_s)

(* Set-up is a millisecond, so one reading is mostly noise, and only
   the first call in a process compiles.  Each sample is a fresh process
   of this executable that sets up once and reports; the median of
   [setup_samples] of them is the figure. *)
let setup_samples = 15

let fresh_setups (w : W.t) =
  List.init setup_samples (fun _ ->
      let args =
        [| Sys.executable_name; "--setup-probe"; w.W.name; "--jobs"; string_of_int w.W.jobs |]
      in
      let ic = Unix.open_process_args_in Sys.executable_name args in
      let line = try input_line ic with End_of_file -> "" in
      match (Unix.close_process_in ic, String.split_on_char ' ' line) with
      | Unix.WEXITED 0, [ c; p ] -> (float_of_string c, float_of_string p)
      | _ -> failwith ("set-up probe failed: " ^ line))

let setup_probe (w : W.t) =
  let _, compile_s, pool_s = setup w in
  Printf.printf "%.9f %.9f\n" compile_s pool_s

let work_dir name = Filename.concat W.scratch_root (Printf.sprintf "%s-%d" name (Unix.getpid ()))

let with_workload ?jobs ~scale ~seed name f =
  Pc_obs.Metrics.set_enabled false;
  let dir = work_dir name in
  let w = W.make ?jobs ~scale ~seed ~work_dir:dir name in
  Fun.protect ~finally:(fun () -> W.remove_tree dir) (fun () -> f w dir)

(* One cold pass, with a tally of its own (see [Tally.add_passes]). *)
let timed_pass pool (w : W.t) =
  let tally = Tally.create () in
  let pass, dt = Measure.time (fun () -> w.W.run_pass tally pool) in
  (pass, tally, dt)

(* Every cold pass of a deterministic workload prints the same output. *)
let same_output tally what (reference : W.pass) passes =
  Tally.check tally ("same output " ^ what)
    (List.for_all (fun (p : W.pass) -> String.equal reference.W.output p.W.output) passes)


let accuracy_lines ppf figures =
  List.iter
    (fun (name, v) ->
      let unit = Option.value ~default:"" (List.assoc_opt name Report.accuracy_units) in
      Report.pp_metric ppf (name, unit, v))
    figures

let notes_lines ppf tally =
  Format.fprintf ppf "operations: %d attempted, %d failed%s@." tally.Tally.attempted
    tally.Tally.failed
    (if Tally.correct tally then "" else " (output checks failed)");
  List.iter (fun n -> Format.fprintf ppf "  %s@." n) (Tally.notes tally)

(* Printed by timed and traced runs alike, so the two can be compared. *)
let digest_line ppf (pass : W.pass) =
  Format.fprintf ppf "output digest: %s@." (Digest.to_hex (Digest.string pass.W.output))

let render f =
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  f ppf;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

(* --- timed run: cold passes until the time is used --- *)

let timed ?jobs ?(scale = W.Full) ~seed ~seconds name =
  with_workload ?jobs ~scale ~seed name @@ fun w dir ->
  let setups = fresh_setups w in
  (* A one-domain workload runs on one CPU with its speed sampler beside
     it on that CPU, so the sampler times the CPU the passes run on (see
     Speed). *)
  let cpu = if w.W.jobs = 1 then Measure.pin_to_current_cpu () else -1 in
  let pool, _, _ = setup w in
  let tally = Tally.create () in
  W.mkdir_p dir;
  let sampler = Speed.start ~dir in
  let t0 = Measure.now () in
  let rec loop acc =
    let start = Measure.now () in
    let pass, pass_tally, dt = timed_pass pool w in
    let acc = (pass, pass_tally, start, dt) :: acc in
    let typical = Measure.median (List.map (fun (_, _, _, dt) -> dt) acc) in
    if List.length acc < w.W.min_passes || Measure.now () -. t0 +. typical <= seconds then loop acc
    else List.rev acc
  in
  let samples = ref [] in
  let passes =
    Fun.protect ~finally:(fun () -> samples := Speed.stop sampler) (fun () -> loop [])
  in
  let peak_rss_mb = Measure.peak_rss_mb () in
  Tally.add_passes tally (List.map (fun (_, t, _, _) -> t) passes);
  let outputs = List.map (fun (p, _, _, _) -> p) passes in
  same_output tally "on every pass" (List.hd outputs) outputs;
  let last = List.hd (List.rev outputs) in
  let figures = last.W.accuracy @ w.W.finish tally pool in
  let times = List.map (fun (_, _, _, dt) -> dt) passes in
  let paced =
    List.map (fun (_, _, start, dt) -> Speed.pace !samples ~t0:start ~seconds:dt) passes
  in
  let values =
    [
      ("wall_s", Measure.median paced);
      ("setup_s", Measure.median (List.map (fun (c, p) -> c +. p) setups));
      ("peak_rss_mb", peak_rss_mb);
      ("clone_fitness", Option.value ~default:nan (List.assoc_opt "clone_fitness" figures));
    ]
  in
  List.iter
    (fun (name, v) -> Tally.check tally (name ^ " is a positive finite number") (W.finite_pos v))
    values;
  let report =
    render (fun ppf ->
        let secs l = String.concat ", " (List.map (Printf.sprintf "%.3f") l) in
        Format.fprintf ppf
          "perfbench %s: seed %d, -j %d%s, %d cold pass%s, pc_obs off: raw %s s, paced %s s \
           (%d speed samples)@."
          name seed w.W.jobs
          (if cpu >= 0 then Printf.sprintf " on CPU %d" cpu else "")
          (List.length passes)
          (if List.length passes = 1 then "" else "es")
          (secs times) (secs paced) (List.length !samples);
        List.iter
          (fun { Report.name; unit } -> Report.pp_metric ppf (name, unit, List.assoc name values))
          Report.end_to_end;
        Format.fprintf ppf "accuracy (deterministic for the seed):@.";
        accuracy_lines ppf (List.filter (fun (n, _) -> n <> "clone_fitness") figures);
        digest_line ppf last;
        notes_lines ppf tally)
  in
  { tally; values; report }

(* --- traced run: per-layer metrics and attribution --- *)

let histogram_sum (snap : Pc_obs.Metrics.snapshot) name =
  match List.assoc_opt name snap.Pc_obs.Metrics.histograms with
  | Some h -> h.Pc_obs.Metrics.sum
  | None -> 0.0

(* Layer seconds are spent on every domain of the pool, so shares are of
   the pass's wall time times its domains. *)
let attribution_table ppf ~wall ~domains rows =
  Format.fprintf ppf "attribution of the untraced pass (%.3f s x %d domain%s):@." wall domains
    (if domains = 1 then "" else "s");
  let wall = wall *. float_of_int domains in
  Format.fprintf ppf "  %-20s %14s %12s %10s %7s@." "layer" "units" "unit cost" "seconds" "share";
  let attributed =
    List.fold_left
      (fun acc (r : Layers.attribution_row) ->
        Format.fprintf ppf "  %-20s %14.0f %9.1f ns/%s %10.3f %6.1f%%@." r.Layers.layer
          r.Layers.units (1e9 *. r.Layers.unit_s) r.Layers.unit_name r.Layers.seconds
          (100.0 *. r.Layers.seconds /. wall);
        acc +. r.Layers.seconds)
      0.0 rows
  in
  Format.fprintf ppf "  %-20s %14s %12s %10.3f %6.1f%%@." "unattributed" "" ""
    (wall -. attributed)
    (100.0 *. (wall -. attributed) /. wall)

let traced ?jobs ?(scale = W.Full) ~seed name =
  with_workload ?jobs ~scale ~seed name @@ fun w _dir ->
  let setups = fresh_setups w in
  let pool, _, _ = setup w in
  let tally = Tally.create () in
  let cold, cold_tally, cold_s = timed_pass pool w in
  W.mkdir_p W.scratch_root;
  let trace_path = Filename.concat W.scratch_root (name ^ ".trace.json") in
  let before = Pc_obs.Metrics.snapshot () in
  let chrome = Pc_trace.Chrome.start ~period_s:0.0 trace_path in
  let traced_pass, traced_tally, traced_s = timed_pass pool w in
  let after = Pc_obs.Metrics.snapshot () in
  Pc_trace.Chrome.stop chrome;
  let (warm, warm_tally, warm_s), gc = Layers.gc_stat (fun () -> timed_pass pool w) in
  Tally.add_passes tally [ cold_tally; traced_tally; warm_tally ];
  same_output tally "traced and untraced" cold [ traced_pass ];
  same_output tally "on every pass" cold [ warm ];
  let probes = Layers.run tally (w.W.probe_set ()) in
  let delta = Pc_obs.Metrics.diff ~before ~after in
  let t =
    {
      Layers.wall = warm_s;
      traced_wall = traced_s;
      counters = delta.Pc_obs.Metrics.counters;
      busy_s = histogram_sum delta "exec.pool.task_seconds";
      domains = w.W.jobs;
      pass = traced_pass;
      gc;
      setup =
        [
          ("kc.compile_ms", 1e3 *. Measure.median (List.map fst setups));
          ("exec.pool.create_ms", 1e3 *. Measure.median (List.map snd setups));
        ];
    }
  in
  let values = Layers.metrics t probes in
  let rows = Layers.attribution t probes in
  let table = render (fun ppf -> attribution_table ppf ~wall:warm_s ~domains:w.W.jobs rows) in
  let oc = open_out (Filename.concat W.scratch_root (name ^ ".attribution.txt")) in
  output_string oc table;
  close_out oc;
  let report =
    render (fun ppf ->
        Format.fprintf ppf
          "perfbench %s (traced): seed %d, -j %d; passes untraced %.3f s, traced %.3f s, \
           untraced %.3f s@."
          name seed w.W.jobs cold_s traced_s warm_s;
        List.iter
          (fun { Report.name; unit } -> Report.pp_metric ppf (name, unit, List.assoc name values))
          Report.per_layer;
        Format.pp_print_string ppf table;
        Format.fprintf ppf "timeline: %s@." trace_path;
        digest_line ppf traced_pass;
        notes_lines ppf tally)
  in
  { tally; values; report }

let result_line ~catalogue r =
  Report.result_line ~correct:(Tally.correct r.tally) ~attempted:r.tally.Tally.attempted
    ~failed:r.tally.Tally.failed catalogue r.values

let print ~catalogue r =
  print_string r.report;
  print_endline (result_line ~catalogue r)

(* --- self-test: every workload, tiny, through every check ---

   The one failure it accepts is the known one: the portable driver
   raising (see README.md), which the run counts as a failed operation
   like any other. *)

let self_test () =
  let ok = ref true in
  List.iter
    (fun name ->
      let timed = timed ~scale:W.Tiny ~seed:1 ~seconds:0.0 name in
      let traced = traced ~scale:W.Tiny ~seed:1 name in
      List.iter
        (fun (mode, r, catalogue) ->
          let missing =
            List.filter
              (fun { Report.name; _ } -> not (List.mem_assoc name r.values))
              catalogue
          in
          let unexpected = List.filter (( <> ) "portable") r.tally.Tally.raised in
          let good = Tally.correct r.tally && unexpected = [] && missing = [] in
          if not good then ok := false;
          Printf.printf "self-test %-8s %-6s %s (%d operations, %d failed%s%s)\n" name mode
            (if good then "ok" else "FAILED")
            r.tally.Tally.attempted r.tally.Tally.failed
            (match r.tally.Tally.raised with
            | [] -> ""
            | raised -> ", raised: " ^ String.concat " " (List.sort_uniq compare raised))
            (if missing = [] then ""
             else ", missing " ^ String.concat " " (List.map (fun m -> m.Report.name) missing));
          if not good then print_string r.report)
        [ ("timed", timed, Report.end_to_end); ("traced", traced, Report.per_layer) ])
    W.names;
  !ok
