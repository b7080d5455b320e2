module Machine = Pc_funcsim.Machine
module Config = Pc_uarch.Config
module Sim = Pc_uarch.Sim
module Sample = Pc_sample.Sample
module Registry = Pc_workloads.Registry
module Pipeline = Perfclone.Pipeline
module Store = Pc_exec.Store
module Pool = Pc_exec.Pool
module M = Pc_obs.Metrics

module Log = (val Logs.src_log (Logs.Src.create "pc.scenario") : Logs.LOG)

type settings = {
  seed : int;
  profile_instrs : int;
  clone_dynamic : int;
  budget : int;
  sample : int option;
}

let default_settings =
  {
    seed = 1;
    profile_instrs = 1_000_000;
    clone_dynamic = 100_000;
    budget = 2_000_000;
    sample = None;
  }

let quick_settings =
  { default_settings with profile_instrs = 300_000; budget = 500_000 }

type tenant_row = {
  label : string;
  workload : string;
  kind : Spec.kind;
  instrs : int;
  standalone_ipc : float;
  corun_ipc : float;
  slowdown : float;
  l2_accesses : int;
  l2_misses : int;
  mem_accesses : int;
}

type result = {
  spec : Spec.t;
  config_name : string;
  sampled : bool;
  tenants : tenant_row list;
  weighted_speedup : float;
  fairness : float;
}

(* --- memo stores (shared across scenarios and pool workers) --- *)

let digest = Pc_sample.Plan_cache.structural

let program_store : (string, Pc_isa.Program.t) Store.t =
  Store.create ~name:"scenario-program" ()

let baseline_store : (string, float) Store.t =
  Store.create ~name:"scenario-baseline" ()

let clear_caches () =
  Store.clear program_store;
  Store.clear baseline_store;
  Pc_sample.Plan_cache.clear_memo ()

let resolve_program settings workload kind =
  match Registry.find_opt workload with
  | None ->
    invalid_arg (Printf.sprintf "scenario tenant: unknown workload %S" workload)
  | Some entry -> (
    match kind with
    | Spec.Original -> Registry.compile entry
    | Spec.Clone ->
      let key =
        digest
          ( "clone", workload, settings.seed, settings.profile_instrs,
            settings.clone_dynamic )
      in
      Store.find_or_compute program_store key (fun () ->
          (Pipeline.clone_benchmark ~seed:settings.seed
             ~profile_instrs:settings.profile_instrs
             ~target_dynamic:settings.clone_dynamic workload)
            .Pipeline.clone))

(* The standalone baseline: the tenant's own input alone on the same
   effective config, priced by [ipc] exactly like its co-run row (with
   one tenant an unsampled co-run is bit-identical to [Sim.run]).  A
   lone tenant needs no interleaving, so one quantum covers its whole
   budget: one functional run, as for [Sim.run].  Memoized so duplicate
   slots, the clone scenario of a pair, and repeated invocations share
   one run. *)
let standalone settings cfg program ipc input =
  let sampled = Option.map (fun interval -> (interval, settings.seed)) settings.sample in
  let key =
    digest (cfg, Pc_sample.Plan_cache.program_digest program, settings.budget, sampled)
  in
  Store.find_or_compute baseline_store key (fun () ->
      let input = input () in
      let quantum = max 1 input.Scenario.budget in
      ipc (Scenario.co_run ~quantum cfg [| input |]).(0))

(* --- observability --- *)

let c_runs = M.counter "scenario.runs"
let c_tenants = M.counter "scenario.tenants"
let c_corun_instrs = M.counter "scenario.corun.instrs"
let g_max_slowdown_bp = M.gauge "scenario.slowdown_bp_max"

let bp v =
  if Float.is_finite v then int_of_float (Float.round (v *. 10_000.0)) else -1

(* --- driving one scenario --- *)

let jain xs =
  match xs with
  | [] -> 1.0
  | _ ->
    let n = float_of_int (List.length xs) in
    let s = List.fold_left ( +. ) 0.0 xs in
    let s2 = List.fold_left (fun a x -> a +. (x *. x)) 0.0 xs in
    if s2 <= 0.0 then 1.0 else s *. s /. (n *. s2)

let run_spec settings (spec : Spec.t) =
  Pc_obs.Span.with_
    ~args:[ ("scenario", Pc_obs.Event.Str spec.Spec.name) ]
    "scenario:run"
  @@ fun () ->
  let cfg = Spec.effective_config spec Config.base in
  let slots = Spec.slots spec in
  let programs =
    Array.map (fun (_, w, k) -> resolve_program settings w k) slots
  in
  let plans =
    match settings.sample with
    | None -> [||]
    | Some interval ->
      Array.map
        (fun program ->
          Pc_sample.Plan_cache.plan ~seed:settings.seed ~interval
            ~max_instrs:settings.budget program)
        programs
  in
  (* A fresh input per co-run: a live machine is consumed by its run. *)
  let input i () =
    let label, _, _ = slots.(i) in
    match settings.sample with
    | None ->
      {
        Scenario.label;
        budget = settings.budget;
        source = Scenario.From_machine (Machine.load programs.(i));
      }
    | Some _ ->
      {
        Scenario.label;
        budget = Sample.replayed_instrs plans.(i);
        source = Scenario.From_plan plans.(i);
      }
  in
  (* A tenant's IPC over the instructions its row speaks for. *)
  let ipc i (out : Scenario.tenant_result) =
    match settings.sample with
    | None -> out.Scenario.result.Sim.ipc
    | Some _ ->
      1.0
      /. Sample.weighted_cpi ~config_name:cfg.Config.name plans.(i)
           out.Scenario.windows
  in
  let baselines =
    Array.mapi
      (fun i program -> standalone settings cfg program (ipc i) (input i))
      programs
  in
  let outs =
    Scenario.co_run ~quantum:spec.Spec.quantum ~weights:(Spec.weights spec)
      cfg
      (Array.init (Array.length slots) (fun i -> input i ()))
  in
  let rows =
    Array.to_list
      (Array.mapi
         (fun i (label, workload, kind) ->
           let out = outs.(i) in
           let standalone_ipc = baselines.(i) in
           let corun_ipc = ipc i out in
           let instrs =
             match settings.sample with
             | None -> out.Scenario.result.Sim.instrs
             | Some _ -> plans.(i).Sample.total_instrs
           in
           {
             label;
             workload;
             kind;
             instrs;
             standalone_ipc;
             corun_ipc;
             slowdown = standalone_ipc /. corun_ipc;
             l2_accesses = out.Scenario.result.Sim.l2_accesses;
             l2_misses = out.Scenario.result.Sim.l2_misses;
             mem_accesses = out.Scenario.result.Sim.mem_accesses;
           })
         slots)
  in
  let speedups = List.map (fun r -> r.corun_ipc /. r.standalone_ipc) rows in
  let weighted_speedup = List.fold_left ( +. ) 0.0 speedups in
  let fairness = jain speedups in
  M.incr c_runs;
  M.add c_tenants (Array.length slots);
  Array.iter (fun o -> M.add c_corun_instrs o.Scenario.result.Sim.instrs) outs;
  List.iter (fun r -> M.record_max g_max_slowdown_bp (bp r.slowdown)) rows;
  Pc_obs.Event.instant
    ("scenario:" ^ spec.Spec.name)
    [
      ("tenants", Pc_obs.Event.Int (Array.length slots));
      ("weighted_speedup_bp", Pc_obs.Event.Int (bp weighted_speedup));
      ("fairness_bp", Pc_obs.Event.Int (bp fairness));
    ];
  {
    spec;
    config_name = cfg.Config.name;
    sampled = settings.sample <> None;
    tenants = rows;
    weighted_speedup;
    fairness;
  }

let run ?(pool = Pool.serial) settings specs =
  Log.info (fun m -> m "running %d scenarios" (List.length specs));
  Pool.map pool (run_spec settings) specs
