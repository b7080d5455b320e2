module Json = Pc_util.Json

let tenant_json (t : Runner.tenant_row) =
  Json.Obj
    [
      ("label", Json.Str t.Runner.label);
      ("workload", Json.Str t.Runner.workload);
      ("kind", Json.Str (Spec.kind_name t.Runner.kind));
      ("instrs", Json.int t.Runner.instrs);
      ("standalone_ipc", Json.fixed 6 t.Runner.standalone_ipc);
      ("corun_ipc", Json.fixed 6 t.Runner.corun_ipc);
      ("slowdown", Json.fixed 6 t.Runner.slowdown);
      ("l2_accesses", Json.int t.Runner.l2_accesses);
      ("l2_misses", Json.int t.Runner.l2_misses);
      ("mem_accesses", Json.int t.Runner.mem_accesses);
    ]

let scenario_json (r : Runner.result) =
  Json.Obj
    [
      ("name", Json.Str r.Runner.spec.Spec.name);
      ("config", Json.Str r.Runner.config_name);
      ("policy", Json.Str (Spec.policy_name r.Runner.spec.Spec.policy));
      ("quantum", Json.int r.Runner.spec.Spec.quantum);
      ("sampled", Json.Bool r.Runner.sampled);
      ("weighted_speedup", Json.fixed 6 r.Runner.weighted_speedup);
      ("fairness", Json.fixed 6 r.Runner.fairness);
      ("tenants", Json.List (List.map tenant_json r.Runner.tenants));
    ]

let doc ~(settings : Runner.settings) results =
  Json.Obj
    [
      ("schema", Json.Str "pc-scenario/1");
      ("seed", Json.int settings.Runner.seed);
      ("budget", Json.int settings.Runner.budget);
      ( "sample",
        Option.fold ~none:Json.Null ~some:Json.int settings.Runner.sample );
      ("scenarios", Json.List (List.map scenario_json results));
    ]

let json ~settings results = Json.encode (doc ~settings results)
let write_json path ~settings results = Json.to_file path (doc ~settings results)

(* --- console table --- *)

let pp ppf (results : Runner.result list) =
  List.iter
    (fun (r : Runner.result) ->
      Format.fprintf ppf "scenario %s  (config %s, policy %s, quantum %d%s)@."
        r.Runner.spec.Spec.name r.Runner.config_name
        (Spec.policy_name r.Runner.spec.Spec.policy)
        r.Runner.spec.Spec.quantum
        (if r.Runner.sampled then ", sampled" else "");
      Format.fprintf ppf "  %-20s %-8s %10s %10s %10s %9s@." "tenant" "kind"
        "instrs" "alone-ipc" "corun-ipc" "slowdown";
      List.iter
        (fun (t : Runner.tenant_row) ->
          Format.fprintf ppf "  %-20s %-8s %10d %10.4f %10.4f %9.4f@."
            t.Runner.label
            (Spec.kind_name t.Runner.kind)
            t.Runner.instrs t.Runner.standalone_ipc t.Runner.corun_ipc
            t.Runner.slowdown)
        r.Runner.tenants;
      Format.fprintf ppf "  weighted speedup %.4f, fairness %.4f@."
        r.Runner.weighted_speedup r.Runner.fairness)
    results
