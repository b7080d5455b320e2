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

(* --- threshold gate (check_baselines scenario) --- *)

let scenario_rows doc =
  match Option.bind (Json.member "scenarios" doc) Json.to_list with
  | Some rows -> rows
  | None -> []

let row_name row =
  Option.value ~default:"?"
    (Option.bind (Json.member "name" row) Json.to_string)

let tenant_rows row =
  match Option.bind (Json.member "tenants" row) Json.to_list with
  | Some rows -> rows
  | None -> []

let finite_field name row =
  match Json.member name row with
  | None -> Error (Printf.sprintf "missing field %S" name)
  | Some Json.Null -> Error (Printf.sprintf "non-finite %S" name)
  | Some v -> (
    match Json.to_float v with
    | Some f when Float.is_finite f -> Ok f
    | Some _ -> Error (Printf.sprintf "non-finite %S" name)
    | None -> Error (Printf.sprintf "non-numeric %S" name))

let check ~thresholds ~report =
  let issues = ref [] in
  let issue fmt = Printf.ksprintf (fun s -> issues := s :: !issues) fmt in
  (match Json.schema thresholds with
  | Some "pc-scenario-thresholds/1" -> ()
  | s ->
    issue "thresholds: expected schema pc-scenario-thresholds/1, got %s"
      (Option.value ~default:"<none>" s));
  (match Json.schema report with
  | Some "pc-scenario/1" -> ()
  | s ->
    issue "report: expected schema pc-scenario/1, got %s"
      (Option.value ~default:"<none>" s));
  let rows = scenario_rows report in
  if rows = [] then issue "report: no scenarios";
  let find_scenario name =
    List.find_opt (fun row -> row_name row = name) rows
  in
  (* per-scenario bounds *)
  (match Json.member "scenarios" thresholds with
  | None -> ()
  | Some (Json.Obj bounds) ->
    List.iter
      (fun (name, bound) ->
        match find_scenario name with
        | None -> issue "thresholds: scenario %S not in report" name
        | Some row ->
          let bound_value key =
            Option.bind (Json.member key bound) Json.to_float
          in
          (match bound_value "min_fairness" with
          | None -> ()
          | Some b -> (
            match finite_field "fairness" row with
            | Error msg -> issue "%s: %s" name msg
            | Ok v ->
              if v < b then
                issue "%s: fairness = %.6f below min %.6f" name v b));
          (match bound_value "min_weighted_speedup" with
          | None -> ()
          | Some b -> (
            match finite_field "weighted_speedup" row with
            | Error msg -> issue "%s: %s" name msg
            | Ok v ->
              if v < b then
                issue "%s: weighted_speedup = %.6f below min %.6f" name v b));
          (match bound_value "max_slowdown" with
          | None -> ()
          | Some b ->
            List.iter
              (fun t ->
                let label =
                  Option.value ~default:"?"
                    (Option.bind (Json.member "label" t) Json.to_string)
                in
                match finite_field "slowdown" t with
                | Error msg -> issue "%s/%s: %s" name label msg
                | Ok v ->
                  if v > b then
                    issue "%s/%s: slowdown = %.6f exceeds max %.6f" name label
                      v b)
              (tenant_rows row)))
      bounds
  | Some _ -> issue "thresholds: \"scenarios\" must be an object");
  (* clone-vs-original pairs: tenants matched by slot position *)
  (match Json.member "pairs" thresholds with
  | None -> ()
  | Some (Json.List pairs) ->
    List.iter
      (fun pair ->
        let str key = Option.bind (Json.member key pair) Json.to_string in
        match (str "original", str "clone",
               Option.bind (Json.member "max_slowdown_gap" pair) Json.to_float)
        with
        | Some o, Some c, Some gap -> (
          match (find_scenario o, find_scenario c) with
          | Some orow, Some crow ->
            let ots = tenant_rows orow and cts = tenant_rows crow in
            if List.length ots <> List.length cts then
              issue "pair %s/%s: tenant counts differ (%d vs %d)" o c
                (List.length ots) (List.length cts)
            else
              List.iteri
                (fun i (ot, ct) ->
                  match (finite_field "slowdown" ot, finite_field "slowdown" ct) with
                  | Ok so, Ok sc ->
                    let d = Float.abs (so -. sc) in
                    if d > gap then
                      issue
                        "pair %s/%s slot %d: slowdown gap %.6f exceeds max %.6f \
                         (original %.6f, clone %.6f)"
                        o c i d gap so sc
                  | Error msg, _ -> issue "pair %s/%s slot %d: %s" o c i msg
                  | _, Error msg -> issue "pair %s/%s slot %d: %s" o c i msg)
                (List.combine ots cts)
          | None, _ -> issue "pair: scenario %S not in report" o
          | _, None -> issue "pair: scenario %S not in report" c)
        | _ ->
          issue
            "thresholds: each pair needs \"original\", \"clone\" and \
             \"max_slowdown_gap\"")
      pairs
  | Some _ -> issue "thresholds: \"pairs\" must be a list");
  List.rev !issues

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
