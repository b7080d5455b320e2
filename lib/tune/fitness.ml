module Fidelity = Pc_trace.Fidelity
module Sim = Pc_uarch.Sim
module Config = Pc_uarch.Config
module Power = Pc_power.Power
module Study = Pc_caches.Study
module Machine = Pc_funcsim.Machine

type weights = (string * float) list

let default_weights =
  [
    ("instr_mix_l1", 1.0);
    ("dep_dist_l1", 1.0);
    ("stride_agreement", 1.0);
    ("single_stride_err", 1.0);
    ("taken_rate_err", 1.0);
    ("transition_rate_err", 1.0);
    ("sfg_block_ratio", 0.5);
    ("avg_block_size_ratio", 0.5);
  ]

type envelope = {
  e_ipc : float option;
  e_mpki : float option;
  e_power : float option;
}

let envelope ?ipc ?mpki ?power () =
  let ok = function
    | None -> true
    | Some v -> Float.is_finite v && v > 0.0
  in
  if ipc = None && mpki = None && power = None then
    invalid_arg "Fitness.envelope: at least one target required";
  if not (ok ipc && ok mpki && ok power) then
    invalid_arg "Fitness.envelope: targets must be positive and finite";
  { e_ipc = ipc; e_mpki = mpki; e_power = power }

let envelope_of_string spec =
  let parse_kv acc kv =
    match acc with
    | Error _ -> acc
    | Ok (ipc, mpki, power) -> (
      match String.index_opt kv '=' with
      | None -> Error (Printf.sprintf "stress spec %S: expected key=value" kv)
      | Some i -> (
        let key = String.sub kv 0 i in
        let sv = String.sub kv (i + 1) (String.length kv - i - 1) in
        match float_of_string_opt sv with
        | None -> Error (Printf.sprintf "stress spec: %S is not a number" sv)
        | Some v when not (Float.is_finite v && v > 0.0) ->
          Error (Printf.sprintf "stress target %s must be positive" key)
        | Some v -> (
          match key with
          | "ipc" -> Ok (Some v, mpki, power)
          | "mpki" -> Ok (ipc, Some v, power)
          | "power" -> Ok (ipc, mpki, Some v)
          | _ -> Error (Printf.sprintf "unknown stress target %S" key))))
  in
  match
    List.fold_left parse_kv
      (Ok (None, None, None))
      (String.split_on_char ',' (String.trim spec))
  with
  | Error _ as e -> e
  | Ok (None, None, None) -> Error "stress spec names no targets"
  | Ok (ipc, mpki, power) -> Ok { e_ipc = ipc; e_mpki = mpki; e_power = power }

type mode = Mimic of weights | Stress of envelope

let mode_id mode =
  Digest.to_hex (Digest.string (Marshal.to_string mode []))

type eval = { fitness : float; components : (string * float) list }

(* Degenerate measurements (a clone whose profile is empty, a ratio of
   zero or infinity) clamp to a large finite error: candidates carrying
   them always lose a comparison but never poison [max] with NaN. *)
let clamp_err e = if Float.is_finite e then e else 1e9

let weight_of weights name =
  match List.assoc_opt name weights with Some w -> w | None -> 1.0

let error_components weights (c : Fidelity.characteristics) =
  let log_ratio r = Float.abs (Float.log r) in
  List.map
    (fun (name, v) ->
      let err =
        match name with
        | "stride_agreement" -> 1.0 -. v
        | "sfg_block_ratio" | "avg_block_size_ratio" -> log_ratio v
        | _ -> v
      in
      (name, clamp_err (weight_of weights name *. err)))
    (Fidelity.characteristic_fields c)

let is_null_row (c : Fidelity.characteristics) =
  List.for_all
    (fun (_, v) -> Float.is_nan v)
    (Fidelity.characteristic_fields c)

let of_report ?(weights = default_weights) (r : Fidelity.report) =
  let global = error_components weights r.Fidelity.c in
  let phase_rows =
    List.concat_map
      (fun (ph : Fidelity.phase) ->
        if is_null_row ph.Fidelity.p_c then []
        else
          List.map
            (fun (n, e) ->
              (Printf.sprintf "phase%d/%s" ph.Fidelity.p_index n, e))
            (error_components weights ph.Fidelity.p_c))
      r.Fidelity.phases
  in
  let components = global @ phase_rows in
  let fitness =
    List.fold_left (fun acc (_, e) -> Float.max acc e) 0.0 components
  in
  { fitness; components }

(* --- stress mode --- *)

let measure_stress ?(max_instrs = 200_000) env program =
  Pc_obs.Span.with_ "tune:stress_measure" @@ fun () ->
  let needs_sim = env.e_ipc <> None || env.e_power <> None in
  let sim =
    if needs_sim then Some (Sim.run ~max_instrs Config.base program) else None
  in
  let measured =
    List.filter_map Fun.id
      [
        Option.map
          (fun t ->
            let ipc = (Option.get sim).Sim.ipc in
            ("ipc", ipc, t))
          env.e_ipc;
        Option.map
          (fun t ->
            let r = Option.get sim in
            ("power", Power.total Config.base r, t))
          env.e_power;
        Option.map
          (fun t ->
            let results =
              Study.run_trace_onepass
                (Machine.run_data_refs ~max_instrs (Machine.load program))
            in
            let r = results.(Study.reference_index) in
            ("mpki", 1000.0 *. r.Study.mpi, t))
          env.e_mpki;
      ]
  in
  let fitness =
    List.fold_left
      (fun acc (_, m, t) -> Float.max acc (clamp_err (Float.abs (m -. t) /. t)))
      0.0 measured
  in
  { fitness; components = List.map (fun (n, m, _) -> (n, m)) measured }

let measure ?max_instrs ?phases ~bench ~original ~mode clone =
  match mode with
  | Stress env -> measure_stress ?max_instrs env clone
  | Mimic weights ->
    let report = Fidelity.measure ?max_instrs ~bench ~original clone in
    let report =
      match phases with
      | None -> report
      | Some (interval, original_program) ->
        Fidelity.measure_phases ~interval ~original:original_program ~clone
          report
    in
    of_report ~weights report
