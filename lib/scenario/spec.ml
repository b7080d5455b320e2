module Cache = Pc_caches.Cache
module Hierarchy = Pc_caches.Hierarchy
module Json = Pc_util.Json

type kind = Original | Clone

let kind_name = function Original -> "original" | Clone -> "clone"

type tenant = { workload : string; kind : kind; count : int }

type policy = Round_robin | Priority of int list

let policy_name = function
  | Round_robin -> "round-robin"
  | Priority ws ->
    "priority:" ^ String.concat "," (List.map string_of_int ws)

type t = {
  name : string;
  tenants : tenant list;
  policy : policy;
  quantum : int;
  shared_l2 : Cache.config option;
  l1d : Cache.config option;
}

let default_quantum = Pc_funcsim.Machine.batch_capacity

let tenant ?(kind = Original) ?(count = 1) workload =
  if count < 1 then invalid_arg "Spec.tenant: count must be positive";
  { workload; kind; count }

let n_tenants t = List.fold_left (fun acc tn -> acc + tn.count) 0 t.tenants

let v ?(policy = Round_robin) ?(quantum = default_quantum) ?shared_l2 ?l1d
    ~name tenants =
  if tenants = [] then invalid_arg "Spec.v: a scenario needs tenants";
  if quantum < 1 then invalid_arg "Spec.v: quantum must be positive";
  let t = { name; tenants; policy; quantum; shared_l2; l1d } in
  (match policy with
  | Round_robin -> ()
  | Priority ws ->
    if List.length ws <> n_tenants t then
      invalid_arg "Spec.v: one priority weight per tenant slot";
    if List.exists (fun w -> w < 1) ws then
      invalid_arg "Spec.v: priority weights must be positive");
  t

(* Expanded per-slot view: [count] is flattened and duplicate
   (workload, kind) slots get a stable [#i] suffix, so labels are unique
   within a scenario and independent of everything but the spec. *)
let slots t =
  let expanded =
    List.concat_map
      (fun tn -> List.init tn.count (fun _ -> (tn.workload, tn.kind)))
      t.tenants
  in
  let total (w, k) =
    List.length (List.filter (fun s -> s = (w, k)) expanded)
  in
  let seen = Hashtbl.create 8 in
  List.map
    (fun (w, k) ->
      let base = match k with Original -> w | Clone -> w ^ ":clone" in
      let label =
        if total (w, k) > 1 then begin
          let i = Option.value ~default:0 (Hashtbl.find_opt seen base) in
          Hashtbl.replace seen base (i + 1);
          Printf.sprintf "%s#%d" base i
        end
        else base
      in
      (label, w, k))
    expanded
  |> Array.of_list

let weights t =
  match t.policy with
  | Round_robin -> Array.make (n_tenants t) 1
  | Priority ws -> Array.of_list ws

let effective_config t (base : Pc_uarch.Config.t) =
  let base =
    match t.l1d with
    | None -> base
    | Some l1 ->
      {
        base with
        Pc_uarch.Config.dcache =
          { base.Pc_uarch.Config.dcache with Hierarchy.l1 };
        name =
          Printf.sprintf "%s+d$%s" base.Pc_uarch.Config.name
            (Cache.config_name l1);
      }
  in
  match t.shared_l2 with
  | None -> base
  | Some l2 ->
    let side (h : Hierarchy.config) = { h with Hierarchy.l2 = Some l2 } in
    {
      base with
      Pc_uarch.Config.icache = side base.Pc_uarch.Config.icache;
      dcache = side base.Pc_uarch.Config.dcache;
      name =
        Printf.sprintf "%s+l2:%s" base.Pc_uarch.Config.name
          (Cache.config_name l2);
    }

(* --- pc-scenario-config/1 --- *)

let ( let* ) = Result.bind

let field name row =
  match Json.member name row with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing field %S" name)

let as_int name v =
  match Json.to_int v with
  | Some n -> Ok n
  | None -> Error (Printf.sprintf "field %S must be an integer" name)

let as_string name v =
  match Json.to_string v with
  | Some s -> Ok s
  | None -> Error (Printf.sprintf "field %S must be a string" name)

let tenant_of_json row =
  let* workload = Result.bind (field "workload" row) (as_string "workload") in
  let* kind =
    match Json.member "kind" row with
    | None -> Ok Original
    | Some v -> (
      match Json.to_string v with
      | Some "original" -> Ok Original
      | Some "clone" -> Ok Clone
      | _ -> Error "field \"kind\" must be \"original\" or \"clone\"")
  in
  let* count =
    match Json.member "count" row with
    | None -> Ok 1
    | Some v -> as_int "count" v
  in
  if count < 1 then Error "field \"count\" must be positive"
  else Ok { workload; kind; count }

let policy_of_json = function
  | None -> Ok Round_robin
  | Some (Json.Str "round-robin") -> Ok Round_robin
  | Some (Json.Obj _ as o) -> (
    match Json.member "priority" o with
    | Some (Json.List ws) ->
      let* ws =
        List.fold_right
          (fun w acc ->
            let* acc = acc in
            let* w = as_int "priority" w in
            Ok (w :: acc))
          ws (Ok [])
      in
      Ok (Priority ws)
    | _ -> Error "policy object must be {\"priority\": [..]}")
  | Some _ -> Error "field \"policy\" must be \"round-robin\" or {\"priority\": [..]}"

let cache_of_json row =
  let* size = Result.bind (field "size_bytes" row) (as_int "size_bytes") in
  let* assoc = Result.bind (field "assoc" row) (as_int "assoc") in
  let* line = Result.bind (field "line_bytes" row) (as_int "line_bytes") in
  match
    Cache.config ~size_bytes:size ~assoc ~line_bytes:line
  with
  | cfg -> Ok cfg
  | exception Invalid_argument msg -> Error msg

let scenario_of_json row =
  let* name = Result.bind (field "name" row) (as_string "name") in
  let* tenants =
    match Json.member "tenants" row with
    | Some (Json.List rows) ->
      List.fold_right
        (fun r acc ->
          let* acc = acc in
          let* t = tenant_of_json r in
          Ok (t :: acc))
        rows (Ok [])
    | _ -> Error "field \"tenants\" must be a list"
  in
  let* policy = policy_of_json (Json.member "policy" row) in
  let* quantum =
    match Json.member "quantum" row with
    | None -> Ok default_quantum
    | Some v -> as_int "quantum" v
  in
  let* shared_l2 =
    match Json.member "l2" row with
    | None -> Ok None
    | Some o ->
      let* cfg = cache_of_json o in
      Ok (Some cfg)
  in
  let* l1d =
    match Json.member "l1d" row with
    | None -> Ok None
    | Some o ->
      let* cfg = cache_of_json o in
      Ok (Some cfg)
  in
  match v ~policy ~quantum ?shared_l2 ?l1d ~name tenants with
  | spec -> Ok spec
  | exception Invalid_argument msg -> Error msg

let with_scenario_context name r =
  Result.map_error (fun msg -> Printf.sprintf "scenario %S: %s" name msg) r

let of_json doc =
  let* () =
    match Json.schema doc with
    | Some "pc-scenario-config/1" -> Ok ()
    | s ->
      Error
        (Printf.sprintf "expected schema pc-scenario-config/1, got %s"
           (Option.value ~default:"<none>" s))
  in
  match Json.member "scenarios" doc with
  | Some (Json.List rows) ->
    List.fold_right
      (fun r acc ->
        let* acc = acc in
        let name =
          Option.value ~default:"?"
            (Option.bind (Json.member "name" r) Json.to_string)
        in
        let* s = with_scenario_context name (scenario_of_json r) in
        Ok (s :: acc))
      rows (Ok [])
  | _ -> Error "field \"scenarios\" must be a list"

let load_file path =
  let* doc = Json.parse_file path in
  of_json doc
