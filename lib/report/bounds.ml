module Json = Pc_util.Json

type step = Field of string | Elem of string | Each

type rule = {
  path : step list;
  minus : step list option;
  bounds : (string * (float -> float -> bool) * float) list;
  at_least : int option;
}

type t = { artifact : string; rules : rule list }

let artifact t = t.artifact
let comparisons : (string * (float -> float -> bool)) list =
  [ ("ge", ( >= )); ("le", ( <= )); ("lt", ( < )) ]

(* --- the document --- *)

let parse_path s =
  let plain s = s <> "" && not (String.contains s '[' || String.contains s ']') in
  let segment part =
    let n = String.length part in
    match String.index_opt part '[' with
    | None when plain part -> Ok [ Field part ]
    | Some i
      when n > i + 2
           && part.[n - 1] = ']'
           && plain (String.sub part 0 i)
           && plain (String.sub part (i + 1) (n - i - 2)) ->
      let key = String.sub part (i + 1) (n - i - 2) in
      Ok [ Field (String.sub part 0 i); (if key = "*" then Each else Elem key) ]
    | _ -> Error (Printf.sprintf "bad segment %S" part)
  in
  List.fold_right
    (fun part acc ->
      Result.bind acc (fun rest -> Result.map (fun seg -> seg @ rest) (segment part)))
    (String.split_on_char '/' s) (Ok [])

let stars steps = List.length (List.filter (fun s -> s = Each) steps)

let rule_of_json i j =
  let ( let* ) = Result.bind in
  let err key what = Error (Printf.sprintf "bounds[%d].%s: %s" i key what) in
  let path key =
    match Json.member key j with
    | None -> Ok None
    | Some (Json.Str s) -> (
      match parse_path s with Ok p -> Ok (Some p) | Error e -> err key e)
    | Some _ -> err key "not a string"
  in
  let keys = [ "path"; "minus"; "at_least" ] @ List.map fst comparisons in
  match j with
  | Json.Obj fields -> (
    match List.find_opt (fun (k, _) -> not (List.mem k keys)) fields with
    | Some (k, _) -> err k "unknown key"
    | None ->
      let* p = path "path" in
      let* p = match p with Some p -> Ok p | None -> err "path" "missing" in
      let* minus = path "minus" in
      let* () =
        match minus with
        | Some q when stars q <> stars p ->
          err "minus" (Printf.sprintf "has %d [*], path has %d" (stars q) (stars p))
        | _ -> Ok ()
      in
      let* bounds =
        List.fold_right
          (fun (name, op) acc ->
            let* rest = acc in
            match Json.member name j with
            | None -> Ok rest
            | Some v -> (
              match Json.to_float v with
              | Some b when Float.is_finite b -> Ok ((name, op, b) :: rest)
              | _ -> err name "not a finite number"))
          comparisons (Ok [])
      in
      let* () =
        match bounds with
        | [] -> err "le" "missing; a rule needs ge, le or lt"
        | _ -> Ok ()
      in
      let* at_least =
        match Json.member "at_least" j with
        | None -> Ok None
        | Some v -> (
          match Json.to_int v with
          | Some n when n >= 0 -> Ok (Some n)
          | _ -> err "at_least" "not a non-negative integer")
      in
      Ok { path = p; minus; bounds; at_least })
  | _ -> Error (Printf.sprintf "bounds[%d]: not an object" i)

let of_json doc =
  let ( let* ) = Result.bind in
  let str key =
    match Json.member key doc with
    | Some (Json.Str s) -> Ok s
    | Some _ -> Error (key ^ ": not a string")
    | None -> Error (key ^ ": missing")
  in
  let* schema = str "schema" in
  let* () =
    if schema = "pc-bounds/1" then Ok ()
    else Error ("schema: expected pc-bounds/1, got " ^ schema)
  in
  let* () =
    match doc with
    | Json.Obj fields -> (
      let keys = [ "schema"; "artifact"; "comment"; "bounds" ] in
      match List.find_opt (fun (k, _) -> not (List.mem k keys)) fields with
      | Some (k, _) -> Error (k ^ ": unknown key")
      | None -> Ok ())
    | _ -> Ok ()
  in
  let* artifact = str "artifact" in
  let* () =
    match Json.member "comment" doc with
    | None | Some (Json.Str _) -> Ok ()
    | Some _ -> Error "comment: not a string"
  in
  let* rules =
    match Json.member "bounds" doc with
    | Some (Json.List l) ->
      List.fold_right
        (fun (i, r) acc ->
          let* rest = acc in
          let* r = rule_of_json i r in
          Ok (r :: rest))
        (List.mapi (fun i r -> (i, r)) l)
        (Ok [])
    | Some _ -> Error "bounds: not a list"
    | None -> Error "bounds: missing"
  in
  Ok { artifact; rules }

(* --- evaluation --- *)

let append rendered = function
  | Field f -> if rendered = "" then f else rendered ^ "/" ^ f
  | Elem k -> rendered ^ "[" ^ k ^ "]"
  | Each -> rendered ^ "[*]"

let render steps = List.fold_left append "" steps

(* Every place [steps] reaches in [doc]: the keys its [*]s bound, the
   concrete path, and the value there ([None]: absent).  A [*] over an
   empty list reaches nothing. *)
let resolve schema steps doc =
  let rec go fields binding rendered steps v =
    let absent () = [ (List.rev binding, List.fold_left append rendered steps, None) ] in
    match (steps, v) with
    | [], v -> [ (List.rev binding, rendered, Some v) ]
    | (Field f as s) :: rest, v -> (
      match Json.member f v with
      | Some v -> go (fields @ [ f ]) binding (append rendered s) rest v
      | None -> absent ())
    | ((Elem _ | Each) as s) :: rest, Json.List items -> (
      let key =
        Option.value (Diff.list_key schema fields) ~default:(fun i _ -> string_of_int i)
      in
      let keyed = List.mapi (fun i v -> (key i v, v)) items in
      match s with
      | Elem k -> (
        match List.assoc_opt k keyed with
        | Some v -> go fields binding (append rendered s) rest v
        | None -> absent ())
      | _ ->
        List.concat_map
          (fun (k, v) -> go fields (k :: binding) (append rendered (Elem k)) rest v)
          keyed)
    | _ :: _, _ -> absent ()
  in
  go [] [] "" steps doc

let number (_, where, v) =
  let bad what = Error (where ^ ": " ^ what) in
  match v with
  | None -> bad "missing"
  | Some Json.Null -> bad "null"
  | Some v -> (
    match Json.to_float v with
    | Some f when Float.is_finite f -> Ok (where, f)
    | Some _ -> bad "non-finite"
    | None -> bad "non-numeric")

(* The values a rule bounds, in report order: [Ok (where, x)] or a
   located [Error]. *)
let values schema doc r =
  let p = resolve schema r.path doc in
  let nothing steps ms =
    if ms = [] then [ Error (render steps ^ ": matches nothing") ] else []
  in
  match r.minus with
  | None -> nothing r.path p @ List.map number p
  | Some q_steps ->
    let q = resolve schema q_steps doc in
    let partner ms (b, _, _) = List.find_opt (fun (b', _, _) -> b' = b) ms in
    let orphan other m =
      Result.bind (number m) (fun (where, _) ->
          Error (where ^ ": no partner in " ^ render other))
    in
    nothing r.path p @ nothing q_steps q
    @ List.map
        (fun m ->
          match partner q m with
          | None -> orphan q_steps m
          | Some m' -> (
            match (number m, number m') with
            | Ok (w, x), Ok (w', y) -> Ok (w ^ " - " ^ w', x -. y)
            | (Error _ as e), _ | _, (Error _ as e) -> e))
        p
    @ List.filter_map
        (fun m -> if Option.is_none (partner p m) then Some (orphan r.path m) else None)
        q

let check_rule schema doc i r =
  let msg fmt = Printf.ksprintf (Printf.sprintf "bounds[%d] %s" i) fmt in
  let show (name, _, b) = Printf.sprintf "%s %.9g" name b in
  let fails x = List.filter (fun (_, op, b) -> not (op x b)) r.bounds in
  let meets x = List.for_all (fun (_, op, b) -> op x b) r.bounds in
  let vs = values schema doc r in
  let errors =
    List.filter_map
      (function
        | Error e -> Some (msg "%s" e)
        | Ok (where, x) -> (
          match fails x with
          | _ :: _ as fs when r.at_least = None ->
            Some
              (msg "%s = %.9g fails %s" where x
                 (String.concat ", " (List.map show fs)))
          | _ -> None))
      vs
  in
  match r.at_least with
  | None -> errors
  | Some n ->
    let met =
      List.length (List.filter (function Ok (_, x) -> meets x | Error _ -> false) vs)
    in
    let what =
      render r.path ^ Option.fold ~none:"" ~some:(fun q -> " - " ^ render q) r.minus
    in
    if met >= n then errors
    else
      errors
      @ [
          msg "%s: %d meet %s, need %d" what met
            (String.concat ", " (List.map show r.bounds))
            n;
        ]

let check t report =
  match Json.schema report with
  | Some s when s = t.artifact ->
    List.concat (List.mapi (check_rule t.artifact report) t.rules)
  | s ->
    [
      Printf.sprintf "artifact: bounds are for %s, report is %s" t.artifact
        (Option.value ~default:"<none>" s);
    ]
