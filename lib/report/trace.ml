module Json = Pc_util.Json

type event = {
  ph : string;
  tid : int;
  ts : float;
  name : string;
  id : int;
  args : (string * Json.t) list;
}

type t = { events : event list }

let schema = "pc-trace/1"

(* --- parsing --- *)

let parse_event j =
  let str k = Option.bind (Json.member k j) Json.to_string in
  let int k = Option.bind (Json.member k j) Json.to_int in
  let flt k = Option.bind (Json.member k j) Json.to_float in
  match (str "ph", str "name") with
  | Some ph, Some name -> (
    let tid = Option.value ~default:0 (int "tid") in
    let ts = Option.value ~default:0.0 (flt "ts") in
    let id = Option.value ~default:0 (int "id") in
    let args =
      match Json.member "args" j with Some (Json.Obj fields) -> fields | _ -> []
    in
    match ph with
    | "M" | "B" | "E" | "i" | "s" | "t" | "f" | "C" ->
      Ok { ph; tid; ts; name; id; args }
    | ph -> Error (Printf.sprintf "unknown event phase %S" ph))
  | _ -> Error "event missing \"ph\" or \"name\""

let parse j =
  if Json.schema j <> Some schema then
    Error (Printf.sprintf "not a %s document" schema)
  else
    match Option.bind (Json.member "traceEvents" j) Json.to_list with
    | None -> Error "missing \"traceEvents\" array"
    | Some events ->
      let rec go acc = function
        | [] -> Ok { events = List.rev acc }
        | e :: rest -> (
          match parse_event e with
          | Ok e -> go (e :: acc) rest
          | Error _ as e -> e)
      in
      go [] events

let parse_file path =
  match Json.parse_file path with
  | Error e -> Error e
  | Ok j -> parse j
