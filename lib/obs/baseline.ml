module Json = Pc_util.Json

let check_schema ~expected doc issues =
  match Json.schema doc with
  | Some s when s = expected -> issues
  | Some s ->
    Printf.sprintf "schema mismatch: expected %s, found %s" expected s :: issues
  | None -> Printf.sprintf "schema field missing (expected %s)" expected :: issues

(* The [counters] and [gauges] fields are flat {name: int} objects. *)
let int_fields key doc =
  match Json.member key doc with
  | Some (Json.Obj fields) ->
    List.filter_map
      (fun (name, v) -> Option.map (fun i -> (name, i)) (Json.to_int v))
      fields
  | _ -> []

let compare_exact ~kind ~baseline ~current =
  let issues = ref [] in
  let report fmt = Printf.ksprintf (fun s -> issues := s :: !issues) fmt in
  List.iter
    (fun (name, b) ->
      match List.assoc_opt name current with
      | Some c when c = b -> ()
      | Some c -> report "%s %s: baseline %d, current %d" kind name b c
      | None -> report "%s %s: missing from current run (baseline %d)" kind name b)
    baseline;
  List.iter
    (fun (name, c) ->
      if List.assoc_opt name baseline = None then
        report "%s %s: not in baseline (current %d); regenerate baselines" kind
          name c)
    current;
  List.rev !issues

let check_metrics ~baseline ~current =
  let issues =
    check_schema ~expected:"pc-obs/1" baseline []
    |> check_schema ~expected:"pc-obs/1" current
  in
  List.rev issues
  @ compare_exact ~kind:"counter"
      ~baseline:(int_fields "counters" baseline)
      ~current:(int_fields "counters" current)
  @ compare_exact ~kind:"gauge"
      ~baseline:(int_fields "gauges" baseline)
      ~current:(int_fields "gauges" current)
